"""Unit tests for the experiment runner, spectrum reports, and CLI."""

import json
import math
import pathlib
import re

import numpy as np
import pytest

from singcov import bench, cli, ewens, haar
from singcov.linalg import (
    RandomSource,
    frobenius_norm,
    load_matrix_csv,
    pseudoinverse,
    save_matrix_csv,
)
from singcov.ewens import ewens_estimator
from conftest import random_psd

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

BASE = {
    "m": 8,
    "n": 6,
    "truth": {"kind": "tridiagonal", "b": 0.3},
    "estimators": ["truth", "sample", "loading", "covp", "ewens", "hybrid"],
    "theta_grid": [1.0, 6.0],
    "p_grid": [3],
    "loading_grid": [[1.0, 0.0], [0.8, 0.2]],
    "mc_samples": 200,
    "seed": 5,
    "trials": 3,
}


def make_config(**overrides):
    doc = json.loads(json.dumps(BASE))
    doc.update(overrides)
    return bench.ExperimentConfig.from_dict(doc)


class TestConfig:
    def test_roundtrip(self):
        config = make_config()
        again = bench.ExperimentConfig.from_dict(config.to_dict())
        assert again == config

    def test_defaults_and_required_keys(self):
        doc = {"m": 8, "n": 6, "truth": {"kind": "power", "alpha": 0.5}}
        assert bench.ExperimentConfig.from_dict(doc).to_dict() == dict(
            doc, estimators=["sample"], theta_grid=[], p_grid=[], loading_grid=[],
            mc_samples=2000, seed=0, trials=10,
        )
        with pytest.raises(ValueError, match="config requires 'm' and 'n'"):
            bench.ExperimentConfig.from_dict({"m": 8, "truth": doc["truth"]})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            make_config(extra=1)

    def test_rejects_unknown_truth_keys(self):
        with pytest.raises(ValueError, match="unknown truth keys"):
            make_config(truth={"kind": "tridiagonal", "b": 0.3, "c": 1})

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            make_config(estimators=["sample", "magic"])

    def test_requires_grids(self):
        with pytest.raises(ValueError, match="theta_grid"):
            make_config(estimators=["ewens"], theta_grid=[])
        with pytest.raises(ValueError, match="p_grid"):
            make_config(estimators=["covp"], p_grid=[])
        with pytest.raises(ValueError, match="loading_grid"):
            make_config(estimators=["loading"], loading_grid=[])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_config(theta_grid=[0.0])
        with pytest.raises(ValueError):
            make_config(p_grid=[9])
        with pytest.raises(ValueError):
            make_config(truth={"kind": "power"})

    def test_grids_use_the_linalg_rules(self):
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            make_config(theta_grid=[0.0])
        with pytest.raises(ValueError, match=re.escape("p=9 must lie in [1, 8]")):
            make_config(p_grid=[9])

    def test_rejects_non_finite_loading_weights(self):
        with pytest.raises(ValueError, match="loading weights must be finite"):
            make_config(loading_grid=[[float("nan"), 0.2]])

    @pytest.mark.parametrize("kind, name", [("tridiagonal", "b"), ("power", "alpha")])
    def test_truth_parameter_key_follows_kind(self, kind, name):
        config = make_config(truth={"kind": kind, name: 0.25})
        assert config.to_dict()["truth"] == {"kind": kind, name: 0.25}
        with pytest.raises(ValueError, match=f"truth lacks its family parameter '{name}'"):
            make_config(truth={"kind": kind})

    def test_rejects_repeated_estimator(self):
        with pytest.raises(ValueError, match="estimators"):
            make_config(estimators=["sample", "ewens", "sample"])

    def test_rejects_repeated_p(self):
        with pytest.raises(ValueError, match="p_grid"):
            make_config(p_grid=[3, 2, 3])

    def test_rejects_thetas_with_one_label(self):
        # both thetas would be written as theta=1 and share one row
        with pytest.raises(ValueError, match="theta_grid"):
            make_config(theta_grid=[1.0000001, 1.0000002, 3])

    @pytest.mark.parametrize(
        "doc, key",
        [
            (dict(BASE, m=None), "m"),
            (dict(BASE, m=5.7), "m"),
            (dict(BASE, n=True), "n"),
            (dict(BASE, trials="3"), "trials"),
            (dict(BASE, p_grid=3), "p_grid"),
            (dict(BASE, p_grid=[3.0]), "p_grid"),
            (dict(BASE, theta_grid=[None]), "theta_grid"),
            (dict(BASE, theta_grid=[False]), "theta_grid"),
            (dict(BASE, estimators="sample"), "estimators"),
            (dict(BASE, estimators=[["sample"]]), "estimators"),
            (dict(BASE, loading_grid=[1.0]), "loading_grid"),
            (dict(BASE, loading_grid=[[1.0, "0"]]), "loading_grid"),
            (dict(BASE, truth={"kind": "power", "alpha": [0.5]}), "truth.alpha"),
            (dict(BASE, truth={"kind": "tridiagonal", "b": "0.3"}), "truth.b"),
            ([1], "JSON object"),
        ],
    )
    def test_rejects_wrong_json_types(self, doc, key):
        with pytest.raises(ValueError, match=re.escape(key)):
            bench.ExperimentConfig.from_dict(doc)

    def test_from_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE))
        assert bench.ExperimentConfig.from_json(path) == make_config()
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            bench.ExperimentConfig.from_json(path)


class TestRunExperiment:
    def test_truth_rows_are_zero(self):
        report = bench.run_experiment(make_config())
        row = report.row("truth", "", "fro_direct")
        assert row.values == [0.0, 0.0, 0.0]

    def test_loading_never_beats_its_identity_point(self):
        # the grid contains (1, 0), so the oracle minimum is at most
        # the plain sample error in every trial
        report = bench.run_experiment(make_config())
        sample = report.row("sample", "", "fro_direct")
        loading = report.row("loading", "grid-min", "fro_direct")
        for s, l in zip(sample.values, loading.values):
            assert l <= s + 1e-12

    def test_deterministic_across_threads(self, monkeypatch):
        # the chunk pool changes which thread runs a chunk, never the rows;
        # at m = 12, 7000 draws span several chunks on both inverse paths
        config = make_config(
            m=12,
            n=9,
            truth={"kind": "power", "alpha": 0.5},
            estimators=["sample", "invcovp", "hybrid_inverse"],
            theta_grid=[1.0],
            p_grid=[3],
            mc_samples=7000,
            trials=2,
        )
        chunk_streams, used = haar._chunk_streams, set()

        def counted(rng):
            stream = chunk_streams(rng)
            return lambda j: used.add(j) or stream(j)

        monkeypatch.setattr(haar, "_chunk_streams", counted)
        monkeypatch.setattr(haar, "_TWO_THREADS", False)
        one = bench.run_experiment(config)
        monkeypatch.setattr(haar, "_TWO_THREADS", True)
        two = bench.run_experiment(config)
        assert len(used) > 1
        assert [a.values for a in one.rows] == [b.values for b in two.rows]

    def test_invalid_rows_marked_not_fatal(self):
        config = make_config(
            n=3, estimators=["sample", "invcovp"], p_grid=[5], mc_samples=100
        )
        report = bench.run_experiment(config)
        bad = report.row("invcovp", "p=5", "fro_direct")
        assert not bad.valid
        assert "rank" in bad.reason
        assert report.row("sample", "", "fro_direct").valid

    def test_hybrid_inverse_rows_above_rank_are_invalid(self):
        # K has rank 3: p=3 is scored, p=5 would pseudo-invert singular blocks
        config = make_config(
            n=3, estimators=["hybrid_inverse"], theta_grid=[2.0], p_grid=[3, 5], mc_samples=100
        )
        report = bench.run_experiment(config)
        assert report.row("hybrid_inverse", "theta=2,p=3", "fro_inverse").valid
        bad = report.row("hybrid_inverse", "theta=2,p=5", "fro_inverse")
        assert not bad.valid
        assert bad.reason == "p=5 exceeds rank 3 of K"

    def test_only_invcovp_rows_at_rank_are_invalid(self):
        # K has rank 3: at p = 3 the Haar inverse average is infinite on the
        # kernel of K, while an injection average is a finite sum
        config = make_config(
            n=3, estimators=["invcovp", "hybrid_inverse"], theta_grid=[2.0], p_grid=[3],
            mc_samples=100,
        )
        report = bench.run_experiment(config)
        bad = report.row("invcovp", "p=3", "fro_inverse")
        assert not bad.valid
        assert bad.reason == "p=3 reaches rank 3 of the singular K, where the average is infinite"
        assert report.row("hybrid_inverse", "theta=2,p=3", "fro_inverse").valid

    def test_invcovp_estimates_once_per_trial_and_p(self, monkeypatch):
        estimates = []
        original = haar.invcov_p_mc

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            estimates.append((args[1], result.estimate))
            return result

        monkeypatch.setattr(haar, "invcov_p_mc", recording)
        config = make_config(estimators=["invcovp"], p_grid=[2, 3], trials=2)
        report = bench.run_experiment(config)
        assert [p for p, _ in estimates] == [2, 3, 2, 3]
        # both metrics of a (trial, p) are scored from its one estimate
        _, a, a_inv = bench._truth_matrices(config)
        for i, (p, e) in enumerate(estimates):
            trial = i // 2
            direct = report.row("invcovp", f"p={p}", "fro_direct").values[trial]
            inverse = report.row("invcovp", f"p={p}", "fro_inverse").values[trial]
            assert direct == frobenius_norm(a - (p / config.m) * pseudoinverse(e))
            assert inverse == frobenius_norm(a_inv - (config.m / p) * e)

    def test_write_outputs(self, tmp_path):
        report = bench.run_experiment(make_config(trials=2))
        raw, agg, cfg = report.write(tmp_path / "out")
        lines = pathlib.Path(raw).read_text().splitlines()
        assert lines[0] == "estimator,parameter,metric,trial,value"
        assert pathlib.Path(agg).read_text().startswith("estimator,parameter,metric,trials")
        assert json.loads(pathlib.Path(cfg).read_text())["m"] == 8


class TestSpectrumReport:
    def test_files_exist_and_parse(self, tmp_path):
        config = make_config(estimators=["sample", "ewens"], theta_grid=[2.0, 8.0])
        paths = bench.spectrum_report(config, tmp_path / "spec")
        names = {p.split("/")[-1] for p in map(str, paths)}
        assert "esd_truth.csv" in names
        assert "esd_sample.csv" in names
        assert "density_truth.csv" in names
        assert "esd_ewens_theta_2.csv" in names
        assert "density_ewens_beta_1.csv" in names
        for path in paths:
            rows = pathlib.Path(path).read_text().strip().splitlines()
            assert len(rows) >= 2

    def test_constant_symbol_law_is_one_point_mass(self, tmp_path):
        # b = 0 makes the truth, and every Ewens average of it, the identity
        config = make_config(truth={"kind": "tridiagonal", "b": 0}, theta_grid=[2.0])
        paths = bench.spectrum_report(config, tmp_path / "spec")
        densities = [p for p in map(pathlib.Path, paths) if p.name.startswith("density_")]
        assert [p.name for p in densities] == ["density_truth.csv", "density_ewens_beta_0.25.csv"]
        for path in densities:
            assert path.read_bytes() == b"abscissa,density\r\n1,inf\r\n"


class TestVerify:
    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            bench.verify("bogus")

    def test_block_pinv_suite_passes(self):
        report = bench.verify("block-pinv")
        assert report.passed
        doc = report.to_dict()
        assert doc["suite"] == "block-pinv"
        assert all(c["value"] <= c["tol"] for c in doc["checks"])

    def test_toeplitz_decomp_suite_passes(self):
        assert bench.verify("toeplitz-decomp").passed


class TestCli:
    def test_estimate_matches_library(self, tmp_path):
        k = random_psd(5, 5, 123)
        src = tmp_path / "k.csv"
        dst = tmp_path / "est.csv"
        save_matrix_csv(src, k)
        code = cli.main(
            ["estimate", "--estimator", "ewens", "--input", str(src),
             "--theta", "2.5", "--out", str(dst)]
        )
        assert code == 0
        np.testing.assert_allclose(
            load_matrix_csv(dst), ewens_estimator(k, 2.5), atol=1e-15
        )

    def test_estimate_missing_parameter(self, tmp_path, capsys):
        k = random_psd(4, 4, 124)
        src = tmp_path / "k.csv"
        save_matrix_csv(src, k)
        code = cli.main(
            ["estimate", "--estimator", "ewens", "--input", str(src),
             "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1
        assert "theta" in capsys.readouterr().err

    def test_estimate_rejects_flags_the_estimator_does_not_take(self, tmp_path, capsys):
        src = tmp_path / "k.csv"
        save_matrix_csv(src, random_psd(5, 5, 127))
        values = {"theta": "2.5", "p": "3", "alpha": "0.8", "beta": "0.2"}
        refused = 0
        for name in bench.CLI_ESTIMATORS:
            params = bench.ESTIMATORS[name].params
            own = [arg for key in params for arg in (f"--{key}", values[key])]
            for flag in set(values) - set(params):
                dst = tmp_path / f"{name}_{flag}.csv"
                argv = ["estimate", "--estimator", name, "--input", str(src),
                        "--out", str(dst), *own, f"--{flag}", values[flag]]
                assert cli.main(argv) == 1
                err = capsys.readouterr().err
                assert err == f"error: --{flag} does not apply to estimator {name!r}\n"
                assert not dst.exists()
                refused += 1
        # every flag is refused by some estimator: 3+2+2+3+3+2 pairs
        assert refused == 15

    def test_estimate_rejects_non_hermitian_input(self, tmp_path, capsys):
        k = random_psd(3, 3, 126)
        k[0, 2] += 1.0
        src = tmp_path / "k.csv"
        save_matrix_csv(src, k)
        for name, flags in {
            "ewens": ["--theta", "2.5"],
            "hybrid": ["--theta", "2.5", "--p", "2"],
            "covp": ["--p", "2"],
            "loading": ["--alpha", "0.8", "--beta", "0.2"],
        }.items():
            argv = ["estimate", "--estimator", name, "--input", str(src),
                    "--out", str(tmp_path / f"{name}.csv")]
            assert cli.main(argv + flags) == 1
            assert "k is not Hermitian" in capsys.readouterr().err
            assert not (tmp_path / f"{name}.csv").exists()

    def test_estimate_each_estimator_matches_library(self, tmp_path):
        k = random_psd(5, 5, 125)
        src = tmp_path / "k.csv"
        save_matrix_csv(src, k)
        cases = {
            "ewens": (["--theta", "2.5"], lambda: ewens.ewens_estimator(k, 2.5)),
            "hybrid": (
                ["--theta", "2.5", "--p", "3"],
                lambda: ewens.hybrid_estimator(k, 2.5, 3),
            ),
            "hybrid_inverse": (
                ["--theta", "2.5", "--p", "3"],
                lambda: ewens.hybrid_inverse_mc(k, 2.5, 3, 50, RandomSource(7)).estimate,
            ),
            "covp": (["--p", "3"], lambda: haar.cov_p_closed(k, 3)),
            "invcovp": (
                ["--p", "3"],
                lambda: haar.invcov_p_mc(k, 3, 50, RandomSource(7)).estimate,
            ),
            "loading": (
                ["--alpha", "0.8", "--beta", "0.2"],
                lambda: haar.diagonal_loading(k, haar.LoadingParameters(0.8, 0.2)),
            ),
        }
        assert set(cases) == set(bench.CLI_ESTIMATORS)
        for name, (flags, expected) in cases.items():
            dst = tmp_path / f"{name}.csv"
            argv = ["estimate", "--estimator", name, "--input", str(src),
                    "--out", str(dst), "--samples", "50", "--seed", "7"]
            assert cli.main(argv + flags) == 0
            np.testing.assert_allclose(load_matrix_csv(dst), expected(), atol=1e-15)

    def test_estimate_choices_from_table(self):
        assert bench.CLI_ESTIMATORS == (
            "ewens", "hybrid", "hybrid_inverse", "covp", "invcovp", "loading"
        )
        parser = cli._build_parser()
        base = ["estimate", "--input", "k.csv", "--out", "o.csv", "--estimator"]
        for name in bench.CLI_ESTIMATORS:
            assert parser.parse_args(base + [name]).estimator == name
        for name in ("truth", "sample"):
            with pytest.raises(SystemExit):
                parser.parse_args(base + [name])

    def test_readme_lists_cli_estimators(self):
        text = README.read_text()
        line = text[text.index("Estimators:"):].split(".")[0]
        assert re.findall(r"`(\w+)`", line) == list(bench.CLI_ESTIMATORS)

    def test_estimate_rank_below_p_reports_error(self, tmp_path, capsys):
        src = tmp_path / "k.csv"
        save_matrix_csv(src, random_psd(6, 2, 126))
        code = cli.main(
            ["estimate", "--estimator", "invcovp", "--p", "4", "--samples", "200",
             "--input", str(src), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "p=4 exceeds rank 2 of K" in err

    @pytest.mark.parametrize(
        "name, flags", [("invcovp", []), ("hybrid_inverse", ["--theta", "2"])]
    )
    def test_estimate_rejects_p_above_rank(self, tmp_path, capsys, name, flags):
        # a rank-3 sample covariance at m = 8: p = 2 runs, p = 5 is refused, and
        # p = 3 runs only on the injection path, whose average is a finite sum
        src = tmp_path / "k.csv"
        save_matrix_csv(src, random_psd(8, 3, 128))
        at_rank = int(name == "invcovp")
        for p, code in (("2", 0), ("3", at_rank), ("5", 1)):
            out = tmp_path / f"{name}_{p}.csv"
            argv = ["estimate", "--estimator", name, "--p", p, "--samples", "50",
                    "--input", str(src), "--out", str(out)]
            assert cli.main(argv + flags) == code
            assert out.exists() == (code == 0)
        refused = "error: p=3 reaches rank 3 of the singular K, where the average is infinite\n"
        assert capsys.readouterr().err == at_rank * refused + "error: p=5 exceeds rank 3 of K\n"

    def test_estimate_ewens_at_huge_theta_returns_input(self, tmp_path):
        k = random_psd(5, 5, 129)
        src, dst = tmp_path / "k.csv", tmp_path / "e.csv"
        save_matrix_csv(src, k)
        argv = ["estimate", "--estimator", "ewens", "--theta", "1e200",
                "--input", str(src), "--out", str(dst)]
        assert cli.main(argv) == 0
        np.testing.assert_allclose(load_matrix_csv(dst), k, rtol=1e-15)

    def test_experiment_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(BASE, estimators=["sample"], trials=2)))
        plain, seeded = tmp_path / "plain", tmp_path / "seeded"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(plain)]) == 0
        argv = ["experiment", "--config", str(cfg), "--out", str(seeded), "--seed", "99"]
        assert cli.main(argv) == 0
        assert json.loads((seeded / "config.json").read_text())["seed"] == 99
        raw = "metrics_raw.csv"
        assert (seeded / raw).read_bytes() != (plain / raw).read_bytes()
        capsys.readouterr()
        argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "-1"]
        assert cli.main(argv) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_experiment_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        doc = dict(BASE, estimators=["sample", "invcovp"], p_grid=[3], trials=2)
        cfg.write_text(json.dumps(doc))
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("metrics_raw.csv", "metrics_mean.csv", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_experiment_bad_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(BASE, mystery=1)))
        code = cli.main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [dict(BASE, m=None), dict(BASE, p_grid=3), [1]])
    def test_experiment_wrong_json_type_exit_one(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_experiment_rejects_threads_below_one(self, tmp_path, capsys, threads):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(BASE, estimators=["sample"])))
        out = tmp_path / "x"
        argv = ["experiment", "--config", str(cfg), "--out", str(out), "--threads", threads]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --threads {threads}" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_refuses_threads(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(BASE, estimators=["sample"])))
        out = tmp_path / "x"
        argv = ["experiment", "--config", str(cfg), "--out", str(out), "--threads", "2"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="trials run in order"):
            bench.run_experiment(make_config(), threads=2)

    def test_estimate_rejects_negative_seed(self, tmp_path, capsys):
        src, dst = tmp_path / "k.csv", tmp_path / "o.csv"
        save_matrix_csv(src, random_psd(4, 4, 130))
        argv = ["estimate", "--estimator", "invcovp", "--p", "2", "--samples", "50",
                "--input", str(src), "--out", str(dst), "--seed", "-1"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not dst.exists()

    def test_experiment_nan_loading_weight_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = dict(BASE, n=3, trials=2, estimators=["loading"], loading_grid=[[math.nan, 0.2]])
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: loading weights must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_singular_tridiagonal_truth_exit_one(self, tmp_path, capsys):
        # at the cap the truth's smallest eigenvalue is zero and its inverse blows up
        cap = 1.0 / (2.0 * math.cos(math.pi / 9))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(BASE, truth={"kind": "tridiagonal", "b": cap})))
        out = tmp_path / "x"
        assert cli.main(["experiment", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: b must lie in [0, 0.532089) for m=8" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_nan_loading_weight_exit_one(self, tmp_path, capsys):
        src = tmp_path / "k.csv"
        save_matrix_csv(src, random_psd(3, 3, 127))
        out = tmp_path / "o.csv"
        argv = ["estimate", "--estimator", "loading", "--alpha", "nan", "--beta", "0.2",
                "--input", str(src), "--out", str(out)]
        assert cli.main(argv) == 1
        assert "error: loading weights must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(BASE, estimators=["sample"], theta_grid=[])))
        out = tmp_path / "s"
        code = cli.main(
            ["spectrum", "--config", str(cfg), "--out", str(out), "--seed", "99"]
        )
        assert code == 0
        assert (out / "esd_sample.csv").exists()

    def test_verify_exit_codes(self, tmp_path, capsys, monkeypatch):
        assert cli.main(["verify", "block-pinv"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert cli.main(["verify", "nonexistent"]) == 1
        capsys.readouterr()
        monkeypatch.setitem(
            bench.VERIFY_SUITES,
            "always-red",
            lambda: [bench.VerifyCheck("forced failure", 1.0, 0.5)],
        )
        report_path = tmp_path / "report.json"
        code = cli.main(["verify", "always-red", "--out", str(report_path)])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["passed"] is False

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
