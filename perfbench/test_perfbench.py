"""Tests of the benchmark's own code: output checks and span arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402

import singcov  # noqa: E402
from singcov import ewens, haar, linalg  # noqa: E402


def _sample_covariance(m, n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    k = g @ g.conj().T / n
    return (k + k.conj().T) / 2


K = _sample_covariance(12, 9, 0)


def test_ewens_check_accepts_closed_form_and_rejects_scaling():
    e = ewens.ewens_estimator(K, 3.0)
    assert checks.ewens_average(K, e) == []
    assert checks.ewens_average(K, 1.01 * e)


def test_compression_check_rejects_scaling_and_noncommuting_output():
    e = haar.cov_p_closed(K, 4)
    assert checks.compression_average(K, e, 4) == []
    assert checks.compression_average(K, 1.01 * e, 4)
    skew = e + 1e-3 * np.diag(np.arange(12.0))
    skew -= np.trace(skew - e) / 12 * np.eye(12)  # keep the trace
    assert checks.compression_average(K, skew, 4)


def test_loading_check_rejects_scaling():
    e = haar.diagonal_loading(K, haar.LoadingParameters(0.8, 0.2))
    assert checks.loading(K, e, 0.8, 0.2) == []
    assert checks.loading(K, 1.01 * e, 0.8, 0.2)


def test_hybrid_check_rejects_scaling_and_reoriented_weights():
    theta, p, m = 2.0, 5, 12
    e = ewens.hybrid_estimator(K, theta, p)
    assert checks.hybrid(K, e, theta, p) == []
    assert checks.hybrid(K, 1.01 * e, theta, p)
    # head block at the far end instead of 0..p-1
    flipped = checks.hybrid_weights(m, p, theta)[::-1, ::-1]
    assert checks.hybrid(K, flipped * K, theta, p)
    # head and tail diagonal coefficients exchanged
    swapped = checks.hybrid_weights(m, p, theta)
    swapped[np.diag_indices(m)] = swapped[np.diag_indices(m)][::-1]
    assert checks.hybrid(K, swapped * K, theta, p)


def test_hermitian_check_rejects_asymmetric_output():
    e = haar.cov_p_closed(K, 4)
    e[0, 1] += 1e-6
    assert checks.hermitian(e)


def test_trace_identity_holds_for_mc_and_rejects_scaling():
    rng = linalg.RandomSource(3)
    est = haar.invcov_p_mc(K, 4, 200, rng).estimate
    assert checks.trace_identity(K, est, 4) == []
    assert checks.positive_definite(est) == []
    assert checks.trace_identity(K, 1.01 * est, 4)
    hyb = ewens.hybrid_inverse_mc(K, 2.0, 4, 200, rng.substream(1)).estimate
    assert checks.trace_identity(K, hyb, 4) == []
    assert checks.trace_identity(K, 1.01 * hyb, 4)


def test_positive_definite_check_rejects_indefinite_output():
    assert checks.positive_definite(np.diag([1.0, 2.0, -1e-9]))


def test_spectrum_check_rejects_scaled_and_short_output():
    spec = haar.invcov_spectrum(K, 3, 200, linalg.RandomSource(4))
    assert checks.inverse_spectrum(K, spec.lambdas, spec.mu, 3, 9) == []
    assert checks.inverse_spectrum(K, 1.01 * spec.lambdas, spec.mu, 3, 9)
    assert checks.inverse_spectrum(K, spec.lambdas[:-1], spec.mu, 3, 9)
    assert checks.inverse_spectrum(K, spec.lambdas, -spec.mu, 3, 9)


def test_matrix_csv_round_trip_and_program_output(tmp_path):
    path = tmp_path / "k.csv"
    checks.write_matrix_csv(path, K)
    assert np.array_equal(checks.read_matrix_csv(path), K)
    assert np.array_equal(linalg.load_matrix_csv(path), K)
    linalg.save_matrix_csv(path, 2 * K)
    assert np.array_equal(checks.read_matrix_csv(path), 2 * K)


def test_metrics_mean_check_reads_unquoted_parameters_and_rejects_gaps(tmp_path):
    path = tmp_path / "metrics_mean.csv"
    path.write_text(
        "estimator,parameter,metric,trials,mean,std,valid,reason\n"
        "sample,,fro_direct,1,2.5,0,true,\n"
        "hybrid,theta=10,p=25,fro_direct,1,1.5,0,true,\n"
        "invcovp,p=60,fro_direct,0,,,false,p=60 exceeds rank 50 of K\n"
        "ewens,theta=1,fro_direct,1,nan,0,true,\n"
    )
    assert checks.metrics_mean(path, [("sample", "", "fro_direct"), ("hybrid", "theta=10,p=25", "fro_direct")]) == []
    assert checks.metrics_mean(path, [("hybrid", "theta=10,p=50", "fro_direct")])
    assert checks.metrics_mean(path, [("invcovp", "p=60", "fro_direct")])
    assert checks.metrics_mean(path, [("ewens", "theta=1", "fro_direct")])


def test_verify_report_check_rejects_failed_and_missing_suites(tmp_path):
    path = tmp_path / "report.json"

    def write(passed, suites):
        doc = {
            "passed": passed,
            "suites": [
                {"suite": s, "passed": passed, "checks": [{"name": "c", "passed": passed}]}
                for s in suites
            ],
        }
        path.write_text(json.dumps(doc))

    write(True, ["a", "b"])
    assert checks.verify_report(path, ["a", "b"]) == []
    assert checks.verify_report(path, ["a", "b", "c"])
    write(False, ["a", "b"])
    assert checks.verify_report(path, ["a", "b"])


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds mid [1, 7] and leaf [8, 9]; mid holds leaf [2, 5]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    tracer.recording = True
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())

    def body():
        mid()
        leaf()

    tracer.wrap("outer", body)()
    assert tracer.self_s == {"outer": 10 - 6 - 1, "mid": 6 - 3, "leaf": 3 + 1}
    assert tracer.counts == {"outer.calls": 1, "mid.calls": 1, "leaf.calls": 2}
    assert tracer.spans == [
        ["outer", 0, 10, -1],
        ["mid", 1, 7, 0],
        ["leaf", 2, 5, 1],
        ["leaf", 8, 9, 0],
    ]


def test_self_time_of_a_raising_call_is_recorded():
    tracer = tracing.Tracer(clock=FakeClock([0, 4]))

    def fail():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert tracer.self_s == {"fail": 4}


def test_install_replaces_every_binding_and_uninstall_restores_them():
    original = linalg._pinv_batch_hermitian
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, singcov)
    try:
        assert linalg._pinv_batch_hermitian is not original
        assert ewens._pinv_batch_hermitian is linalg._pinv_batch_hermitian
        assert haar.sample_haar_stiefel_batch is linalg.sample_haar_stiefel_batch
        assert singcov.sample_haar_stiefel_batch is linalg.sample_haar_stiefel_batch
        est = haar.invcov_p_mc(K, 4, 100, linalg.RandomSource(5))
        assert tracer.counts["haar.invcov_p_mc.calls"] == 1
        assert tracer.counts["linalg.sample_haar_stiefel_batch.draws"] == 100 + est.rejected
        assert tracer.counts["linalg.WelfordAccumulator.add_batch.bytes"] == 100 * 12 * 12 * 16
        assert tracer.self_s["haar.invcov_p_mc"] > 0
    finally:
        tracing.uninstall(undo)
    assert linalg._pinv_batch_hermitian is original
    assert ewens._pinv_batch_hermitian is original
    assert "add_batch" in vars(linalg.WelfordAccumulator)
    assert not hasattr(linalg.WelfordAccumulator.add_batch, "__wrapped__")
