"""Compare two revisions on one benchmark workload, in alternating pairs.

    python3 tools/bench_pairs.py <parent-rev> <change-rev> --workload <w> --pairs <n>

Exports both revisions with ``git archive`` into a temporary directory
outside the repository, and runs ``perfbench/run.py --workload <w> --seed
<s> --seconds 20 --trace 0`` in each copy, one run at a time. Pair i runs
both copies on the seed ``FIRST_SEED + i``; the parent runs first in the
even pairs and the change in the odd ones, so a drift of the machine's
speed does not favour one side. A run that fails, or whose outputs fail
perfbench's checks, stops the script.

Prints one JSON object: the revisions, each pair's end-to-end metrics, and
for every metric the median and quartiles of either side and the number of
pairs in which the change read lower. Progress goes to standard error. The
temporary directory is removed at the end, and no file is written in the
repository.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

from bench_record import ROOT, SECONDS, WORKLOADS, _git, run_workload

FIRST_SEED = 201
SIDES = ("parent", "change")


def export(rev: str, dest: str):
    """The tree of ``rev``, written under ``dest`` by ``git archive``."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def summarize(pairs: list) -> dict:
    """Per metric of ``pairs`` (each ``{"parent": metrics, "change":
    metrics}``, metrics as perfbench prints them): the unit, the median and
    the quartiles of either side, and ``lower_in``, the count of pairs in
    which the change read lower, as ``"k of n"``."""
    summary = {}
    for name, first in pairs[0]["parent"].items():
        values = {side: [p[side][name]["value"] for p in pairs] for side in SIDES}
        lower = sum(c < a for a, c in zip(values["parent"], values["change"]))
        summary[name] = {"unit": first["unit"]}
        for side in SIDES:
            q1, median, q3 = np.percentile(values[side], [25, 50, 75])
            summary[name][side] = {"median": median, "quartiles": [q1, q3]}
        summary[name]["lower_in"] = f"{lower} of {len(pairs)}"
    return summary


def compare(parent: str, change: str, workload: str, count: int) -> dict:
    revs = {"parent": _git("rev-parse", parent), "change": _git("rev-parse", change)}
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], roots[side])
        for i in range(count):
            seed = FIRST_SEED + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_workload(workload, seed, roots[side])["metrics"]
            pairs.append(pair)
            values = (
                f"{k} {pair['parent'][k]['value']:.4g} -> {pair['change'][k]['value']:.4g}"
                for k in pair["parent"]
            )
            print(f"pair {i + 1}/{count} seed {seed}: " + ", ".join(values), file=sys.stderr, flush=True)
    return {
        "workload": workload,
        "revisions": revs,
        "command": f"perfbench/run.py --workload {workload} --seed <s> --seconds {SECONDS} --trace 0",
        "pairs": pairs,
        "summary": summarize(pairs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the revision to compare against")
    parser.add_argument("change", help="the revision that claims the change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    print(json.dumps(compare(args.parent, args.change, args.workload, args.pairs), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
