"""Output checks of the benchmark's operations.

Each check compares an output with a computation made here, from the
inputs, or with a property the method must have. None of them compares
with a stored copy of an earlier output. Only numpy is used, so the
checks share no code with the package they check. Every check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

TRACE_RTOL = 1e-8
EXACT_RTOL = 1e-10


def read_matrix_csv(path) -> np.ndarray:
    """Parse the matrix exchange format: ``m=<size>``, then m rows of
    2m fields holding the real and imaginary part of each entry."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("m="):
            raise ValueError(f"{path}: header {header!r} is not 'm=<size>'")
        m = int(header[2:])
        rows = [line.split(",") for line in fh.read().splitlines() if line]
    values = np.array(rows, dtype=float)
    if values.shape != (m, 2 * m):
        raise ValueError(f"{path}: expected {m}x{2 * m} fields, found {values.shape}")
    return values[:, 0::2] + 1j * values[:, 1::2]


def write_matrix_csv(path, a):
    """Write ``a`` in the matrix exchange format with shortest round-trip floats."""
    m = a.shape[0]
    with open(path, "w") as fh:
        fh.write(f"m={m}\n")
        for row in a:
            fh.write(",".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row) + "\n")


def _close(got, want, scale, rtol, what) -> list:
    gap = abs(got - want)
    if not gap <= rtol * scale:
        return [f"{what}: got {got!r}, want {want!r} (gap {gap:.3e}, allowed {rtol * scale:.3e})"]
    return []


def hermitian(e, what="estimate", rtol=1e-12) -> list:
    scale = max(1.0, float(np.abs(e).max()))
    gap = float(np.abs(e - e.conj().T).max())
    if not gap <= rtol * scale:
        return [f"{what} is not Hermitian: max |E - E*| = {gap:.3e}"]
    return []


def trace_identity(k, e, p, what="estimate") -> list:
    """``Tr(K E) = p`` for an average of ``Phi* (Phi K Phi*)^{-1} Phi``:
    each draw contributes ``Tr((Phi K Phi*)(Phi K Phi*)^{-1}) = Tr(I_p)``."""
    t = complex(np.einsum("ij,ji->", k, e))
    problems = _close(t.real, float(p), p, TRACE_RTOL, f"{what} Tr(K E)")
    problems += _close(t.imag, 0.0, p, TRACE_RTOL, f"{what} Im Tr(K E)")
    return problems


def positive_definite(e, what="estimate") -> list:
    low = float(np.linalg.eigvalsh((e + e.conj().T) / 2).min())
    if not low > 0:
        return [f"{what} is not positive definite: smallest eigenvalue {low:.3e}"]
    return []


def ewens_average(k, e) -> list:
    """A permutation average keeps the trace and the sum of all entries."""
    scale = float(np.abs(k).sum())
    problems = hermitian(e, "ewens")
    problems += _close(np.trace(e), np.trace(k), scale, EXACT_RTOL, "ewens trace")
    problems += _close(e.sum(), k.sum(), scale, EXACT_RTOL, "ewens entry sum")
    return problems


def compression_average(k, e, p) -> list:
    """``E(Phi* Phi K Phi* Phi)`` has trace ``(p/m) Tr K`` and commutes with K."""
    m = k.shape[0]
    problems = hermitian(e, "covp")
    problems += _close(
        np.trace(e), p / m * np.trace(k), float(np.abs(k).sum()), EXACT_RTOL, "covp trace"
    )
    gap = np.linalg.norm(e @ k - k @ e)
    allowed = EXACT_RTOL * np.linalg.norm(e) * np.linalg.norm(k)
    if not gap <= allowed:
        problems.append(f"covp does not commute with K: |EK - KE| = {gap:.3e}")
    return problems


def loading(k, e, alpha, beta) -> list:
    want = alpha * k + beta * np.eye(k.shape[0])
    gap = float(np.abs(e - want).max())
    if not gap <= EXACT_RTOL * max(1.0, float(np.abs(want).max())):
        return [f"loading differs from alpha K + beta I by {gap:.3e}"]
    return hermitian(e, "loading")


def hybrid_weights(m, p, theta) -> np.ndarray:
    """Entrywise weights of the injection average, from its documented
    formula: the weight of (i, j) depends on which of i, j lie in the
    head block 0..p-1."""
    d1 = theta + m - 1.0
    d2 = theta + m - 2.0
    head = np.arange(m) < p
    hi, hj = head[:, None], head[None, :]
    w = np.where(
        hi & hj,
        (theta + p - 1.0) * (theta + p - 2.0) / (d1 * d2),
        np.where(hi | hj, (p - 1.0) * (theta + p - 1.0) / (d1 * d2), p * (p - 1.0) / (d1 * d2)),
    )
    np.fill_diagonal(w, np.where(head, (theta + p - 1.0) / d1, p / d1))
    return w


def hybrid(k, e, theta, p) -> list:
    want = hybrid_weights(k.shape[0], p, theta) * k
    gap = float(np.abs(e - want).max())
    if not gap <= EXACT_RTOL * max(1.0, float(np.abs(want).max())):
        return [f"hybrid differs from the weighted K by {gap:.3e}"]
    return hermitian(e, "hybrid")


def numeric_rank(eigenvalues) -> int:
    m = len(eigenvalues)
    tol = m * np.finfo(float).eps * float(np.abs(eigenvalues).max())
    return int((eigenvalues > tol).sum())


def inverse_spectrum(k, lambdas, mu, p, n) -> list:
    """The diagonal-lift average satisfies ``sum_i d_i lambda_i = p`` over
    the nonzero eigenvalues ``d_i`` of K, and every value is positive."""
    d = np.linalg.eigvalsh(k)[::-1]
    rank = numeric_rank(d)
    problems = []
    if rank != n:
        problems.append(f"sample covariance has rank {rank}, want {n}")
    if len(lambdas) != rank:
        return problems + [f"{len(lambdas)} eigenvalue images for rank {rank}"]
    problems += _close(float(np.dot(d[:rank], lambdas)), float(p), p, TRACE_RTOL, "sum d_i lambda_i")
    if not (np.all(np.isfinite(lambdas)) and np.all(lambdas > 0)):
        problems.append("an eigenvalue image is not positive")
    if not (math.isfinite(mu) and mu > 0):
        problems.append(f"mu = {mu!r} is not positive")
    return problems


def read_metrics_mean(path) -> dict:
    """Rows of ``metrics_mean.csv`` keyed by (estimator, parameter, metric).

    The file writes parameters such as ``theta=10,p=25`` without quotes,
    so a row has one field per comma in its parameter beyond the eight
    of the header; the parameter takes the surplus fields.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = {}
        for line in fh.read().splitlines():
            fields = line.split(",")
            tail = len(fields) - (len(header) - 2)
            row = dict(zip(header, [fields[0], ",".join(fields[1:tail])] + fields[tail:]))
            rows[row["estimator"], row["parameter"], row["metric"]] = row
    return rows


def metrics_mean(path, planned) -> list:
    """Every planned ``(estimator, parameter, metric)`` row is present,
    valid and finite in ``metrics_mean.csv``."""
    rows = read_metrics_mean(path)
    problems = []
    for key in planned:
        row = rows.get(key)
        if row is None:
            problems.append(f"row {key} is missing")
        elif row["valid"] != "true":
            problems.append(f"row {key} is invalid: {row['reason']}")
        elif not math.isfinite(float(row["mean"])):
            problems.append(f"row {key} has mean {row['mean']}")
    return problems


def verify_report(path, suites) -> list:
    """The JSON report of ``singcov verify`` passes every named suite."""
    with open(path) as fh:
        doc = json.load(fh)
    seen = {s["suite"]: s for s in doc["suites"]}
    problems = [f"suite {name} did not run" for name in suites if name not in seen]
    for name, suite in seen.items():
        failed = [c["name"] for c in suite["checks"] if not c["passed"]]
        if not suite["passed"] or failed or not suite["checks"]:
            problems.append(f"suite {name} failed: {failed}")
    if not doc["passed"]:
        problems.append("report is not passed")
    return problems
