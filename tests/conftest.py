"""Shared fixtures plus the acceptance-suite summary hook."""

import re

import numpy as np
import pytest

from singcov import RandomSource, haar
from singcov.linalg import hermitize


def random_hermitian(m, seed, scale=1.0):
    g = RandomSource(seed).generator
    z = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
    return hermitize(scale * (z + z.conj().T) / 2)


def random_psd(m, rank, seed, scale=1.0):
    g = RandomSource(seed).generator
    z = g.standard_normal((m, rank)) + 1j * g.standard_normal((m, rank))
    return hermitize(scale * z @ z.conj().T / rank)


def replay_chunks(samples, size, rng, chunk):
    """Replay the chunk plan of a Monte Carlo run of ``samples`` accepted draws
    on ``rng`` in chunks of at most ``size`` draws: rounds of chunks
    (``haar._round_plan``) until ``samples`` draws are kept, chunk j of the run
    drawing from its own stream (``haar._chunk_streams``). ``chunk(b, stream)``
    makes one chunk's b draws and returns how many of them it keeps."""
    stream = haar._chunk_streams(rng)
    kept = j = 0
    while kept < samples:
        for b in haar._round_plan(samples - kept, size):
            kept += chunk(b, stream(j))
            j += 1


@pytest.fixture
def rng():
    return RandomSource(20240817)


_ACCEPT = re.compile(r"test_acceptance\.py::test_c(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, in criterion order."""
    lines = {}
    for status, word in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, ()):
            match = _ACCEPT.search(getattr(report, "nodeid", ""))
            if match:
                number = int(match.group(1))
                label = match.group(2).replace("_", " ")
                lines[number] = f"criterion {number:02d} {word}  {label}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])
