"""Shared fixtures plus the acceptance-suite summary hook."""

import re
import threading
import time

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
    on ``rng`` in chunks of at most ``size`` draws (``haar._round_plan``):
    chunk j draws from its own stream (``haar._chunk_streams``) and redraws
    its rejected draws from the rest of that stream until it keeps its quota.
    ``chunk(b, stream)`` makes b draws and returns how many of them it keeps."""
    stream = haar._chunk_streams(rng)
    for j, quota in enumerate(haar._round_plan(samples, size)):
        own, kept = stream(j), 0
        while kept < quota:
            kept += chunk(quota - kept, own)


class ChunkCensus:
    """Counts the chunks of every ``haar._monte_carlo`` run once installed:
    ``threads`` holds the names of the threads that ran a chunk and ``most``
    the most chunks that ran at once. Each chunk sleeps ``pause`` seconds
    first, so chunks that may overlap do."""

    def __init__(self, monkeypatch, pause=0.002):
        self.lock = threading.Lock()
        self.running = self.most = 0
        self.threads = set()
        monte_carlo = haar._monte_carlo

        def counted(samples, rng, chunk, *held):
            def counting(b, stream, acc):
                with self.lock:
                    self.running += 1
                    self.most = max(self.most, self.running)
                    self.threads.add(threading.current_thread().name)
                try:
                    time.sleep(pause)
                    return chunk(b, stream, acc)
                finally:
                    with self.lock:
                        self.running -= 1

            return monte_carlo(samples, rng, counting, *held)

        monkeypatch.setattr(haar, "_monte_carlo", counted)


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
