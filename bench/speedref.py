"""A fixed reference job that measures how fast the machine runs right now.

The benchmark's host is shared: the same CLI command on the same inputs
takes up to half as long again when neighbours are busy, CPU time moving
with wall time, and such spells last from seconds to minutes.  ``probe``
times a fixed job of the same kinds of work the program does (token-level
dynamic programming, dict counting over strings, small dense numpy
products), in the benchmark's own process.  A step's time divided by the
probe's time next to it, times ``REFERENCE_S``, is the step's time at
reference speed.  The job is part of the benchmark, not of the program, so
a change to the program moves the step's time but never the probe.
"""

from __future__ import annotations

import time

import numpy as np

# median probe time on the reference machine (2 vCPU shared VM), so that
# times at reference speed read as seconds there
REFERENCE_S = 0.045

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((96, 96)) * 0.1
_WORDS = [f"w{i % 311}" for i in range(4000)]
_SEQ_A = tuple(_WORDS[i * 7 % 997] for i in range(60))
_SEQ_B = tuple(_WORDS[i * 11 % 997] for i in range(60))


def _edit_distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        prev, row[0] = row[0], i
        for j, y in enumerate(b, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (x != y))
    return row[-1]


def _counts() -> int:
    counts: dict[tuple[str, str], int] = {}
    for u, v in zip(_WORDS, _WORDS[1:]):
        counts[u, v] = counts.get((u, v), 0) + 1
    return len(counts)


def _dense() -> float:
    x = _MATRIX
    for _ in range(30):
        x = np.tanh(x @ _MATRIX)
    return float(x.sum())


def job() -> None:
    for _ in range(12):
        _edit_distance(_SEQ_A, _SEQ_B)
        _counts()
        _dense()


def probe() -> float:
    """Seconds the reference job takes now.  One timing of the whole job,
    not a median of short ones: a brief stall slows the program's steps as
    much as it slows the job."""
    start = time.perf_counter()
    job()
    return time.perf_counter() - start
