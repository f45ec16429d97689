"""What a benchmark job is, and the checks shared by the workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


@dataclass
class Job:
    """One unit of timed work and the check of its outputs.

    ``run`` makes only the program's calls and is what the benchmark
    times; ``check`` compares its result with values computed apart
    from the program and raises ``Mismatch``.  ``known_fault`` names a
    program fault that makes the job fail on every run; such a job
    counts as failed without making the run incorrect.
    """

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: str | None = None


def expect(condition, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def expect_close(got, want, what: str, atol: float = 1e-9, rtol: float = 0.0) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape}, expected {want.shape}")
    if not np.allclose(got, want, atol=atol, rtol=rtol):
        worst = float(np.max(np.abs(got - want)))
        raise Mismatch(f"{what}: off by {worst:.3e}")


def match_rows(rows, reference, what: str, atol: float) -> None:
    """Every row of ``rows`` equals a distinct row of ``reference``."""
    rows = np.asarray(rows)
    reference = np.asarray(reference)
    expect(rows.shape == reference.shape, f"{what}: shape {rows.shape}, expected {reference.shape}")
    used = set()
    for r, row in enumerate(rows):
        dist = np.max(np.abs(reference - row[None, :]), axis=1)
        m = int(np.argmin(dist))
        if dist[m] > atol or m in used:
            raise Mismatch(f"{what}: row {r} matches no unused reference row ({dist[m]:.3e})")
        used.add(m)


def weights_of(lam: np.ndarray, unit: int, involution) -> np.ndarray:
    """``mu_i = 1 / lam[i, inv(i), unit]`` read straight off a table."""
    return np.array([1.0 / lam[i, involution[i], unit] for i in range(lam.shape[0])])
