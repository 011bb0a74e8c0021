"""Host-speed probes: two fixed computations made by the benchmark's own
code, timed next to every measured call of the program.

A small shared host does not run at one speed: other tenants come and go,
and the same single-row request takes 0.21 ms in one second and 0.41 ms a
few seconds later.  The probes slow down and speed up with it, while the
ratio of a program timing to the probe next to it stays nearly constant.
So each timing is reported at one reference speed of the host,

    reported = measured * REFERENCE[kind] / probe(kind),

where ``probe(kind)`` is the median probe time taken right before and
right after the measured call, and ``REFERENCE[kind]`` is that probe's
time on the 2-vCPU host the benchmark was set up on, in its common speed.
The probes touch nothing of the program under test, so a change to the
program moves the reported figure by the same share as the measured one.

- ``request``: a chain of 30 2x2 complex rotations, one numpy call at a
  time.  Per-call overhead, like a single-row request through a network;
  short enough to run before every request.
- ``mixed``: a chain of 150 such rotations, then elementwise cos, sin
  and complex products on a 2100 x 8 array.  Set-up, training, pruning, scoring and
  read-out mix per-call overhead with array work, and the host's fast
  spells speed up the first more than the second.  README.md gives the
  spreads with and without this scaling.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE = {"request": 140e-6, "mixed": 3.5e-3}  # seconds
RUNS = 3                                         # probe runs per side

_ANGLES = 0.01 * np.arange(150)
_Z = np.exp(1j * np.linspace(0.0, 3.0, 2100 * 8)).reshape(2100, 8)


def _rotations(angles) -> None:
    v = np.array([1.0 + 0j, 0.0])
    for a in angles:
        c, s = np.cos(a), np.sin(a)
        v = np.array([[c, -1j * s], [-1j * s, c]]) @ v


def _request() -> None:
    _rotations(_ANGLES[:30])


def _mixed() -> None:
    _rotations(_ANGLES)
    z = _Z
    for i in range(6):
        z = z * np.cos(z.real * (i + 1)) + np.sin(z.imag)
    float(np.abs(z).sum())


_PROBES = {"request": _request, "mixed": _mixed}


def probe(kind: str, runs: int = RUNS) -> list:
    """Seconds of each of ``runs`` runs of probe ``kind``."""
    fn = _PROBES[kind]
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def timed(kind: str, fn, *args, **kwargs):
    """Call ``fn`` between two sets of probes of ``kind``.  Returns
    (result, measured seconds, seconds at the reference speed)."""
    before = probe(kind)
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    seconds = time.perf_counter() - t0
    return out, seconds, at_reference(kind, seconds, before + probe(kind))


def at_reference(kind: str, seconds: float, probes) -> float:
    """``seconds`` scaled to the reference speed by the median of
    ``probes``, the probe times taken around the measured work."""
    return seconds * REFERENCE[kind] / statistics.median(probes)
