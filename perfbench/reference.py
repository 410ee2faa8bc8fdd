"""A fixed reference computation that tracks the host's current speed.

The benchmark's host is a few cores of a shared machine whose speed drifts
by up to ~1.7x over seconds to minutes, and CPU time drifts with wall time,
so a bare wall-clock median depends on when a run happened. Each repetition
therefore times this reference just before and just after the timed
`driftclust cluster` call, in the same process, and every end-to-end time
is reported rescaled to NOMINAL_S:

    reported = wall * NOMINAL_S / mean(reference before, reference after)

A reported time is the wall time the run would have taken on a host where
the reference takes NOMINAL_S (about its median on the 2-vCPU Xeon host the
benchmark was tuned on); the raw wall times and reference times stay in the
run record. The reference is the benchmark's own code, independent of
driftclust, so a change to the package moves the reported times exactly as
it moves wall time at a fixed host speed. It mixes a pure-Python integer
loop and single-threaded numpy matrix work because the workloads spend
their time in both.
"""

import time

import numpy as np

NOMINAL_S = 0.25
PY_ITERS = 1_000_000
NP_SIDE = 400
NP_ROUNDS = 40


def _python_loop():
    total = 0
    for i in range(PY_ITERS):
        total += i * i % 7
    return total


def _numpy_rounds(a, rounds):
    x = a
    for _ in range(rounds):
        x = np.tanh(a @ x * 0.01)
    return x


def measure():
    """Wall seconds of one pass of the reference, after a short warm-up."""
    a = np.random.default_rng(0).standard_normal((NP_SIDE, NP_SIDE))
    _numpy_rounds(a, 1)
    start = time.perf_counter()
    _python_loop()
    _numpy_rounds(a, NP_ROUNDS)
    return time.perf_counter() - start


def rescale(wall_s, before_s, after_s):
    """`wall_s` at the host speed where the reference takes NOMINAL_S."""
    return wall_s * NOMINAL_S / ((before_s + after_s) / 2)
