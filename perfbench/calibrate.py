"""A machine-speed probe, sampled while a batch runs.

On a shared virtual machine the speed of a CPU drifts by up to 1.5x over
seconds to minutes (neighbours on the same host, not steal time), and the
drift shows in CPU time as much as in wall time.  A fixed stdlib-only loop,
timed every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler in the
batch's own thread, tracks that speed; a worker also times it a few times
right after its set-up.  ``reference_seconds`` and ``speed`` turn a time
into the time the same work takes when the probe runs in
``REFERENCE_PROBE_S``: the machine's drift cancels, a change in qhowe's
code does not, because the probe never calls qhowe.
"""

import signal
import statistics
import time

# How often the probe runs, and its duration at the reference speed (about
# its median inside a batch on a 2-vCPU 2.1 GHz Xeon virtual machine with
# Python 3.11, so reference seconds read close to that machine's seconds).
INTERVAL_S = 0.2
REFERENCE_PROBE_S = 0.006
# Probes a worker runs right after its set-up, to scale setup_s; the first
# is a warm-up and is dropped.
SETUP_PROBES = 6


def probe():
    """A few milliseconds of dict, integer and allocation work, the mix
    qhowe's Laurent-polynomial and sparse-matrix code spends its time on."""
    table = {}
    acc = 0
    for i in range(20000):
        key = (i * 7919) % 257
        value = table.get(key, 1)
        table[key] = (value * (i | 1) + acc) % 1000003
        acc += value
    return acc


def time_probe():
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class Sampler:
    """Runs the probe every INTERVAL_S seconds of wall time while started."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(time_probe())

    def start(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def speed(samples):
    """The machine's speed over SAMPLES, relative to the reference: the work
    done in each probe interval is its length over that interval's slowdown."""
    return statistics.fmean(REFERENCE_PROBE_S / s for s in samples)


def reference_seconds(wall_s, samples):
    """WALL_S, less the probes' own time, at the reference speed.  A batch
    too short to hold a probe is returned as measured."""
    if not samples:
        return wall_s
    return (wall_s - sum(samples)) * speed(samples)


def setup_probes():
    return [time_probe() for _ in range(SETUP_PROBES)][1:]
