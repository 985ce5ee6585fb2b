"""Processor speed at the moment, for rescaling times to a reference speed.

The benchmark's host shares its cores: for seconds to minutes at a time
the same pure-Python code runs up to twice as slowly, with no steal time
and with process CPU time tracking wall time, so timing the program
alone measures the neighbours.  ``calibrate`` times a fixed piece of
pure-Python work (tuples, a dict, a list; no ``conicline`` code, so no
change to the program moves it) with the garbage collector paused.
``RefClock`` times a pass in segments, calibrating between them, and
rescales each segment to the speed at which the calibration takes
``REF_S``: ``ref = raw * (REF_S / calibration) ** exponent``, with the
mean of the calibrations just before and just after the segment.  The
exponent is how strongly the timed code follows the host's speed: the
slope of log(time) against log(calibration time) over passes that met
both host states.  Code that waits on memory slows less than the
interpreter loop of the calibration, so the exponent is below 1 for
every workload (see ``workloads.SPEED_EXPONENT``).  The calibration time
itself is not part of either sum.
"""

import gc
import time

CALIBRATION_STEPS = 15000
CALIBRATION_REPEATS = 3
# Calibration time at the reference speed: the fast state of a 2-vCPU
# Intel Xeon host (2.1 GHz), where it takes 3.6-3.9 ms (6.2-7.0 ms in the
# slow state), so rescaled times read close to the wall times measured
# there when nothing contends for the cores.
REF_S = 0.0037
# ``import conicline.cli`` is mostly the dynamic loader, unmarshalling
# and the C initialisers of numpy and scipy: over 60 fresh interpreters
# that met both host states its slope was 0.48 (a fixed module body
# unmarshalled and executed slowed as much as the calibration, so it is
# no closer a reference).
IMPORT_EXPONENT = 0.5
SEGMENT_S = 0.25   # a segment closes at the first tick after this long


def _work(steps):
    d = {}
    acc = []
    for i in range(steps):
        w = (i % 7, -(i % 5), i % 3)
        d[w] = d.get(w, 0) + 1
        if w[0] > w[2]:
            acc.append(w[1])
    return len(d) + len(acc)


def calibrate():
    """Median seconds of ``CALIBRATION_REPEATS`` runs of the fixed work,
    with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = time.perf_counter()
            _work(CALIBRATION_STEPS)
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    # No ``statistics`` import: it would load modules (``fractions``,
    # ``decimal``) whose import the set-up time must still include.
    return sorted(times)[len(times) // 2]


def rescale(raw, before, after, exponent):
    """``raw`` seconds at the reference speed, given the calibrations
    taken just before and just after them."""
    return raw * (REF_S / ((before + after) / 2)) ** exponent


def timed_import(fn):
    """``(result, raw_s, ref_s)`` of ``fn()``, an import."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, rescale(raw, before, calibrate(), IMPORT_EXPONENT)


class RefClock:
    """Raw and rescaled time of a pass, taken in calibrated segments.

    Call ``tick`` between operations and ``stop`` at the end.
    """

    def __init__(self, exponent):
        self.exponent = exponent
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._cal = calibrate()
        self._start = time.perf_counter()

    def tick(self, force=False):
        elapsed = time.perf_counter() - self._start
        if elapsed < SEGMENT_S and not force:
            return
        cal = calibrate()
        self.raw_s += elapsed
        self.ref_s += rescale(elapsed, self._cal, cal, self.exponent)
        self._cal = cal
        self._start = time.perf_counter()

    def stop(self):
        self.tick(force=True)
