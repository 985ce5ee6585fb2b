"""Spans around the program's layer boundaries, for the traced run.

``install`` replaces each traced public function with a wrapper, in its
own module and in every ``conicline`` module that re-bound the name on
import (``catalog.simplify``, ``invariants.simplify``, ``cli.compare``,
...), so calls between layers are seen as well as calls from the
benchmark.  A span records its name, its parent span, start and end;
counts are taken from the same calls.  Words, braids and presentations
are helpers: their time stays in the self time of the layer that called
them.
"""

import math
import sys
import time
from collections import defaultdict

# Span name -> per-layer metric of its self time.
SELF_TIME_METRICS = {
    "cli.main": "cli.main_s",
    "catalog.verify": "catalog.verify_s",
    "tracker.parse": "tracker.parse_s",
    "tracker.singular_x": "tracker.singular_x_s",
    "tracker.track": "tracker.track_s",
    "van_kampen.present": "van_kampen.present_s",
    "van_kampen.assemble": "van_kampen.assemble_s",
    "tietze.simplify": "tietze.simplify_s",
    "invariants.abelianization": "invariants.abelianization_s",
    "invariants.count_homs.S3": "invariants.count_homs_s.S3",
    "invariants.count_homs.S4": "invariants.count_homs_s.S4",
    "invariants.compare": "invariants.compare_s",
    "invariants.bigness": "invariants.bigness_s",
}

# Counts kept per pass, all starting at zero.
COUNT_METRICS = (
    "catalog.passed",
    "tracker.samples", "tracker.refinements", "tracker.letters",
    "van_kampen.relators", "van_kampen.relator_len",
    "tietze.calls", "tietze.moves", "tietze.exhausted", "tietze.out_len",
    "invariants.hom_space.S3", "invariants.hom_space.S4",
    "invariants.homs.S3", "invariants.homs.S4",
    "invariants.verdict.equivalent", "invariants.verdict.distinct",
    "invariants.verdict.inconclusive",
)


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self._stack = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.min_gap = math.inf

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span named ``name`` (or ``name(args)``)."""
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name,
                    self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def self_times(self):
        """Self time per span name: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def top_level_time(self):
        return sum(end - start for _, parent, start, end in self.spans
                   if parent < 0)


# -- counts taken at the boundaries ----------------------------------------

def _count_verify(tracer, args, report):
    tracer.counts["catalog.passed"] += bool(report.passed)


def _count_track(tracer, args, tb):
    c = tracer.counts
    c["tracker.samples"] += args[1].samples
    c["tracker.refinements"] += tb.refinements
    c["tracker.letters"] += len(tb.braid.letters)
    tracer.min_gap = min(tracer.min_gap, tb.min_gap)


def _count_present(tracer, args, p):
    tracer.counts["van_kampen.relators"] += len(p.relators)
    tracer.counts["van_kampen.relator_len"] += sum(map(len, p.relators))


def _count_simplify(tracer, args, res):
    c = tracer.counts
    c["tietze.calls"] += 1
    c["tietze.moves"] += len(res.trace)
    c["tietze.exhausted"] += bool(res.exhausted)
    c["tietze.out_len"] += sum(map(len, res.presentation.relators))


def _count_homs(tracer, args, n):
    p, table = args[0], args[1]
    if table.name in ("S3", "S4"):
        tracer.counts[f"invariants.hom_space.{table.name}"] += \
            table.size ** p.ngen
        tracer.counts[f"invariants.homs.{table.name}"] += n


def _count_verdict(tracer, args, verdict):
    tracer.counts[f"invariants.verdict.{verdict.kind}"] += 1


def _homs_span(args):
    return f"invariants.count_homs.{args[1].name}"


def install(tracer):
    """Wrap the traced functions wherever a ``conicline`` module binds them."""
    from conicline import (catalog, cli, invariants, tietze, tracker,
                           van_kampen)
    traced = [
        (cli.main, "cli.main", None),
        (catalog.verify, "catalog.verify", _count_verify),
        (tracker.singular_x_values, "tracker.singular_x", None),
        (tracker.track, "tracker.track", _count_track),
        (van_kampen.present, "van_kampen.present", _count_present),
        (van_kampen.assemble, "van_kampen.assemble", None),
        (tietze.simplify, "tietze.simplify", _count_simplify),
        (invariants.abelianization, "invariants.abelianization", None),
        (invariants.count_homs, _homs_span, _count_homs),
        (invariants.compare, "invariants.compare", _count_verdict),
        (invariants.bigness_certificate, "invariants.bigness", None),
    ]
    modules = [m for k, m in sys.modules.items()
               if k == "conicline" or k.startswith("conicline.")]
    for fn, name, count in traced:
        wrapper = tracer.wrap(name, fn, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
    parse = tracker.CurvePoly.__dict__["parse"].__func__
    tracker.CurvePoly.parse = classmethod(
        tracer.wrap("tracker.parse", parse))
