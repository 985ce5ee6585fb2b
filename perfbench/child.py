"""One pass of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py WORKLOAD TRACE < inputs.json``
(TRACE is 0 or 1), or ``python3 perfbench/child.py import`` to time the
import alone.  Prints one JSON line: the time taken by
``import conicline.cli``, the pass time, each both as measured and
rescaled to the reference speed (see ``refspeed.py``), the peak resident
memory, the answer-check counts and, when traced, the spans' self times
and counts.
"""

import json
import os
import resource
import sys

import refspeed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main(argv):
    sys.path.insert(0, SRC)
    # the set-up every CLI call pays
    _, import_s, import_ref_s = refspeed.timed_import(
        lambda: __import__("conicline.cli"))
    if argv == ["import"]:
        print(json.dumps({"import_s": import_s, "import_ref_s": import_ref_s}))
        return 0
    workload, trace = argv[0], argv[1] == "1"

    import tracing
    import workloads

    inputs = json.load(sys.stdin)
    ops = workloads.decode(workload, inputs)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    clock = refspeed.RefClock(workloads.SPEED_EXPONENT[workload])
    outputs = workloads.run_pass(workload, ops, clock.tick)
    clock.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, reasons = workloads.check(workload, inputs, outputs)
    result = {"import_s": import_s, "import_ref_s": import_ref_s,
              "pass_s": clock.raw_s, "pass_ref_s": clock.ref_s,
              "peak_rss_mb": rss_kb / 1024, "attempted": attempted,
              "failed": failed, "reasons": reasons[:5]}
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counted_s"] = tracer.top_level_time()
        result["counts"] = tracer.counts
        result["min_gap"] = (tracer.min_gap if tracer.min_gap != float("inf")
                             else 0.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
