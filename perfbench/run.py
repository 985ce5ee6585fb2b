"""Benchmark of the conicline pipeline: monodromy, presentation, invariants.

Usage::

    python3 perfbench/run.py --workload {catalog,tangency,homs,tracker}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  This process makes the workload's
inputs from the seed, then runs passes as a closed loop with one client: each
pass is a fresh interpreter (``perfbench/child.py``) that imports
``conicline.cli``, runs the workload once and checks every answer, and
the next pass starts only when it has exited.  Fresh interpreters matter
because the program keeps process-wide caches (hom counts, group tables)
that every CLI call pays for cold.  New passes start until ``--seconds``
is used up, with at least three passes.

``--trace 0`` prints the end-to-end metrics: the median pass time
``wall_s``, the import time ``setup_s``, the median peak RSS of a pass
and the share of operations answered correctly.  ``wall_s`` and
``setup_s`` are rescaled to a reference processor speed, measured by a
calibration loop in the same child around each timed stretch, to the
power of how strongly the timed code follows that speed (see
``refspeed.py``), because the host's shared cores change speed by up to
twice for seconds to minutes at a time; the times as measured
(``wall_s.raw``, ``setup_s.raw``) and the tail of the pass times are
printed beside them but left out of the JSON.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer self
times and counts (see ``tracing.py``) plus import-time splits taken with
``python -X importtime``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("catalog", "tangency", "homs", "tracker")
MIN_PASSES = 3
SETUP_REPEATS = 3        # import-only interpreters added to setup_s samples
IMPORTTIME_REPEATS = 3
RUN_LIMIT_S = 170        # a run must end well within 180 s
TAIL_BEYOND = 10         # passes that must lie beyond the tail percentile

def _python(args, timeout, payload=None):
    """Run a fresh interpreter; returns the completed process or None."""
    try:
        return subprocess.run([sys.executable, *args], input=payload,
                              capture_output=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None


def _last_json(proc):
    if proc is None or proc.returncode != 0:
        return None
    lines = proc.stdout.decode().strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def import_time(timeout):
    """``{"import_s", "import_ref_s"}`` of a fresh interpreter's
    ``import conicline.cli``."""
    proc = _python([CHILD, "import"], timeout)
    result = _last_json(proc)
    if result is None:
        raise RuntimeError("import conicline.cli failed: "
                           + (proc.stderr.decode()[-500:] if proc else
                              "timed out"))
    return result


def import_split(timeout):
    """``(scipy_s, conicline_s)`` from ``python -X importtime``.

    ``conicline_s`` is the cumulative import of ``conicline.cli``;
    ``scipy_s`` sums every scipy subtree that a non-scipy module opened.
    """
    proc = _python(["-X", "importtime", "-c",
                    f"import sys; sys.path.insert(0, {SRC!r}); "
                    "import conicline.cli"], timeout)
    if proc is None or proc.returncode != 0:
        raise RuntimeError("python -X importtime failed")
    rows = []
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue          # the header line
        raw = parts[2][1:]
        rows.append(((len(raw) - len(raw.lstrip())) // 2, raw.strip(),
                     cumulative / 1e6))
    scipy_s, conicline_s, stack = 0.0, 0.0, []
    for depth, name, cumulative in reversed(rows):   # parents first
        del stack[depth:]
        parent = stack[-1] if stack else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cumulative
        if name == "conicline.cli":
            conicline_s = cumulative
        stack.append(name)
    return scipy_s, conicline_s


def run_passes(workload, payload, seconds, trace, deadline,
               min_passes=MIN_PASSES):
    """Closed loop of passes; returns each pass's result (None if lost).

    With ``trace`` the passes alternate untraced and traced; a result's
    ``traced`` key says which.
    """
    start = time.perf_counter()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        timeout = deadline - t0
        if timeout <= 0:
            break
        result = _last_json(_python([CHILD, workload, "1" if traced else "0"],
                                    timeout, payload))
        if result is not None:
            result["traced"] = traced
        passes.append(result)
        if (len(passes) >= min_passes
                and time.perf_counter() - start >= seconds):
            break
    return passes


def tail(values):
    """``(value, percentile, beyond)``: the highest percentile of
    ``values`` with ``TAIL_BEYOND`` values above it.

    That needs ``2 * TAIL_BEYOND + 1`` values.  With fewer, one value
    fewer lies beyond it per missing value, down to the maximum at
    ``TAIL_BEYOND + 1`` values or fewer, so the tail never jumps between
    the ends of the sample as the pass count changes.
    """
    v = sorted(values)
    beyond = min(TAIL_BEYOND, max(len(v) - 1 - TAIL_BEYOND, 0))
    k = len(v) - 1 - beyond
    return v[k], 100.0 * (k + 1) / len(v), beyond


def _tally(n_ops, passes):
    attempted = failed = 0
    for p in passes:
        if p is None:            # a lost pass fails all its operations
            attempted += n_ops
            failed += n_ops
        else:
            attempted += p["attempted"]
            failed += p["failed"]
    return attempted, failed


def end_to_end(passes, setup_samples):
    ok = [p for p in passes if p is not None]
    imports = setup_samples + ok
    times = [p["pass_ref_s"] for p in ok]
    value, pct, beyond = tail(times)
    metrics = {
        "wall_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(p["import_ref_s"] for p in imports),
                    "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in ok),
                        "MB"),
    }
    # Printed, not gated: the raw times follow the host's speed, and with
    # the few passes a run holds the tail drifts between runs by more
    # than any bound allowed.
    note = {
        "wall_s.raw": f"{statistics.median(p['pass_s'] for p in ok):.6g} s",
        "setup_s.raw":
            f"{statistics.median(p['import_s'] for p in imports):.6g} s",
        "wall_s.tail": f"{value:.6g} s (p{pct:.0f} of {len(times)} passes, "
                       f"{beyond} beyond)"}
    return metrics, note


def per_layer(passes, splits):
    traced = [p for p in passes if p is not None and p["traced"]]
    plain = [p for p in passes if p is not None and not p["traced"]]
    k = len(traced)

    def mean(get):
        return sum(get(p) for p in traced) / k

    m = {"setup.import_s.scipy": (statistics.median(s for s, _ in splits),
                                  "s"),
         "setup.import_s.conicline": (statistics.median(c for _, c in splits),
                                      "s")}
    for span, name in tracing.SELF_TIME_METRICS.items():
        m[name] = (mean(lambda p: p["self_s"].get(span, 0.0)), "s")
    for name in tracing.COUNT_METRICS:
        m[name] = (mean(lambda p: p["counts"][name]), "count")
    gaps = [p["min_gap"] for p in traced if p["counts"]["tracker.samples"]]
    m["tracker.min_gap"] = (min(gaps) if gaps else 0.0, "distance")

    def ratio(a, b):
        return m[a][0] / m[b][0] if m[b][0] else 0.0

    m["tracker.refine_ratio"] = (ratio("tracker.refinements",
                                       "tracker.samples"), "ratio")
    m["tietze.s_per_move"] = (ratio("tietze.simplify_s", "tietze.moves"),
                              "s")
    m["invariants.hom_yield.S4"] = (ratio("invariants.homs.S4",
                                          "invariants.hom_space.S4"), "ratio")
    wall = mean(lambda p: p["pass_s"])
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (
        statistics.median(p["pass_ref_s"] for p in traced)
        - statistics.median(p["pass_ref_s"] for p in plain), "s")
    m["trace.unattributed_frac"] = (
        (wall - mean(lambda p: p["counted_s"])) / wall, "ratio")
    return m


def measure(workload, inputs, n_ops, seconds, trace, min_passes=MIN_PASSES,
            started=None):
    """Run one benchmark run on prepared inputs; returns the result dict
    (the JSON printed last) and human-readable notes."""
    started = time.perf_counter() if started is None else started
    deadline = started + RUN_LIMIT_S
    payload = json.dumps(inputs).encode()
    if trace:
        splits = [import_split(deadline - time.perf_counter())
                  for _ in range(IMPORTTIME_REPEATS)]
    else:
        setup = [import_time(deadline - time.perf_counter())
                 for _ in range(SETUP_REPEATS)]
    passes = run_passes(workload, payload, seconds, trace, deadline,
                        min_passes)
    attempted, failed = _tally(n_ops, passes)
    kinds = {p["traced"] for p in passes if p is not None}
    if kinds != ({False, True} if trace else {False}):
        raise RuntimeError("no pass of the workload completed")
    if trace:
        metrics, note = per_layer(passes, splits), {}
    else:
        metrics, note = end_to_end(passes, setup)
        metrics["ops_ok_frac"] = (1 - failed / attempted, "ratio")
    note["ops_failed_frac"] = f"{failed / attempted:.6g} ({failed} of " \
                              f"{attempted} operations)"
    note["passes"] = " ".join(f"{p['pass_ref_s']:.4g}" if p else "lost"
                              for p in passes)
    reasons = [r for p in passes if p is not None for r in p["reasons"]]
    if reasons:
        note["first failures"] = "; ".join(reasons[:3])
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, note


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conicline", "cli.py")):
        print(f"error: no conicline sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    result, note = measure(args.workload, inputs,
                           workloads.op_count(args.workload, inputs),
                           args.seconds, bool(args.trace), started=started)
    for name, m in result["metrics"].items():
        print(f"{args.workload:9} {name:32} {m['value']:.6g} {m['unit']}")
    for key in ("wall_s.raw", "setup_s.raw", "wall_s.tail", "ops_failed_frac",
                "passes", "first failures"):
        if key in note:
            print(f"{args.workload:9} {key:32} {note[key]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
