"""Shows that the answer checks catch wrong results.

Usage: ``python3 perfbench/selfcheck.py [--seed N]``

For each workload, corrupts one expected answer in the generated inputs,
runs a single pass through the same code as ``run.py`` and requires that
the run reports ``correct: false`` and a share of failed operations
above zero.  Exits 0 when every corruption was caught, 1 otherwise.
"""

import argparse
import sys

import run


def corrupt(workload, inputs):
    """Change one expected answer; returns a description of the change."""
    if workload == "catalog":
        inputs["expect"]["passed"] += 1
        return "verify-paper expected to pass one more entry"
    if workload == "tangency":
        inputs["expect"]["S3"]["7"] += 1
        return "S3 hom count of n=7 off by one"
    if workload == "homs":
        inputs["expect"]["S4"]["5"] += 1
        return "S4 hom count of n=5 off by one"
    loop = inputs["loops"][0]
    loop["expect"]["letters"] = [-a for a in loop["expect"]["letters"]]
    return f"{loop['name']} expected to give the mirror braid"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, run.SRC)
    import workloads
    caught = True
    for w in run.WORKLOADS:
        inputs = workloads.make_inputs(w, args.seed)
        what = corrupt(w, inputs)
        result, note = run.measure(w, inputs, workloads.op_count(w, inputs), 0,
                                   False, min_passes=1)
        ok = (not result["correct"] and result["failed"] > 0
              and result["metrics"]["ops_ok_frac"]["value"] < 1)
        caught &= ok
        print(f"{w:9} {what}: ops_failed_frac {note['ops_failed_frac']} "
              f"-> {'caught' if ok else 'MISSED'}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
