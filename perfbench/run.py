"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload play --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
next to this directory, never from an installed copy. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` prints the per-layer
metrics and writes the spans to ``perfbench/out/``. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the exit code is 0 when every check passed, 1 when one failed and 2
when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["play", "analyze", "oracle"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_program():
    """Import powerpaint from ``src/`` of this checkout, then the bench.
    Returns (workloads module, CPU seconds of the powerpaint import), or
    exits 2 if the program is missing or would come from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    t0 = time.process_time()
    try:
        import powerpaint
    except ImportError as exc:
        print(f"error: cannot import powerpaint from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    import_s = time.process_time() - t0
    found = os.path.abspath(powerpaint.__file__)
    if not found.startswith(os.path.join(src, "")):
        print(f"error: powerpaint imported from {found}, not {src}", file=sys.stderr)
        sys.exit(2)
    from perfbench import workloads
    return workloads, import_s


def run(workloads, workload, seed, seconds, trace, tiny=False, import_s=0.0):
    """Run one workload; returns (result dict, Run). ``import_s`` is
    added to the set-up time."""
    r = workloads.Run(workload, seed, seconds, trace, tiny)
    workloads.RUNNERS[workload](r)
    if trace:
        values = workloads.per_layer_metrics(r)
        units = dict(workloads.PER_LAYER)
    else:
        values = workloads.end_to_end_metrics(r, import_s)
        units = dict(workloads.END_TO_END)
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, r


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, import_s = import_program()
    result, r = run(workloads, args.workload, args.seed, args.seconds,
                    args.trace, import_s=import_s)
    if args.trace:
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        r.tracer.write(os.path.join(
            out, f"{args.workload}-seed{args.seed}.spans.tsv.gz"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
