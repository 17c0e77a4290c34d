"""Benchmark of trifvm: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload coupled_plates --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout; trifvm is imported from its src/.  With
--trace 0 the last line of standard output holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run.  The line before it
records the machine, the revision, the source size and a host probe.
Everything else a run writes goes under perfbench/results/.  The exit code
is 2, with no result, when the checkout has no trifvm sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")
WORKLOADS = ("coupled_plates", "transport_irregular", "poisson_irregular")

END_TO_END = {"setup_s": "s", "step_ms": "ms", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_pct", "%"),
                         ("bytes", "B"), ("bytes_per_step", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the timed rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="small meshes, for the benchmark's own tests")
    p.add_argument("--child", action="store_true",
                   help="execute the workload once and print its set-up "
                        "time and peak memory (used by the benchmark)")
    p.add_argument("--steps", type=int, default=10,
                   help="steps or solves of a --child execution")
    return p


def end_to_end(outcome) -> dict:
    from perfbench.workloads import mean_step_ms
    values = {"setup_s": statistics.median(outcome.setup_s),
              "step_ms": mean_step_ms(outcome.loops),
              "peak_rss_mb": statistics.median(outcome.rss_mb)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(outcome) -> dict:
    from perfbench.tracing import PER_LAYER
    from perfbench.workloads import mean_step_ms
    out = {n: {"value": statistics.median(d[n] for d in outcome.layers),
               "unit": _unit(n)} for n in PER_LAYER}
    traced = mean_step_ms(outcome.traced_loops)
    plain = mean_step_ms(outcome.loops)
    out["trace.traced_step_ms"] = {"value": traced, "unit": "ms"}
    out["trace.untraced_step_ms"] = {"value": plain, "unit": "ms"}
    out["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0),
                                 "unit": "%"}
    return out


def result(outcome, trace: bool) -> dict:
    """The result line.  It has no metrics, and is not correct, when no
    round gave the figures they need (every round failed)."""
    if trace:
        measured = outcome.layers and outcome.loops
        metrics = per_layer(outcome) if measured else {}
    else:
        measured = outcome.loops and outcome.setup_s and outcome.rss_mb
        metrics = end_to_end(outcome) if measured else {}
    return {"correct": bool(measured) and not outcome.problems,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trifvm", "__init__.py")):
        print(f"perfbench: no trifvm sources under {SRC}", file=sys.stderr)
        return 2
    # the ranks are the only parallelism measured: keep BLAS on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [SRC, ROOT]
    from perfbench import hostinfo, workloads

    sizes = workloads.SMALL if args.small else workloads.FULL
    os.makedirs(RESULTS, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, RESULTS,
                                            write_inputs=not args.child)
    if args.child:
        print(json.dumps(wl.child(args.steps)))
        return 0

    host = hostinfo.describe(ROOT)
    host["probe_before_s"] = hostinfo.probe_s()
    outcome = wl.measure(args.seconds, bool(args.trace))
    host["probe_after_s"] = hostinfo.probe_s()

    line = result(outcome, bool(args.trace))
    record = dict(line, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, small=args.small,
                  host=host, problems=outcome.problems, errors=outcome.errors,
                  samples={"setup_s": outcome.setup_s,
                           "loops": outcome.loops,
                           "traced_loops": outcome.traced_loops,
                           "peak_rss_mb": outcome.rss_mb},
                  layers=outcome.layers, notes=outcome.notes)
    path = os.path.join(RESULTS, f"{args.workload}_seed{args.seed}"
                                 f"_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)
    for line in outcome.problems + outcome.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print("# host " + json.dumps(host, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
