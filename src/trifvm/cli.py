"""Command-line front end.

Subcommands: genmesh, partition, run, scaling, convergence.  Exit codes:
0 ok, 2 bad input (ConfigError), 3 numeric failure (NumericError), 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, NumericError
from .mesh import load_mesh, save_mesh, structured_triangulation
from .partition import build_dual_graph, partition, partition_metrics
from .runtime import PHASES, run_simulation, write_report
from .scaling import compute_scaling, read_timings_csv, write_scaling_csv
from .verification import CASES, run_case

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_IO = 0, 2, 3, 4


def _cmd_genmesh(args) -> int:
    mesh = structured_triangulation(args.n)
    save_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.n_cells} cells, {mesh.n_faces} faces, "
          f"{mesh.n_nodes} nodes")
    return EXIT_OK


def _cmd_partition(args) -> int:
    mesh = load_mesh(args.mesh)
    graph = build_dual_graph(mesh)
    pm = partition(graph, args.k)
    metrics = partition_metrics(graph, pm)
    sizes = np.bincount(pm.part, minlength=args.k)
    print(f"k = {args.k}  cells = {mesh.n_cells}")
    print(f"edge cut = {metrics['edge_cut']}")
    print(f"imbalance = {metrics['imbalance']:.4f}")
    print(f"halo total = {metrics['halo_total']}")
    print("part sizes = " + " ".join(str(s) for s in sizes))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"k": args.k, "edge_cut": int(metrics["edge_cut"]),
                       "imbalance": float(metrics["imbalance"]),
                       "halo_total": int(metrics["halo_total"]),
                       "sizes": [int(s) for s in sizes],
                       "part": [int(p) for p in pm.part]}, fh)
            fh.write("\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.ranks is not None:
        cfg.k = args.ranks
    if args.out is not None:
        cfg.out_dir = args.out
    if cfg.out_dir is None:
        cfg.out_dir = "out"
    report = run_simulation(cfg)
    csv_path, json_path = write_report(report, cfg.out_dir)
    for phase in PHASES:
        print(f"{phase:>14s}  {report.phase_seconds[phase]:.6f} s")
    print(f"steps = {report.steps}  k = {report.k}  cells = {report.n_cells}")
    print(f"factorizations = {report.num_factorizations}  "
          f"solves = {report.num_solves}  clips = {report.clip_count}")
    print(f"wrote {csv_path}, {json_path}"
          + (f", {len(report.outputs)} VTK file(s)" if report.outputs else ""))
    return EXIT_OK


def _cmd_scaling(args) -> int:
    records = read_timings_csv(args.timings)
    rows = compute_scaling(records, base_cores=args.base)
    write_scaling_csv(rows, args.out)
    for row in rows:
        sp = row.speedup.get("total")
        eff = row.efficiency.get("total")
        extra = f"  total sp = {sp:8.2f}  eff = {eff:6.2f}%" \
            if sp is not None else ""
        print(f"cores = {row.cores:5d}  ideal = {row.sp_ideal:6.0f}{extra}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    sizes = [s.strip() for s in args.sizes.split(",") if s.strip()]
    for s in sizes:
        if not s.isdecimal() or int(s) < 1:
            raise ConfigError(f"mesh size must be an integer >= 1: '{s}'")
    rows = run_case(args.case, [int(s) for s in sizes])
    print(f"case = {args.case}")
    print(f"{'n':>6s} {'L_inf':>13s} {'L2':>13s} {'p_inf':>7s} {'p_2':>7s}")
    for r in rows:
        pi = f"{r.order_linf:7.3f}" if r.order_linf is not None else "      -"
        p2 = f"{r.order_l2:7.3f}" if r.order_l2 is not None else "      -"
        print(f"{r.n:6d} {r.linf:13.6e} {r.l2:13.6e} {pi} {p2}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("n,linf,l2,order_linf,order_l2\n")
            for r in rows:
                fh.write(f"{r.n},{r.linf!r},{r.l2!r},"
                         f"{'' if r.order_linf is None else repr(r.order_linf)},"
                         f"{'' if r.order_l2 is None else repr(r.order_l2)}\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trifvm",
                                description="triangular finite-volume solver")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("genmesh", help="write a structured triangulation")
    g.add_argument("n", type=int, help="grid size (2 n^2 cells)")
    g.add_argument("out", help="output mesh path")
    g.set_defaults(fn=_cmd_genmesh)

    q = sub.add_parser("partition", help="partition a mesh and report quality")
    q.add_argument("mesh", help="mesh file")
    q.add_argument("k", type=int, help="number of parts")
    q.add_argument("--out", help="write metrics + assignment JSON here")
    q.set_defaults(fn=_cmd_partition)

    r = sub.add_parser("run", help="run a simulation from a config file")
    r.add_argument("--config", required=True)
    r.add_argument("--ranks", type=int, help="override [run] k")
    r.add_argument("--out", help="override [run] out_dir")
    r.set_defaults(fn=_cmd_run)

    s = sub.add_parser("scaling", help="speedup/efficiency from a timing table")
    s.add_argument("timings", help="CSV: cores plus per-phase times")
    s.add_argument("--base", type=int, default=1, help="baseline core count")
    s.add_argument("--out", default="scaling_report.csv")
    s.set_defaults(fn=_cmd_scaling)

    c = sub.add_parser("convergence", help="manufactured-solution error table")
    c.add_argument("case", choices=CASES)
    c.add_argument("--sizes", default="8,16,32",
                   help="comma-separated mesh sizes (empty for none)")
    c.add_argument("--out", help="write the table as CSV here")
    c.set_defaults(fn=_cmd_convergence)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        if isinstance(exc.__cause__, OSError):  # a rank could not write
            print(f"io failure: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
