"""Strong-scaling measurement of this machine, end to end.

Runs the same coupled problem at 1, 2, 4 and 8 ranks, writes the measured
phase times as a timings CSV, then feeds that file back through the
scaling pipeline exactly the way an external campaign table would go in.

Ranks 1..k-1 are forked processes, so the step kernels do run in
parallel; but at this size the host's serial solve, the message cost
(tens of microseconds each) and ranks beyond the machine's cores bound
the curve, and the efficiency column says so.  Each run takes 200 steps:
a forked rank's first step is a warm-up several times slower than the
rest, and over 20 steps it would decide the k >= 2 rows.
"""

import os

from trifvm.config import RunConfig, StreamerConfig
from trifvm.runtime import PHASES, run_simulation
from trifvm.scaling import compute_scaling, read_timings_csv, write_scaling_csv

OUT = os.path.join("out", "scaling")


def main():
    os.makedirs(OUT, exist_ok=True)
    timings = os.path.join(OUT, "timings.csv")
    with open(timings, "w") as fh:
        fh.write("cores," + ",".join(PHASES) + "\n")
        for k in (1, 2, 4, 8):
            cfg = RunConfig(mesh_n=32, k=k, steps=200, physics="streamer",
                            streamer=StreamerConfig(model="linear"))
            rep = run_simulation(cfg)
            row = ",".join(f"{rep.phase_seconds[ph]!r}" for ph in PHASES)
            fh.write(f"{k},{row}\n")
            print(f"measured k = {k}: total {rep.phase_seconds['total']:.3f} s")

    rows = compute_scaling(read_timings_csv(timings), base_cores=1)
    out = os.path.join(OUT, "scaling_report.csv")
    write_scaling_csv(rows, out)
    print(f"\n{'ranks':>5s} {'ideal':>6s} {'speedup':>8s} {'efficiency':>10s}")
    for row in rows:
        print(f"{row.cores:5d} {row.sp_ideal:6.1f} "
              f"{row.speedup['total']:8.3f} {row.efficiency['total']:9.1f}%")
    print(f"wrote {timings} and {out}")


if __name__ == "__main__":
    main()
