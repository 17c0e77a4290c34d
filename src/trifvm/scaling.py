"""Strong-scaling metrics from multi-run timing tables.

Input is a CSV with one row per core count and a wall-clock time per phase;
times may be plain seconds or `HHhMMminSSs` durations (spaces allowed), so
published tables can be used verbatim as fixtures.  Speedup and efficiency
follow

    sp(N) = t_b / t_N        eff(N) = 100 * t_b * N_b / (t_N * N)

with sp_ideal(N) = N; the base row has sp = 1 and eff = 100 exactly.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

from .errors import ConfigError, ParseError

PHASES = ("convection", "diffusion", "linear_solver", "total")

_DURATION = re.compile(
    r"^\s*(?:(\d+)\s*h)?\s*(?:(\d+)\s*min)?\s*(?:(\d+(?:\.\d*)?)\s*s)?\s*$")


def parse_duration(text: str) -> float:
    """Seconds from '49 h 54 min 48 s', '5min14s', '314', or '314.5'."""
    try:
        return float(text)
    except ValueError:
        pass
    m = _DURATION.match(text)
    if not m or not any(m.groups()):
        raise ParseError(f"cannot parse duration '{text}'")
    h, mn, s = m.groups()
    return 3600.0 * int(h or 0) + 60.0 * int(mn or 0) + float(s or 0)


@dataclass
class ScalingRecord:
    cores: int
    times: dict  # phase -> seconds


@dataclass
class ScalingRow:
    cores: int
    sp_ideal: float
    speedup: dict      # phase -> t_b / t_N
    efficiency: dict   # phase -> percent


def read_timings_csv(path) -> list:
    """Rows of cores plus per-phase times; header names the phases.  Each
    row has one non-empty cell per column; a bad row is named by its line."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or "cores" not in header:
            raise ParseError("timings CSV needs a 'cores' column", path=path)
        twice = sorted({c for c in header if header.count(c) > 1})
        if twice:
            raise ParseError(f"column(s) {twice} appear twice", path=path)
        phases = [c for c in header if c != "cores"]
        unknown = set(phases) - set(PHASES)
        if unknown:
            raise ParseError(f"unknown phase column(s) {sorted(unknown)}",
                             path=path)
        for cells in filter(None, reader):      # blank lines hold no row
            at = {"path": path, "line": reader.line_num}
            if len(cells) != len(header) or not all(c.strip() for c in cells):
                raise ParseError(f"expected {len(header)} non-empty cells, "
                                 f"got {cells}", **at)
            row = dict(zip(header, cells))
            try:
                cores = int(row["cores"])
                times = {ph: parse_duration(row[ph]) for ph in phases}
            except ValueError:
                raise ParseError(f"bad cores value '{row['cores']}'",
                                 **at) from None
            except ParseError as exc:   # a duration, named with its line
                raise ParseError(str(exc), **at) from None
            for ph, t in times.items():
                if t <= 0:
                    raise ParseError(f"{ph} time must be > 0, got {t}", **at)
            records.append(ScalingRecord(cores=cores, times=times))
    seen = [r.cores for r in records]
    if len(set(seen)) != len(seen):
        raise ParseError("duplicate core counts in table", path=path)
    return records


def compute_scaling(records: list, base_cores: int = 1) -> list:
    base = next((r for r in records if r.cores == base_cores), None)
    if base is None:
        raise ConfigError(f"no row with cores = {base_cores}")
    rows = []
    for rec in sorted(records, key=lambda r: r.cores):
        sp = {ph: base.times[ph] / rec.times[ph] for ph in rec.times}
        eff = {ph: 100.0 * base.times[ph] * base_cores
               / (rec.times[ph] * rec.cores) for ph in rec.times}
        rows.append(ScalingRow(cores=rec.cores,
                               sp_ideal=rec.cores / base_cores,
                               speedup=sp, efficiency=eff))
    return rows


def write_scaling_csv(rows: list, path) -> None:
    phases = [ph for ph in PHASES if ph in rows[0].speedup] \
        if rows else list(PHASES)
    header = ["cores", "sp_ideal"]
    for ph in phases:
        header += [f"{ph}_speedup", f"{ph}_efficiency"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            out = [row.cores, "%.17g" % row.sp_ideal]
            for ph in phases:
                out += ["%.17g" % row.speedup[ph],
                        "%.17g" % row.efficiency[ph]]
            w.writerow(out)
