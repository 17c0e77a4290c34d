"""Checks on the program's outputs.

Every check compares against a computation made here, apart from trifvm,
or against a property the method must have; none compares against stored
output.  Each returns a list of problems, empty when the check passes, so
that a run can report all of them at once.
"""

from __future__ import annotations

import numpy as np


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = float(np.max(np.abs(b))) if b.size else 0.0
    return float(np.max(np.abs(a - b))) / max(scale, 1e-300) if a.size else 0.0


def same_fields(fields: dict, reference: dict, what: str) -> list:
    """Every field equals the reference field to 1e-12 (max-norm, relative)."""
    if sorted(fields) != sorted(reference):
        return [f"{what}: fields {sorted(fields)} != {sorted(reference)}"]
    out = []
    for name in sorted(reference):
        a = np.asarray(fields[name])
        b = np.asarray(reference[name])
        if a.shape != b.shape:
            out.append(f"{what}: {name} has shape {a.shape}, not {b.shape}")
            continue
        d = _max_rel(a, b)
        if not d <= 1e-12:
            out.append(f"{what}: {name} differs by {d:.3e} relative "
                       f"(limit 1e-12)")
    return out


def finite(fields: dict) -> list:
    return [f"{name}: {int(np.count_nonzero(~np.isfinite(v)))} non-finite "
            f"values" for name, v in sorted(fields.items())
            if not np.all(np.isfinite(v))]


def nonnegative(name: str, values: np.ndarray) -> list:
    bad = np.flatnonzero(values < 0.0)
    if bad.size:
        return [f"{name}: {bad.size} negative values, lowest "
                f"{float(values.min()):.3e}"]
    return []


def gaussian(xy: np.ndarray, center, sigma: float, amplitude: float):
    r2 = (xy[:, 0] - center[0]) ** 2 + (xy[:, 1] - center[1]) ** 2
    return amplitude * np.exp(-r2 / (2.0 * sigma ** 2))


def not_below(name: str, values: np.ndarray, floor: np.ndarray) -> list:
    """values >= floor everywhere, up to 1e-12 of the floor's scale."""
    slack = 1e-12 * float(np.max(np.abs(floor)))
    bad = np.flatnonzero(values < floor - slack)
    if bad.size:
        i = int(bad[np.argmin(values[bad] - floor[bad])])
        return [f"{name}: {bad.size} cells below the floor, worst cell {i} "
                f"by {float(floor[i] - values[i]):.3e}"]
    return []


def within(name: str, values: np.ndarray, lo: float, hi: float,
           tol: float) -> list:
    """lo - tol <= values <= hi + tol."""
    vmin, vmax = float(values.min()), float(values.max())
    if vmin < lo - tol or vmax > hi + tol:
        return [f"{name}: range [{vmin:.6e}, {vmax:.6e}] leaves the initial "
                f"[{lo:.6e}, {hi:.6e}] by more than {tol:.1e}"]
    return []


def counters(report, calls: dict, steps: int) -> list:
    """Assemble once, factor once, and solve exactly once per step, by the
    calls counted around the program and by the program's own counters."""
    expected = (("assemble_system calls", calls["assemble_system"], 1),
                ("factorize calls", calls["factorize"], 1),
                ("solve calls", calls["solve"], steps),
                ("assemblies", report.num_assemblies, 1),
                ("factorizations", report.num_factorizations, 1),
                ("solves", report.num_solves, steps))
    return [f"{what} = {got}, expected {want}"
            for what, got, want in expected if got != want]


def moving_gaussian(xy: np.ndarray, center, sigma: float, amplitude: float,
                    velocity, diffusion: float, t: float) -> np.ndarray:
    """Free-space solution of u_t + v.grad u = D lap u from a Gaussian."""
    s2 = sigma ** 2 + 2.0 * diffusion * t
    moved = (center[0] + velocity[0] * t, center[1] + velocity[1] * t)
    return gaussian(xy, moved, np.sqrt(s2), amplitude * sigma ** 2 / s2)


def upwind_error_scale(sigma: float, amplitude: float, speed: float,
                       h: float, t: float) -> float:
    """Peak change that first-order upwinding's numerical diffusion causes.

    Upwinding adds a diffusion of about speed * h / 2, so by time t it
    spreads the Gaussian's variance by speed * h * t more than the exact
    solution does; the peak drops by amplitude * (1 - s^2 / (s^2 + that)).
    """
    s2 = sigma ** 2
    return amplitude * (1.0 - s2 / (s2 + speed * h * t))


def close_to(name: str, values: np.ndarray, exact: np.ndarray,
             tol: float) -> list:
    err = float(np.max(np.abs(values - exact)))
    if not err <= tol:
        return [f"{name}: max error {err:.3e} exceeds {tol:.3e}"]
    return []


def conserved(name: str, weights: np.ndarray, values: np.ndarray,
              initial: np.ndarray) -> list:
    """sum(weights * values) is unchanged to 1e-12 relative."""
    m0 = float(np.sum(weights * initial))
    m1 = float(np.sum(weights * values))
    d = abs(m1 - m0) / max(abs(m0), 1e-300)
    if not d <= 1e-12:
        return [f"{name}: weighted sum moved by {d:.3e} relative "
                f"(limit 1e-12)"]
    return []


def csr_matvec(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """y = A x for a CSR matrix, by row sums of data * x[indices]."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    return np.bincount(rows, weights=data * x[indices], minlength=n)


def residual(matrix, x: np.ndarray, b: np.ndarray, what: str) -> list:
    """||A x - b||_inf / ||b||_inf <= 1e-10."""
    r = csr_matvec(matrix.indptr, matrix.indices, matrix.data, x) - b
    rel = float(np.max(np.abs(r))) / max(float(np.max(np.abs(b))), 1e-300)
    if not rel <= 1e-10:
        return [f"{what}: residual {rel:.3e} exceeds 1e-10"]
    return []


def read_vtk_scalars(path, name: str) -> np.ndarray:
    """The cell scalar array `name` of a legacy ASCII VTK file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    n = None
    for i, line in enumerate(lines):
        tok = line.split()
        if tok[:1] == ["CELL_DATA"]:
            n = int(tok[1])
        elif tok[:2] == ["SCALARS", name] and n is not None:
            return np.array([float(v) for v in lines[i + 2:i + 2 + n]])
    raise ValueError(f"{path}: no cell scalars '{name}'")


def frame_matches(path, name: str, expected: np.ndarray) -> list:
    """The written frame holds exactly the expected cell values."""
    try:
        got = read_vtk_scalars(path, name)
    except (OSError, ValueError) as exc:
        return [f"frame: {exc}"]
    if got.shape != expected.shape or not np.array_equal(got, expected):
        return [f"frame {path}: '{name}' differs from the final field"]
    return []
