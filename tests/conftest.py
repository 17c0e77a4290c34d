"""Shared fixtures: small meshes, single-rank subdomains, BC dictionaries,
the one-rank coupled step, the mesh audit, and the dense reference solver
the sparse one is checked against."""

import random
from dataclasses import replace

import numpy as np
import pytest

from trifvm.config import RunConfig, StreamerConfig
from trifvm.direct_solver import PIVOT_FLOOR
from trifvm.errors import ConfigError, NumericError, SingularMatrix
from trifvm.mesh import (build_mesh, cell_sum, save_mesh,
                         structured_triangulation)
from trifvm.partition import single_subdomain
from trifvm.runtime import _one_rank, _RankResult, _step, _Streamer

ALL_NEUMANN = {lab: ("neumann",) for lab in ("left", "right", "top", "bottom")}


def dirichlet_bc(g):
    """Same boundary datum on all four sides (constant or g(x, y))."""
    return {lab: ("dirichlet", g) for lab in ("left", "right", "top", "bottom")}


def irregular_mesh(n, seed, jitter=0.2):
    """Seeded irregular triangulation of the unit square.

    The (n + 1)^2 nodes of the uniform grid move by up to jitter * h per
    coordinate (boundary nodes only along their side, corners not at all),
    and each square is split along a diagonal chosen at random.
    """
    rng = random.Random(seed)
    h = 1.0 / n
    ij = np.array([(i, j) for j in range(n + 1) for i in range(n + 1)])
    free = (ij > 0) & (ij < n)
    shift = np.array([[rng.uniform(-jitter, jitter) for _ in range(2)]
                      for _ in ij])
    points = h * (ij + np.where(free, shift, 0.0))

    def node(i, j):
        return j * (n + 1) + i

    tris, boundary = [], {}
    for j in range(n):
        for i in range(n):
            a, b = node(i, j), node(i + 1, j)
            c, d = node(i + 1, j + 1), node(i, j + 1)
            tris += [(a, b, c), (a, c, d)] if rng.random() < 0.5 \
                else [(a, b, d), (b, c, d)]
    for k in range(n):
        for p, q, label in ((node(k, 0), node(k + 1, 0), "bottom"),
                            (node(k, n), node(k + 1, n), "top"),
                            (node(0, k), node(0, k + 1), "left"),
                            (node(n, k), node(n, k + 1), "right")):
            boundary[(min(p, q), max(p, q))] = label
    mesh = build_mesh(points, np.array(tris), boundary)
    assert (mesh.areas > 0).all()
    return mesh


def holed_mesh(n):
    """structured_triangulation(n) with the square [0.375, 0.625]^2 cut out
    (4 x 4 squares at n = 16); the hole's edges are labelled `electrode`,
    the outer ones keep theirs."""
    m = structured_triangulation(n)
    keep = ~((m.centroids > 0.375) & (m.centroids < 0.625)).all(axis=1)
    used = np.unique(m.triangles[keep])
    renumber = np.full(m.n_nodes, -1)
    renumber[used] = np.arange(len(used))
    tris = renumber[m.triangles[keep]]
    outer = {tuple(sorted(m.face_nodes[f])): m.face_labels[f]
             for f in m.boundary_faces()}
    cut = build_mesh(m.points[used], tris)
    ends = np.sort(cut.face_nodes[cut.boundary_faces()], axis=1).tolist()
    boundary = {(a, b): outer.get((int(used[a]), int(used[b])), "electrode")
                for a, b in ends}
    return build_mesh(m.points[used], tris, boundary)


def validate_mesh(mesh, tol=1e-12):
    """Audit the Mesh invariants; raises ConfigError on the first failure.

    Checks: positive areas, unit normals, left->right orientation on
    two-sided faces, and the closed-polygon identity sum(|s| n_out) = 0 per
    cell.
    """
    if np.any(mesh.areas <= 0):
        raise ConfigError("non-positive cell area")
    nrm = np.hypot(mesh.face_normals[:, 0], mesh.face_normals[:, 1])
    if np.max(np.abs(nrm - 1.0)) > tol:
        raise ConfigError("face normal not unit length")
    inter = mesh.interior_faces()
    if inter.size:
        left = mesh.face_cells[inter, 0]
        right = mesh.face_cells[inter, 1]
        d = mesh.centroids[right] - mesh.centroids[left]
        dots = np.einsum("ij,ij->i", mesh.face_normals[inter], d)
        if np.any(dots <= 0):
            f = int(inter[np.flatnonzero(dots <= 0)[0]])
            raise ConfigError(f"face {f} normal does not point left->right")
    weighted = mesh.face_normals * mesh.face_lengths[:, None]
    worst = max(float(np.abs(cell_sum(mesh, weighted[:, c])).max(initial=0.0))
                for c in (0, 1))
    if worst > tol * max(1.0, float(np.max(mesh.face_lengths))):
        raise ConfigError(f"cell face normals do not close (max {worst:.3e})")


def streamer_hook(sub, potential_bc, **coeffs):
    """The streamer's per-rank hook on sub, as a run builds it, with the
    linear model's coefficients and Neumann species boundaries."""
    sc = StreamerConfig(potential_bc=potential_bc, **coeffs)
    return _Streamer(sub, RunConfig(physics="streamer", streamer=sc,
                                    bc=ALL_NEUMANN), None)


def coupled_step(state, hook, problem, factors, dt=None):
    """One coupled cycle on a single rank: the step of every run, on a
    context whose collectives send no messages.  dt = None takes the CFL
    bound of the freshly computed drift field.  Returns the state and the
    step's clip count, as the rank's record counts it."""
    res = _RankResult(timers={})
    ctx = replace(_one_rank(hook.sub), problem=problem, factors=factors)
    state = _step(ctx, hook, state, dt, res)
    return state, res.clips


def total_charge(sub, state):
    """Area-weighted net charge sum(mu (n_i - n_e)) over own cells.

    The ionization source feeds both species identically, so with zero
    boundary flux this is conserved by every step.
    """
    n = sub.n_own
    mu = sub.local_mesh.areas[:n]
    return float(np.sum(mu * (state.n_i.values[:n] - state.n_e.values[:n])))


def irregular_mesh_file(path, n, seed):
    """Save irregular_mesh(n, seed) as a mesh file; returns its path."""
    save_mesh(irregular_mesh(n, seed), path)
    return str(path)


# Verbatim strong-scaling table from the measurement campaign writeup:
# eleven core counts, phase durations as printed there.
TIMING_ROWS = [
    (1,    "49 h 54 min 48 s", "02 h 51 min 04 s", "13 h 06 min 00 s", "33 h 57 min 44 s"),
    (2,    "25 h 06 min 27 s", "01 h 22 min 57 s", "06 h 41 min 02 s", "17 h 02 min 27 s"),
    (4,    "12 h 34 min 35 s", "00 h 42 min 07 s", "03 h 22 min 04 s", "08 h 30 min 24 s"),
    (8,    "06 h 27 min 18 s", "00 h 22 min 13 s", "01 h 46 min 26 s", "04 h 18 min 38 s"),
    (16,   "03 h 39 min 45 s", "00 h 12 min 37 s", "01 h 01 min 40 s", "02 h 25 min 26 s"),
    (32,   "01 h 50 min 50 s", "00 h 08 min 03 s", "00 h 29 min 17 s", "01 h 13 min 29 s"),
    (64,   "01 h 01 min 41 s", "00 h 03 min 59 s", "00 h 17 min 05 s", "00 h 40 min 36 s"),
    (128,  "00 h 32 min 44 s", "00 h 01 min 52 s", "00 h 08 min 22 s", "00 h 22 min 29 s"),
    (256,  "00 h 18 min 16 s", "00 h 01 min 02 s", "00 h 04 min 34 s", "00 h 12 min 39 s"),
    (512,  "00 h 10 min 07 s", "00 h 00 min 33 s", "00 h 02 min 52 s", "00 h 06 min 42 s"),
    (1024, "00 h 05 min 14 s", "00 h 00 min 18 s", "00 h 01 min 33 s", "00 h 03 min 23 s"),
]


def write_timing_table(path):
    with open(path, "w") as fh:
        fh.write("cores,total,convection,diffusion,linear_solver\n")
        for cores, tot, conv, diff, sol in TIMING_ROWS:
            fh.write(f"{cores},{tot},{conv},{diff},{sol}\n")
    return path


@pytest.fixture(scope="session")
def mesh8():
    return structured_triangulation(8)


@pytest.fixture(scope="session")
def mesh16():
    return structured_triangulation(16)


@pytest.fixture(scope="session")
def sub8(mesh8):
    return single_subdomain(mesh8)


@pytest.fixture(scope="session")
def sub16(mesh16):
    return single_subdomain(mesh16)


def random_spd_like(rng, n, extra_per_row=3, symmetric=True):
    """Random sparse, strictly diagonally dominant system.

    symmetric=True mirrors every off-diagonal entry.  symmetric=False keeps
    only (i, j), so the pattern is structurally unsymmetric; the diagonal
    then dominates both its row and its column, which keeps it an
    acceptable pivot through the elimination.
    """
    rows, cols, vals = [], [], []
    for i in range(n):
        picks = rng.choice(n, size=min(extra_per_row, n), replace=False)
        for j in picks:
            if i == j:
                continue
            v = rng.uniform(-1.0, 1.0)
            rows += [i, j] if symmetric else [i]
            cols += [j, i] if symmetric else [j]
            vals += [v, v] if symmetric else [v]
    off = np.zeros(n)
    np.add.at(off, np.asarray(rows), np.abs(np.asarray(vals)))
    if not symmetric:
        np.add.at(off, np.asarray(cols), np.abs(np.asarray(vals)))
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(off[i] + rng.uniform(1.0, 2.0))
    return np.asarray(rows), np.asarray(cols), np.asarray(vals)


def dense_lu_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference solve by dense partial-pivoting elimination (n <= 500).

    Independent of the sparse path; meant for cross-checks in tests.
    """
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NumericError(f"matrix shape {a.shape}")
    if b.shape != (n,):
        raise NumericError(f"rhs shape {b.shape}")
    if n > 500:
        raise NumericError("oracle capped at n = 500")
    tiny = PIVOT_FLOOR * float(np.max(np.abs(a))) if a.size else 0.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) <= tiny:
            raise SingularMatrix(f"column {col}: pivot {a[piv, col]:.3e}")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        factors = a[col + 1:, col] / a[col, col]
        a[col + 1:, col:] -= factors[:, None] * a[col, col:]
        b[col + 1:] -= factors * b[col]
    x = np.empty(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x
