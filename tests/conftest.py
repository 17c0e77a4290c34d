"""Shared fixtures: small meshes, single-rank subdomains, BC dictionaries."""

import random

import numpy as np
import pytest

from trifvm.mesh import (build_diamonds, build_mesh, node_weights, save_mesh,
                         structured_triangulation)
from trifvm.partition import single_subdomain

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


@pytest.fixture(scope="session")
def geom8(sub8):
    lm = sub8.local_mesh
    return build_diamonds(lm), node_weights(lm)


@pytest.fixture(scope="session")
def geom16(sub16):
    lm = sub16.local_mesh
    return build_diamonds(lm), node_weights(lm)


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
