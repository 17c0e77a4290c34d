"""Seeded irregular triangulations of the unit square, written as mesh files.

The generator starts from the (n + 1)^2 node grid of
`trifvm.mesh.structured_triangulation`, moves every node by a seeded random
offset of at most `jitter * h` per coordinate (boundary nodes slide along
their side, corners stay), and splits each square along a seeded random
diagonal (SW-NE or SE-NW).  It shares no code with trifvm: the benchmark
hands the program only the mesh file.
"""

from __future__ import annotations

import random

import numpy as np

JITTER = 0.2  # node offset bound per coordinate, in cell widths


def irregular_grid(n: int, seed: int, jitter: float = JITTER,
                   flip: bool = True):
    """(points, triangles, boundary) of a jittered, randomly flipped grid.

    boundary maps each boundary edge (a, b), a < b, to its side label.
    jitter = 0 and flip = False give the node and cell order of
    `trifvm.mesh.structured_triangulation(n)`.
    """
    rng = random.Random(seed)
    h = 1.0 / n
    nid = lambda i, j: j * (n + 1) + i  # noqa: E731 - grid index helper
    pts = np.empty(((n + 1) ** 2, 2))
    for j in range(n + 1):
        for i in range(n + 1):
            dx = rng.uniform(-jitter, jitter) * h if 0 < i < n else 0.0
            dy = rng.uniform(-jitter, jitter) * h if 0 < j < n else 0.0
            pts[nid(i, j)] = (i * h + dx, j * h + dy)

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = nid(i, j), nid(i + 1, j)
            v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
            if not flip or rng.random() < 0.5:
                tris += [(v00, v10, v11), (v00, v11, v01)]   # SW-NE
            else:
                tris += [(v00, v10, v01), (v10, v11, v01)]   # SE-NW

    boundary = {}
    for i in range(n):
        boundary[tuple(sorted((nid(i, 0), nid(i + 1, 0))))] = "bottom"
        boundary[tuple(sorted((nid(i, n), nid(i + 1, n))))] = "top"
        boundary[tuple(sorted((nid(0, i), nid(0, i + 1))))] = "left"
        boundary[tuple(sorted((nid(n, i), nid(n, i + 1))))] = "right"
    tris = np.asarray(tris, dtype=np.int64)
    p = pts[tris]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    if np.any(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0] <= 0.0):
        raise ValueError("jitter too large: a triangle lost its orientation")
    return pts, tris, boundary


def structured_grid(n: int):
    """The uniform SW-NE grid of `trifvm.mesh.structured_triangulation(n)`."""
    return irregular_grid(n, 0, jitter=0.0, flip=False)


def centroids(points, triangles) -> np.ndarray:
    """Vertex-average centroid of every triangle."""
    p = points[triangles]
    return (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0


def areas(points, triangles) -> np.ndarray:
    p = points[triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def write_mesh_file(path, points, triangles, boundary) -> None:
    """The line-oriented text format that `trifvm.mesh.load_mesh` reads."""
    lines = [f"nodes {len(points)}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in points]
    lines.append(f"triangles {len(triangles)}")
    lines += [f"{a} {b} {c}" for a, b, c in triangles]
    lines.append(f"boundary {len(boundary)}")
    lines += [f"{a} {b} {label}" for (a, b), label in sorted(boundary.items())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
