"""Unstructured triangular meshes: file format, topology, and face geometry.

A mesh is a conforming triangulation stored cell-centered: every triangle
edge becomes exactly one face shared by one (boundary) or two (interior)
triangles.  Face normals are unit vectors oriented from the left cell to the
right cell; for boundary faces the normal points out of the domain.  The
geometry needed by the finite-volume operators is precomputed here once and
treated as immutable afterwards:

* cell areas and centroids,
* per-cell face lists in the triangle's own edge order (v0v1, v1v2, v2v0)
  together with outward-flux signs,
* the boundary faces, and each face's right cell (its left cell on the
  boundary), the index arrays the explicit kernels gather through,
* diamond cells (the quadrilateral spanned by the two adjacent centroids and
  the face endpoints) used by the gradient reconstruction,
* node interpolation weights from a first-order least-squares fit.

The text format is line oriented::

    # comment
    nodes <N>
    <x> <y>            (N lines)
    triangles <M>
    <i> <j> <k>        (M lines, counter-clockwise, 0-based)
    boundary <B>
    <a> <b> <label>    (B lines)

Boundary edges not listed get the label ``default``; none may be labelled
``interior``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDiamond, ParseError, TopologyError

INTERIOR = "interior"


@dataclass
class Mesh:
    """Triangulation plus derived face/cell geometry.

    Arrays are set read-only after construction; build a new mesh instead of
    mutating one.  A subdomain's local mesh holds only the faces its rank
    reads; its cell_faces and cell_face_signs have rows for own cells only.
    """

    points: np.ndarray        # (n_nodes, 2) float64
    triangles: np.ndarray     # (n_cells, 3) int64, CCW
    face_nodes: np.ndarray    # (n_faces, 2) endpoints A, B in left-cell CCW order
    face_cells: np.ndarray    # (n_faces, 2) left, right (-1 when boundary)
    face_labels: list[str]    # INTERIOR or a boundary label
    cell_faces: np.ndarray    # (n_cells, 3) face id of edge e = (v_e, v_{e+1})
    cell_face_signs: np.ndarray  # (n_cells, 3) +1 if the cell is left, else -1
    areas: np.ndarray = field(default=None)        # (n_cells,)
    centroids: np.ndarray = field(default=None)    # (n_cells, 2)
    face_normals: np.ndarray = field(default=None)  # (n_faces, 2) unit, left->right
    face_lengths: np.ndarray = field(default=None)
    face_midpoints: np.ndarray = field(default=None)
    face_right: np.ndarray = field(default=None)  # right cell, left on boundary
    _boundary: np.ndarray = field(default=None, repr=False)  # boundary_faces()

    @property
    def n_nodes(self) -> int:
        return len(self.points)

    @property
    def n_cells(self) -> int:
        return len(self.triangles)

    @property
    def n_faces(self) -> int:
        return len(self.face_nodes)

    def boundary_faces(self) -> np.ndarray:
        """Boundary face ids, ascending (built once, read-only)."""
        return self._boundary

    def interior_faces(self) -> np.ndarray:
        return np.flatnonzero(self.face_cells[:, 1] >= 0)

    def _freeze(self):
        for arr in (self.points, self.triangles, self.face_nodes, self.face_cells,
                    self.cell_faces, self.cell_face_signs, self.areas, self.centroids,
                    self.face_normals, self.face_lengths, self.face_midpoints,
                    self.face_right, self._boundary):
            arr.setflags(write=False)


def _rot90cw(v: np.ndarray) -> np.ndarray:
    """Rotate 2-vectors by -90 degrees: (x, y) -> (y, -x)."""
    out = np.empty_like(v)
    out[..., 0] = v[..., 1]
    out[..., 1] = -v[..., 0]
    return out


def cell_geometry(points: np.ndarray, triangles: np.ndarray):
    """Signed (shoelace) areas and vertex-average centroids per triangle.

    Raises TopologyError if any triangle is clockwise or degenerate.
    """
    p0 = points[triangles[:, 0]]
    p1 = points[triangles[:, 1]]
    p2 = points[triangles[:, 2]]
    u, v = p1 - p0, p2 - p0
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    if np.any(areas <= 0.0):
        bad = int(np.flatnonzero(areas <= 0.0)[0])
        raise TopologyError(
            f"triangle {bad} has non-positive signed area {areas[bad]:.3e} "
            "(vertices must be counter-clockwise)")
    centroids = (p0 + p1 + p2) / 3.0
    return areas, centroids


def _finalize_geometry(mesh: Mesh) -> Mesh:
    mesh.areas, mesh.centroids = cell_geometry(mesh.points, mesh.triangles)
    a = mesh.points[mesh.face_nodes[:, 0]]
    b = mesh.points[mesh.face_nodes[:, 1]]
    seg = b - a
    mesh.face_lengths = np.hypot(seg[:, 0], seg[:, 1])
    if np.any(mesh.face_lengths <= 0.0):
        raise TopologyError("zero-length face (duplicate node in a triangle?)")
    mesh.face_normals = _rot90cw(seg) / mesh.face_lengths[:, None]
    mesh.face_midpoints = 0.5 * (a + b)
    left, right = mesh.face_cells.T
    mesh._boundary = np.flatnonzero(right < 0)
    mesh.face_right = np.where(right >= 0, right, left)
    mesh._freeze()
    return mesh


def build_mesh(points, triangles, boundary_edges=None) -> Mesh:
    """Assemble a Mesh from raw arrays, deduplicating edges into faces.

    boundary_edges: optional {(min(a,b), max(a,b)): label}.  Faces are
    numbered in order of first traversal over (triangle, edge); the first
    triangle that traverses an edge becomes its left cell, so the stored
    normal is that cell's outward normal.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    triangles = np.ascontiguousarray(triangles, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise TopologyError("points must be (n, 2)")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise TopologyError("triangles must be (m, 3)")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(points)):
        raise TopologyError("triangle references a node out of range")

    used = np.zeros(len(points), dtype=bool)
    used[triangles.ravel()] = True
    if not used.all():
        raise TopologyError(f"node {int(np.flatnonzero(~used)[0])} belongs to no triangle")

    # half-edge h = 3 t + e runs a -> b; one stable sort of the edge keys
    # groups the traversals of each edge in (triangle, edge) order
    n = len(points)
    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()
    key = np.minimum(a, b) * n + np.maximum(a, b)
    perm = np.argsort(key, kind="stable")
    sorted_key = key[perm]
    head = np.ones(len(key), dtype=bool)
    head[1:] = sorted_key[1:] != sorted_key[:-1]
    group = np.cumsum(head) - 1
    start = np.flatnonzero(head)
    occurrence = np.empty_like(perm)   # 0 for the first traversal of an edge
    occurrence[perm] = np.arange(len(key)) - start[group]
    first = occurrence == 0
    face_of_group = (np.cumsum(first) - 1)[perm[start]]
    half_face = np.empty_like(perm)
    half_face[perm] = face_of_group[group]

    lead = np.flatnonzero(first)       # each face's first traversal
    face_nodes = np.column_stack([a[lead], b[lead]])
    bad = (occurrence > 1) | ((occurrence == 1) & (face_nodes[half_face, 0] != b))
    if bad.any():
        h = int(np.flatnonzero(bad)[0])
        edge = (int(min(a[h], b[h])), int(max(a[h], b[h])))
        if occurrence[h] > 1:
            raise TopologyError(f"edge {edge} shared by more than two triangles")
        raise TopologyError(f"edge {edge} traversed twice in the same direction "
                            "(inconsistent triangle orientation)")
    face_cells = np.column_stack([lead // 3, np.full(len(lead), -1)])
    second = np.flatnonzero(occurrence == 1)
    face_cells[half_face[second], 1] = second // 3

    right = face_cells[:, 1]
    labels = np.full(len(lead), "default", dtype=object)
    labels[right >= 0] = INTERIOR
    if boundary_edges:
        decl = np.array(list(boundary_edges), dtype=np.int64).reshape(-1, 2)
        decl_key = decl[:, 0] * n + decl[:, 1]
        unique_key = sorted_key[start]
        pos = np.minimum(np.searchsorted(unique_key, decl_key), len(start) - 1)
        found = ((decl >= 0) & (decl < n)).all(axis=1) & (unique_key[pos] == decl_key)
        f = face_of_group[pos]
        named = np.array([lab == INTERIOR for lab in boundary_edges.values()])
        bad = ~found | (right[f] >= 0) | named
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise TopologyError(
                f"boundary declaration {list(boundary_edges)[i]} " + (
                    "matches no edge" if not found[i] else
                    "names an interior edge" if right[f[i]] >= 0 else
                    f"is labelled '{INTERIOR}'"))
        labels[f] = list(boundary_edges.values())

    mesh = Mesh(points=points,
                triangles=triangles,
                face_nodes=face_nodes,
                face_cells=face_cells,
                face_labels=labels.tolist(),
                cell_faces=half_face.reshape(-1, 3),
                cell_face_signs=np.where(first, 1, -1).astype(np.int8).reshape(-1, 3))
    return _finalize_geometry(mesh)


def validate_mesh(mesh: Mesh, tol: float = 1e-12):
    """Audit the Mesh invariants; raises TopologyError on the first failure.

    Checks: positive areas, unit normals, left->right orientation on
    two-sided faces, and the closed-polygon identity sum(|s| n_out) = 0 per
    cell.
    """
    if np.any(mesh.areas <= 0):
        raise TopologyError("non-positive cell area")
    nrm = np.hypot(mesh.face_normals[:, 0], mesh.face_normals[:, 1])
    if np.max(np.abs(nrm - 1.0)) > tol:
        raise TopologyError("face normal not unit length")
    inter = mesh.interior_faces()
    if inter.size:
        left = mesh.face_cells[inter, 0]
        right = mesh.face_cells[inter, 1]
        d = mesh.centroids[right] - mesh.centroids[left]
        dots = np.einsum("ij,ij->i", mesh.face_normals[inter], d)
        if np.any(dots <= 0):
            f = int(inter[np.flatnonzero(dots <= 0)[0]])
            raise TopologyError(f"face {f} normal does not point left->right")
    weighted = mesh.face_normals * mesh.face_lengths[:, None]
    closure = np.zeros((len(mesh.cell_faces), 2))   # own cells on a local mesh
    for e in range(3):
        closure += weighted[mesh.cell_faces[:, e]] * mesh.cell_face_signs[:, e, None]
    worst = np.max(np.abs(closure)) if mesh.n_cells else 0.0
    if worst > tol * max(1.0, float(np.max(mesh.face_lengths))):
        raise TopologyError(f"cell face normals do not close (max {worst:.3e})")


# --------------------------------------------------------------------------
# text format

def load_mesh(path) -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        lines = re.sub("#[^\n]*", "", fh.read()).split("\n")
    filled = [ln for ln, text in enumerate(lines, start=1) if text.strip()]
    pos = 0   # index into filled of the next line to read

    def expect_section(name, optional=False):
        nonlocal pos
        if pos >= len(filled):
            if optional:
                return None
            raise ParseError(f"expected '{name} <count>', got end of file", path)
        ln = filled[pos]
        parts = lines[ln - 1].split()
        if parts[0] != name:
            if optional:
                return None
            raise ParseError(f"expected section '{name}', got '{parts[0]}'", path, ln)
        if len(parts) != 2:
            raise ParseError(f"'{name}' header needs exactly one count", path, ln)
        try:
            count = int(parts[1])
        except ValueError:
            raise ParseError(f"bad count '{parts[1]}' in '{name}' header", path, ln) from None
        if count < 0:
            raise ParseError(f"negative count in '{name}' header", path, ln)
        pos += 1
        return count

    def take_rows(count, width, what, convert):
        """The next count rows, all converted by one call of convert; only
        when that fails are the rows walked, to name the first bad one."""
        nonlocal pos
        block = filled[pos:pos + count]
        pos += count
        text = [lines[ln - 1] for ln in block]
        if len(block) == count:
            try:
                return convert(text)
            except (ValueError, OverflowError):
                pass
        for ln, row in zip(block, text):  # error path: name the first bad row
            parts = row.split()
            if len(parts) != width:
                raise ParseError(f"{what} row needs {width} fields, got {len(parts)}", path, ln)
            try:
                convert([row])
            except (ValueError, OverflowError):
                raise ParseError(f"bad {what} row: {' '.join(parts)}", path, ln) from None
        raise ParseError(f"file ends inside the {what} section", path)

    def numbers(dtype, scalar, width):
        """Rows of width numbers as a dtype array.  Every value is read by
        Python's own scalar(), so '2.7' is not an integer on any numpy:
        loadtxt's own int64 reader reads it as 2 on versions that only warn."""
        def convert(text):
            if not text:
                return np.empty((0, width), dtype)
            out = np.loadtxt(text, dtype=dtype, converters=scalar, comments=None, ndmin=2)
            if out.shape != (len(text), width):
                raise ValueError(f"expected {width} columns")
            return out
        return convert

    def edges(text):
        rows = [row.split() for row in text]
        if any(len(parts) != 3 for parts in rows):
            raise ValueError("expected 3 columns")
        ends = np.sort(np.array([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2))
        return dict(zip(map(tuple, ends.tolist()), (r[2] for r in rows)))

    n_nodes = expect_section("nodes")
    points = take_rows(n_nodes, 2, "node", numbers(np.float64, float, 2))
    n_tris = expect_section("triangles")
    triangles = take_rows(n_tris, 3, "triangle", numbers(np.int64, int, 3))
    n_bnd = expect_section("boundary", optional=True)
    boundary_edges = {} if n_bnd is None else take_rows(n_bnd, 3, "boundary", edges)
    if pos < len(filled):
        ln = filled[pos]
        raise ParseError("unexpected trailing content "
                         f"'{' '.join(lines[ln - 1].split())}'", path, ln)
    return build_mesh(points, triangles, boundary_edges)


def save_mesh(mesh: Mesh, path):
    """Write the text format with exact decimal (repr) coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.points:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"triangles {mesh.n_cells}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        bnd = mesh.boundary_faces()
        fh.write(f"boundary {len(bnd)}\n")
        for f in bnd:
            a, b = mesh.face_nodes[f]
            fh.write(f"{a} {b} {mesh.face_labels[f]}\n")


def structured_triangulation(n: int) -> Mesh:
    """Uniform triangulation of [0,1]^2: n*n squares, each split SW-NE.

    2*n^2 cells; boundary labels left/right/bottom/top.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    nid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)   # nid[j, i]
    v00, v10 = nid[:-1, :-1].ravel(), nid[:-1, 1:].ravel()
    v01, v11 = nid[1:, :-1].ravel(), nid[1:, 1:].ravel()
    tris = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    # edge i of the bottom, top, left and right sides, in that order per i
    sides = np.stack([nid[0], nid[n], nid[:, 0], nid[:, n]])
    ends = np.stack([sides[:, :-1], sides[:, 1:]], axis=-1).transpose(1, 0, 2)
    boundary = dict(zip(map(tuple, ends.reshape(-1, 2).tolist()),
                        ["bottom", "top", "left", "right"] * n))
    return build_mesh(points, tris, boundary)


# --------------------------------------------------------------------------
# diamond cells

@dataclass
class DiamondCells:
    """Per-face gradient-support geometry.

    area: quadrilateral (G_left, A, G_right, B) for interior faces, triangle
    (G_left, A, B) for boundary faces.  lr_vec: the segment joining the left
    centroid to the right centroid (to the face midpoint on the boundary),
    rotated -90 degrees: its unit normal times its length.
    """

    area: np.ndarray       # (n_faces,)
    lr_vec: np.ndarray     # (n_faces, 2)


def build_diamonds(mesh: Mesh) -> DiamondCells:
    a = mesh.points[mesh.face_nodes[:, 0]]
    b = mesh.points[mesh.face_nodes[:, 1]]
    left = mesh.face_cells[:, 0]
    right = mesh.face_cells[:, 1]
    gl = mesh.centroids[left]
    # boundary faces: the "right centroid" degenerates to the face midpoint
    gr = np.where((right >= 0)[:, None], mesh.centroids[mesh.face_right],
                  mesh.face_midpoints)

    # shoelace over (gl, a, gr, b); positive when gl is left of a->b
    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    quad_area = 0.5 * (cross(gl, a) + cross(a, gr) + cross(gr, b) + cross(b, gl))
    tri_area = 0.5 * (cross(gl, a) + cross(a, b) + cross(b, gl))
    area = np.where(right >= 0, quad_area, tri_area)

    floor = 1e-14 * float(np.mean(mesh.areas))
    if np.any(area < floor):
        f = int(np.flatnonzero(area < floor)[0])
        raise DegenerateDiamond(
            f"face {f}: diamond area {area[f]:.3e} below {floor:.3e}")

    lr = _rot90cw(gr - gl)
    lr_length = np.hypot(lr[:, 0], lr[:, 1])
    if np.any(lr_length <= 0.0):
        f = int(np.flatnonzero(lr_length <= 0.0)[0])
        raise DegenerateDiamond(f"face {f}: coincident diamond centroids")
    return DiamondCells(area=area, lr_vec=lr)


# --------------------------------------------------------------------------
# node interpolation weights

@dataclass
class NodeWeights:
    """CSR-like node -> (cells, weights) map with a fallback flag per node.

    Stencil cells are stored in ascending cell id, which pins the summation
    order of the interpolation; a subdomain's slice of the global weights
    keeps that order (`partition.build_subdomains`).  weights are the
    minimum-norm affine-exact weights of `node_weights`; fallback marks the
    nodes whose stencil fails the rank test and which carry inverse-distance
    weights instead.
    """

    ptr: np.ndarray       # (n_nodes + 1,)
    node: np.ndarray      # the node of each stencil entry
    cells: np.ndarray     # stencil cell indices, concatenated
    weights: np.ndarray
    fallback: np.ndarray  # (n_nodes,) bool, True = inverse-distance node


def node_weights(mesh: Mesh) -> NodeWeights:
    """Interpolation weights for every node from its incident cell centroids.

    Minimum-norm weights w with sum(w) = 1 and sum(w (c - x_node)) = 0, so
    affine fields are exact.  With G the 3 x m matrix of rows 1, gx = dx / s
    and gy = dy / s over the node's m cells (s the mean centroid distance),
    w = G^T (G G^T)^-1 e_1, solved for all nodes at once in closed form.
    Rank test: a node whose G has rank < 3, its third singular value at most
    1e-9 times the first (fewer than 3 cells, collinear centroids), falls
    back to inverse-distance weights and is flagged.

    Stencils are enumerated in ascending cell id, and every reduction runs
    over one node's stencil in that order.
    """
    cells = np.repeat(np.arange(mesh.n_cells), 3)
    node = mesh.triangles.ravel()
    order = np.argsort(node, kind="stable")   # by node, then by cell
    cells, node = cells[order], node[order]
    count = np.bincount(node, minlength=mesh.n_nodes)
    ptr = np.concatenate([[0], np.cumsum(count)])

    def total(v):  # per-node sums, each in stencil order
        return np.bincount(node, v, minlength=mesh.n_nodes)

    d = mesh.centroids[cells] - mesh.points[node]
    dist = np.hypot(d[:, 0], d[:, 1])
    scale = total(dist) / count
    if np.any(scale <= 0.0):
        raise TopologyError("cell centroid coincides with a mesh node")
    gx, gy = (d / scale[node, None]).T
    # in the basis (1, gx - mean gx, gy - mean gy) of G's rows, G G^T is
    # diag(m, C): w = 1/m + cx zx + cy zy with C z = -(mean gx, mean gy)
    mx, my = total(gx) / count, total(gy) / count
    cx, cy = gx - mx[node], gy - my[node]
    sxx, sxy, syy = total(cx * cx), total(cx * cy), total(cy * cy)
    det = sxx * syy - sxy * sxy

    # rank 3 is beyond doubt where det(G G^T) = m det(C) exceeds 1e-8
    # trace(G G^T)^3 (then sigma_3 > 1e-4 sigma_1); an SVD of the zero-padded
    # G decides the other nodes
    unsure = count * det <= 1e-8 * (count + total(gx * gx + gy * gy)) ** 3
    padded = np.zeros((mesh.n_nodes, 3, max(count.max(initial=0), 3)))
    slot = np.arange(len(node)) - ptr[node]
    padded[node, 0, slot], padded[node, 1, slot], padded[node, 2, slot] = 1.0, gx, gy
    sv = np.linalg.svd(padded[unsure], compute_uv=False)
    fallback = unsure.copy()
    fallback[unsure] = ~(sv[:, 2] > 1e-9 * sv[:, 0])

    det = np.where(fallback, 1.0, det)
    zx, zy = (sxy * my - syy * mx) / det, (sxy * mx - sxx * my) / det
    fit = 1.0 / count[node] + zx[node] * cx + zy[node] * cy
    inv = 1.0 / dist
    return NodeWeights(ptr=ptr, node=node, cells=cells,
                       weights=np.where(fallback[node], inv / total(inv)[node], fit),
                       fallback=fallback)
