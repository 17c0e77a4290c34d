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

Boundary edges not listed get the label ``default``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDiamond, ParseError, TopologyError

INTERIOR = "interior"
HALO_FRINGE = "halo"


@dataclass
class Mesh:
    """Triangulation plus derived face/cell geometry.

    Arrays are set read-only after construction; build a new mesh instead of
    mutating one.
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
        return np.flatnonzero(self.face_cells[:, 1] < 0)

    def interior_faces(self) -> np.ndarray:
        return np.flatnonzero(self.face_cells[:, 1] >= 0)

    def _freeze(self):
        for arr in (self.points, self.triangles, self.face_nodes, self.face_cells,
                    self.cell_faces, self.cell_face_signs, self.areas, self.centroids,
                    self.face_normals, self.face_lengths, self.face_midpoints):
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
    mesh._freeze()
    return mesh


def build_mesh(points, triangles, boundary_edges=None) -> Mesh:
    """Assemble a Mesh from raw arrays, deduplicating edges into faces.

    boundary_edges: optional {(min(a,b), max(a,b)): label}.  The first
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

    face_of = {}
    face_nodes, face_cells = [], []
    cell_faces = np.empty((len(triangles), 3), dtype=np.int64)
    cell_signs = np.empty((len(triangles), 3), dtype=np.int8)
    for t, tri in enumerate(triangles):
        for e in range(3):
            a, b = int(tri[e]), int(tri[(e + 1) % 3])
            key = (a, b) if a < b else (b, a)
            f = face_of.get(key)
            if f is None:
                f = len(face_nodes)
                face_of[key] = f
                face_nodes.append((a, b))
                face_cells.append([t, -1])
                cell_signs[t, e] = 1
            else:
                if face_cells[f][1] != -1:
                    raise TopologyError(f"edge {key} shared by more than two triangles")
                if face_nodes[f] != (b, a):
                    raise TopologyError(
                        f"edge {key} traversed twice in the same direction "
                        "(inconsistent triangle orientation)")
                face_cells[f][1] = t
                cell_signs[t, e] = -1
            cell_faces[t, e] = f

    labels = []
    for f, (cl, cr) in enumerate(face_cells):
        if cr >= 0:
            labels.append(INTERIOR)
        else:
            a, b = face_nodes[f]
            key = (a, b) if a < b else (b, a)
            labels.append(boundary_edges.get(key, "default") if boundary_edges else "default")
    if boundary_edges:
        for key, label in boundary_edges.items():
            f = face_of.get(key)
            if f is None:
                raise TopologyError(f"boundary declaration {key} matches no edge")
            if face_cells[f][1] != -1:
                raise TopologyError(f"boundary declaration {key} names an interior edge")

    mesh = Mesh(points=points,
                triangles=triangles,
                face_nodes=np.asarray(face_nodes, dtype=np.int64),
                face_cells=np.asarray(face_cells, dtype=np.int64),
                face_labels=labels,
                cell_faces=cell_faces,
                cell_face_signs=cell_signs)
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
    closure = np.zeros((mesh.n_cells, 2))
    for e in range(3):
        closure += weighted[mesh.cell_faces[:, e]] * mesh.cell_face_signs[:, e, None]
    worst = np.max(np.abs(closure)) if mesh.n_cells else 0.0
    if worst > tol * max(1.0, float(np.max(mesh.face_lengths))):
        raise TopologyError(f"cell face normals do not close (max {worst:.3e})")


# --------------------------------------------------------------------------
# text format

def load_mesh(path) -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    tokens = []  # (line_number, parts)
    for ln, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            tokens.append((ln, text.split()))

    pos = 0

    def expect_section(name, optional=False):
        nonlocal pos
        if pos >= len(tokens):
            if optional:
                return None
            raise ParseError(f"expected '{name} <count>', got end of file", path)
        ln, parts = tokens[pos]
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

    def take_rows(count, width, caster, what):
        nonlocal pos
        rows = []
        for _ in range(count):
            if pos >= len(tokens):
                raise ParseError(f"file ends inside the {what} section", path)
            ln, parts = tokens[pos]
            if len(parts) != width:
                raise ParseError(f"{what} row needs {width} fields, got {len(parts)}", path, ln)
            try:
                rows.append([caster(x) for x in parts])
            except ValueError:
                raise ParseError(f"bad {what} row: {' '.join(parts)}", path, ln) from None
            pos += 1
        return rows

    n_nodes = expect_section("nodes")
    node_rows = take_rows(n_nodes, 2, float, "node")
    n_tris = expect_section("triangles")
    tri_rows = take_rows(n_tris, 3, int, "triangle")

    boundary_edges = {}
    n_bnd = expect_section("boundary", optional=True)
    if n_bnd is not None:
        for _ in range(n_bnd):
            if pos >= len(tokens):
                raise ParseError("file ends inside the boundary section", path)
            ln, parts = tokens[pos]
            if len(parts) != 3:
                raise ParseError(f"boundary row needs 3 fields, got {len(parts)}", path, ln)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"bad boundary row: {' '.join(parts)}", path, ln) from None
            key = (a, b) if a < b else (b, a)
            boundary_edges[key] = parts[2]
            pos += 1
    if pos < len(tokens):
        ln, parts = tokens[pos]
        raise ParseError(f"unexpected trailing content '{' '.join(parts)}'", path, ln)

    points = np.asarray(node_rows, dtype=np.float64).reshape(n_nodes, 2)
    triangles = np.asarray(tri_rows, dtype=np.int64).reshape(n_tris, 3)
    try:
        return build_mesh(points, triangles, boundary_edges)
    except TopologyError:
        raise


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

    def nid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            v00, v10 = nid(i, j), nid(i + 1, j)
            v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))

    boundary = {}
    for i in range(n):
        boundary[tuple(sorted((nid(i, 0), nid(i + 1, 0))))] = "bottom"
        boundary[tuple(sorted((nid(i, n), nid(i + 1, n))))] = "top"
        boundary[tuple(sorted((nid(0, i), nid(0, i + 1))))] = "left"
        boundary[tuple(sorted((nid(n, i), nid(n, i + 1))))] = "right"
    return build_mesh(points, np.asarray(tris), boundary)


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
    gr = np.where((right >= 0)[:, None], mesh.centroids[np.maximum(right, 0)],
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

    Stencil cells are stored in ascending order of the `cell_order` key used
    at build time (global cell ids for subdomains), which pins the summation
    order of the interpolation.
    """

    ptr: np.ndarray       # (n_nodes + 1,)
    cells: np.ndarray     # stencil cell indices, concatenated
    weights: np.ndarray
    fallback: np.ndarray  # (n_nodes,) bool, True = inverse-distance node


def _stencil_weights(node_xy: np.ndarray, centroids: np.ndarray):
    """Least-squares interpolation weights for one node.

    Minimum-norm weights w with sum(w) = 1 and sum(w * (c - x_node)) = 0,
    i.e. exact for affine fields.  Falls back to inverse-distance (and
    reports it) when the stencil has fewer than 3 cells or the centroids are
    collinear.
    """
    d = centroids - node_xy[None, :]
    dist = np.hypot(d[:, 0], d[:, 1])
    scale = float(np.mean(dist))
    if scale <= 0.0:
        raise TopologyError("cell centroid coincides with a mesh node")
    m = len(centroids)
    if m >= 3:
        g = np.empty((3, m))
        g[0] = 1.0
        g[1] = d[:, 0] / scale
        g[2] = d[:, 1] / scale
        w, _, rank, _ = np.linalg.lstsq(g, np.array([1.0, 0.0, 0.0]), rcond=1e-9)
        if rank == 3:
            return w, False
    inv = 1.0 / dist
    return inv / inv.sum(), True


def node_weights(mesh: Mesh, cell_order=None) -> NodeWeights:
    """Interpolation weights for every node from its incident cell centroids.

    cell_order: optional per-cell sort key (e.g. global ids in a subdomain);
    defaults to the local cell index.  Stencils are enumerated in ascending
    key order so that the same node interpolates identically no matter how
    the mesh was split.
    """
    order = np.arange(mesh.n_cells) if cell_order is None else np.asarray(cell_order)
    incident = [[] for _ in range(mesh.n_nodes)]
    for t in range(mesh.n_cells):
        for v in mesh.triangles[t]:
            incident[v].append(t)

    ptr = np.zeros(mesh.n_nodes + 1, dtype=np.int64)
    cells_out, weights_out = [], []
    fallback = np.zeros(mesh.n_nodes, dtype=bool)
    for n in range(mesh.n_nodes):
        stencil = sorted(incident[n], key=lambda t: order[t])
        w, fb = _stencil_weights(mesh.points[n], mesh.centroids[stencil])
        fallback[n] = fb
        cells_out.extend(stencil)
        weights_out.append(w)
        ptr[n + 1] = ptr[n] + len(stencil)
    return NodeWeights(ptr=ptr,
                       cells=np.asarray(cells_out, dtype=np.int64),
                       weights=np.concatenate(weights_out),
                       fallback=fallback)
