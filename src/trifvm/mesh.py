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
* the diamond gradient's weights per face, from the diamond cell spanned by
  the two adjacent centroids and the face endpoints,
* node interpolation weights from a first-order least-squares fit.

The text format is line oriented::

    # comment
    nodes <N>
    <x> <y>            (N lines)
    triangles <M>
    <i> <j> <k>        (M lines, counter-clockwise, 0-based)
    boundary <B>
    <a> <b> <label>    (B lines)

Boundary edges not listed get the label ``default``; none may be listed
twice or labelled ``interior``.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ParseError

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

    Raises ConfigError if any triangle is clockwise or degenerate.
    """
    p0 = points[triangles[:, 0]]
    p1 = points[triangles[:, 1]]
    p2 = points[triangles[:, 2]]
    u, v = p1 - p0, p2 - p0
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    if np.any(areas <= 0.0):
        bad = int(np.flatnonzero(areas <= 0.0)[0])
        raise ConfigError(
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
        raise ConfigError("zero-length face (duplicate node in a triangle?)")
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
        raise ConfigError("points must be (n, 2)")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ConfigError("triangles must be (m, 3)")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(points)):
        raise ConfigError("triangle references a node out of range")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ConfigError(f"node {int(np.flatnonzero(~finite)[0])} has a "
                          "non-finite coordinate")

    used = np.zeros(len(points), dtype=bool)
    used[triangles.ravel()] = True
    if not used.all():
        raise ConfigError(f"node {int(np.flatnonzero(~used)[0])} belongs to no triangle")

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
            raise ConfigError(f"edge {edge} shared by more than two triangles")
        raise ConfigError(f"edge {edge} traversed twice in the same direction "
                          "(inconsistent triangle orientation)")
    face_cells = np.column_stack([lead // 3, np.full(len(lead), -1)])
    second = np.flatnonzero(occurrence == 1)
    face_cells[half_face[second], 1] = second // 3

    right = face_cells[:, 1]
    labels = np.array(["default", INTERIOR], dtype=object)[(right >= 0).astype(np.intp)]
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
            raise ConfigError(
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


def cell_sum(lm: Mesh, per_face: np.ndarray, signed: bool = True) -> np.ndarray:
    """Each own cell's sum of a face quantity, signed outward unless not
    signed: the one per-cell face sum.  It adds the faces in the cell's edge
    order, which no partition changes, so every rank count sums alike."""
    cf, sg = lm.cell_faces, lm.cell_face_signs
    if not signed:
        return per_face[cf[:, 0]] + per_face[cf[:, 1]] + per_face[cf[:, 2]]
    return per_face[cf[:, 0]] * sg[:, 0] + per_face[cf[:, 1]] * sg[:, 1] \
        + per_face[cf[:, 2]] * sg[:, 2]


# --------------------------------------------------------------------------
# text format

def load_mesh(path) -> Mesh:
    with open(path, "rb") as fh:   # line ends as text mode reads them
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = re.sub("#[^\n]*", "", data.decode("utf-8")).split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte 0x{data[exc.start]:02x}", path,
                         data.count(b"\n", 0, exc.start) + 1) from None
    filled = list(itertools.compress(itertools.count(1), map(str.strip, lines)))
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
        """Rows of width numbers as a dtype array, read as Python's own
        scalar() reads each value.  numpy's C reader does so in one call and
        splits on the same whitespace; text it refuses or warns about ('1_0',
        non-ASCII digits, or '2.7' as an integer, which numpy 1.24-1.26 read
        as 2 with only a warning) is read by scalar() itself."""
        def convert(text):
            if not text:
                return np.empty((0, width), dtype)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out = np.loadtxt(text, dtype, comments=None, ndmin=2)
            except (ValueError, OverflowError, Warning):
                out = np.loadtxt(text, dtype, converters=scalar, comments=None, ndmin=2)
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
    n_bnd = expect_section("boundary", optional=True) or 0
    boundary_edges = take_rows(n_bnd, 3, "boundary", edges)
    if len(boundary_edges) < n_bnd:   # an edge listed twice: name its second row
        block = filled[pos - n_bnd:pos]
        ends = [tuple(sorted(map(int, lines[ln - 1].split()[:2]))) for ln in block]
        i = next(i for i, e in enumerate(ends) if e in ends[:i])
        raise ParseError(f"boundary edge {ends[i]} listed twice", path, block[i])
    if pos < len(filled):
        ln = filled[pos]
        raise ParseError("unexpected trailing content "
                         f"'{' '.join(lines[ln - 1].split())}'", path, ln)
    del data, lines, filled   # so that the text adds nothing to build_mesh's peak
    return build_mesh(points, triangles, boundary_edges)


def save_mesh(mesh: Mesh, path):
    """Write the text format with exact decimal (repr) coordinates: each
    section is one format operation and one write."""
    bnd = mesh.boundary_faces()
    ends = mesh.face_nodes[bnd].tolist()
    labels = [mesh.face_labels[f] for f in bnd.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {mesh.n_nodes}\n" + "%r %r\n" * mesh.n_nodes
                 % tuple(mesh.points.ravel().tolist()))
        fh.write(f"triangles {mesh.n_cells}\n" + "%d %d %d\n" * mesh.n_cells
                 % tuple(mesh.triangles.ravel().tolist()))
        fh.write(f"boundary {len(bnd)}\n" + "%d %d %s\n" * len(bnd)
                 % tuple(x for (a, b), lab in zip(ends, labels) for x in (a, b, lab)))


def structured_triangulation(n: int) -> Mesh:
    """Uniform triangulation of [0,1]^2: n*n squares, each split SW-NE.

    2*n^2 cells; boundary labels left/right/bottom/top.
    """
    if n < 1:
        raise ConfigError("mesh size must be >= 1")
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
    """The diamond gradient's weights per face, from geometry alone:
    grad u = d_n g_n + d_t g_t with d_n = u_right - u_left, d_t = u_A - u_B,
    g_n = n |s| / (2 area) and g_t = lr / (2 area).  area is the diamond
    (G_left, A, G_right, B), or (G_left, A, B) on the boundary; lr is the
    segment G_left -> G_right (the face midpoint on the boundary) rotated -90
    degrees.  The flux (grad u . n) |s| is beta d_n + tau d_t.
    """

    g_n: np.ndarray        # (n_faces, 2)
    g_t: np.ndarray        # (n_faces, 2)
    beta: np.ndarray       # (n_faces,)
    tau: np.ndarray        # (n_faces,)


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
        raise NumericError(
            f"face {f}: diamond area {area[f]:.3e} below {floor:.3e}")

    lr = _rot90cw(gr - gl)
    lr_length = np.hypot(lr[:, 0], lr[:, 1])
    if np.any(lr_length <= 0.0):
        f = int(np.flatnonzero(lr_length <= 0.0)[0])
        raise NumericError(f"face {f}: coincident diamond centroids")
    two_area = 2.0 * area[:, None]
    n_sigma = mesh.face_normals * mesh.face_lengths[:, None]
    g_n, g_t = n_sigma / two_area, lr / two_area
    return DiamondCells(g_n, g_t, *(np.einsum("ij,ij->i", g, n_sigma)
                                    for g in (g_n, g_t)))


# --------------------------------------------------------------------------
# node interpolation weights

@dataclass
class NodeWeights:
    """CSR-like node -> (cells, weights) map.

    Stencil cells are stored in ascending cell id, which pins the summation
    order of the interpolation; a subdomain's slice of the global weights
    keeps that order (`partition.build_subdomains`).  weights are the
    minimum-norm affine-exact weights of `node_weights`, or inverse-distance
    weights at the nodes whose stencil fails its rank test.
    """

    ptr: np.ndarray       # (n_nodes + 1,)
    node: np.ndarray      # the node of each stencil entry
    cells: np.ndarray     # stencil cell indices, concatenated
    weights: np.ndarray


def node_weights(mesh: Mesh) -> NodeWeights:
    """Interpolation weights for every node from its incident cell centroids.

    Minimum-norm weights w with sum(w) = 1 and sum(w (c - x_node)) = 0, so
    affine fields are exact.  With G the 3 x m matrix of rows 1, gx = dx / s
    and gy = dy / s over the node's m cells (s the mean centroid distance),
    w = G^T (G G^T)^-1 e_1, solved for all nodes at once in closed form.
    Rank test: a node whose G has rank < 3, its third singular value at most
    1e-9 times the first (fewer than 3 cells, collinear centroids), falls
    back to inverse-distance weights.

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
        raise ConfigError("cell centroid coincides with a mesh node")
    gx, gy = (d / scale[node, None]).T
    # in the basis (1, gx - mean gx, gy - mean gy) of G's rows, G G^T is
    # diag(m, C): w = 1/m + cx zx + cy zy with C z = -(mean gx, mean gy)
    mx, my = total(gx) / count, total(gy) / count
    cx, cy = gx - mx[node], gy - my[node]
    sxx, sxy, syy = total(cx * cx), total(cx * cy), total(cy * cy)
    det = sxx * syy - sxy * sxy

    # rank 3 is beyond doubt where det(G G^T) = m det(C) exceeds 1e-8
    # trace(G G^T)^3 (then sigma_3 > 1e-4 sigma_1); an SVD of the zero-padded
    # G decides the other nodes, padded to the widest stencil of the mesh
    unsure = count * det <= 1e-8 * (count + total(gx * gx + gy * gy)) ** 3
    entry = np.flatnonzero(unsure[node])
    row = (np.cumsum(unsure) - 1)[node[entry]]
    slot = entry - ptr[node[entry]]
    padded = np.zeros((np.count_nonzero(unsure), 3, max(count.max(initial=0), 3)))
    padded[row, 0, slot], padded[row, 1, slot], padded[row, 2, slot] = \
        1.0, gx[entry], gy[entry]
    sv = np.linalg.svd(padded, compute_uv=False)
    fallback = unsure.copy()
    fallback[unsure] = ~(sv[:, 2] > 1e-9 * sv[:, 0])

    det = np.where(fallback, 1.0, det)
    zx, zy = (sxy * my - syy * mx) / det, (sxy * mx - sxx * my) / det
    fit = 1.0 / count[node] + zx[node] * cx + zy[node] * cy
    inv = 1.0 / dist
    return NodeWeights(ptr=ptr, node=node, cells=cells,
                       weights=np.where(fallback[node], inv / total(inv)[node], fit))
