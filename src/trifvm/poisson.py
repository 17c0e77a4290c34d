"""Poisson operator assembly: A encodes -laplacian, row-scaled by cell area.

The discrete equation per cell i is

    - sum_f s_f (grad P . n)_f |s_f|  =  mu_i * source_i + lift_i

so A P = b solves  -lap P = source  with the diamond-cell gradient of the
transport module.  Dirichlet data is eliminated at assembly time: boundary
face values and boundary node values are known, and their contributions move
into the lift vector, keeping the matrix symmetric where the scheme is.
Homogeneous Neumann faces contribute nothing.  An all-Neumann operator has
the constant nullspace and is rejected unless a cell is pinned to zero.

The matrix is stored CSR with a structurally symmetric pattern (explicit
zeros pad the transpose positions).  It depends only on mesh, weights, and
boundary layout, so a simulation assembles it exactly once; the right-hand
side is cheap and rebuilt every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParseError, SingularSystem, TopologyError
from .mesh import DiamondCells, Mesh, NodeWeights, build_diamonds, node_weights
from .transport import (BC_DIRICHLET, classify_faces, dirichlet_node_data,
                        dirichlet_values)


@dataclass
class CsrMatrix:
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)


def csr_from_coo(n: int, rows, cols, vals, symmetrize_pattern=True) -> CsrMatrix:
    """Sorted, duplicate-summed CSR; optionally pad transpose positions with
    explicit zeros so (i, j) present <=> (j, i) present."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if symmetrize_pattern and len(rows):
        r0, c0, v0 = rows, cols, vals
        rows = np.concatenate([r0, c0])
        cols = np.concatenate([c0, r0])
        vals = np.concatenate([v0, np.zeros(len(v0))])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if len(rows):
        new_group = np.empty(len(rows), dtype=bool)
        new_group[0] = True
        new_group[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new_group)
        data = np.add.reduceat(vals, starts)
        r, c = rows[starts], cols[starts]
    else:
        data = vals
        r, c = rows, cols
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CsrMatrix(n=n, indptr=indptr, indices=c, data=data)


def save_matrix_market(mat: CsrMatrix, path):
    rows = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{mat.n} {mat.n} {mat.nnz}\n")
        for i, j, v in zip(rows, mat.indices, mat.data):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def load_matrix_market(path) -> CsrMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", path, 1)
    body = [(ln, t.strip()) for ln, t in enumerate(lines[1:], start=2)
            if t.strip() and not t.lstrip().startswith("%")]
    if not body:
        raise ParseError("missing size line", path)
    ln0, size = body[0]
    parts = size.split()
    if len(parts) != 3:
        raise ParseError("size line needs 'rows cols nnz'", path, ln0)
    try:
        nr, nc, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad size line '{size}'", path, ln0) from None
    if nr != nc:
        raise ParseError("only square matrices supported", path, ln0)
    if len(body) - 1 != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(body) - 1}", path)
    rows, cols, vals = [], [], []
    for ln, text in body[1:]:
        parts = text.split()
        if len(parts) != 3:
            raise ParseError(f"bad entry '{text}'", path, ln)
        try:
            rows.append(int(parts[0]) - 1)
            cols.append(int(parts[1]) - 1)
            vals.append(float(parts[2]))
        except ValueError:
            raise ParseError(f"bad entry '{text}'", path, ln) from None
    return csr_from_coo(nr, rows, cols, vals, symmetrize_pattern=False)


# --------------------------------------------------------------------------
# assembly

@dataclass
class PoissonProblem:
    """Assembled operator plus everything needed to rebuild b each step."""

    matrix: CsrMatrix
    lift: np.ndarray            # Dirichlet contributions to b
    pinned: int | None


def assemble_system(mesh: Mesh, diamonds: DiamondCells, weights: NodeWeights,
                    bc: dict, pin_cell: int | None = None) -> PoissonProblem:
    if any(lbl == "halo" for lbl in mesh.face_labels):
        raise TopologyError("Poisson assembly needs the global mesh, not a halo view")

    kind = classify_faces(mesh, bc)
    g_mid = dirichlet_values(mesh, bc, kind)
    node_idx, node_data = dirichlet_node_data(mesh, bc, kind)
    node_val = dict(zip(node_idx.tolist(), node_data))
    lift = np.zeros(mesh.n_cells)
    rows, cols, vals = [], [], []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    def node_term(row, node, coef):
        """Apply coef * P_node to LHS row (or move it to b when known)."""
        if node in node_val:
            lift[row] -= coef * node_val[node]
        else:
            sl = weights.node_slice(node)
            for c, w in zip(weights.cells[sl], weights.weights[sl]):
                add(row, int(c), coef * w)

    lr_vec = diamonds.lr_vec
    for f in range(mesh.n_faces):
        i, j = mesh.face_cells[f]
        i, j = int(i), int(j)
        a_node, b_node = (int(x) for x in mesh.face_nodes[f])
        inv2mu = 1.0 / (2.0 * diamonds.area[f])
        beta = mesh.face_lengths[f] ** 2 * inv2mu
        tau = float(np.dot(lr_vec[f], mesh.face_normals[f])) * mesh.face_lengths[f] * inv2mu
        # tau = (G_r - G_l).(B - A) / (2 mu_D): lr_vec is the rotated segment,
        # so its dot with n |s| recovers the tangential projection
        if j >= 0:
            add(i, i, beta)
            add(i, j, -beta)
            add(j, j, beta)
            add(j, i, -beta)
            node_term(i, a_node, -tau)
            node_term(i, b_node, tau)
            node_term(j, a_node, tau)
            node_term(j, b_node, -tau)
        elif kind[f] == BC_DIRICHLET:
            add(i, i, beta)
            lift[i] += beta * g_mid[f]
            # endpoint nodes of a Dirichlet face are Dirichlet by construction
            node_term(i, a_node, -tau)
            node_term(i, b_node, tau)

    pinned = None
    if not np.any(kind == BC_DIRICHLET):
        if pin_cell is None:
            raise SingularSystem(
                "all-Neumann operator has the constant nullspace; pin a cell")
        # replace the pinned row by the identity row (values only, pattern
        # kept) so every other row still annihilates constants; the pinned
        # unknown is forced to zero, and downstream rows multiply it by the
        # surviving column entries harmlessly
        pinned = int(pin_cell)
        vals = [0.0 if r == pinned else v for r, v in zip(rows, vals)]
        add(pinned, pinned, 1.0)
        lift[pinned] = 0.0

    matrix = csr_from_coo(mesh.n_cells, rows, cols, vals)
    return PoissonProblem(matrix=matrix, lift=lift, pinned=pinned)


def assemble_rhs(mesh: Mesh, source: np.ndarray, bc: dict,
                 problem: PoissonProblem | None = None,
                 diamonds: DiamondCells | None = None,
                 weights: NodeWeights | None = None,
                 pin_cell: int | None = None) -> np.ndarray:
    """b_i = mu_i * source_i + Dirichlet lift.  source is the RHS of
    -lap P = source (per unit area)."""
    source = np.asarray(source, dtype=np.float64)
    if source.shape != (mesh.n_cells,):
        raise DimensionMismatch(f"source has shape {source.shape}")
    if problem is None:
        diamonds = diamonds if diamonds is not None else build_diamonds(mesh)
        weights = weights if weights is not None else node_weights(mesh)
        problem = assemble_system(mesh, diamonds, weights, bc, pin_cell)
    b = mesh.areas * source + problem.lift
    if problem.pinned is not None:
        b[problem.pinned] = 0.0
    return b
