"""Poisson operator assembly: A encodes -laplacian, row-scaled by cell area.

The discrete equation per cell i is

    - sum_f s_f (grad P . n)_f |s_f|  =  mu_i * source_i + lift_i

so A P = b solves  -lap P = source  with the diamond stencil of the
transport module: the flux weights beta and tau of `DiamondCells`, expanded
through the node interpolation weights and scattered with the cell signs, so
A x equals the negated explicit diffusive residual (D = 1) plus the lift.
Dirichlet data is eliminated at assembly time: boundary face values and
boundary node values are known, and their contributions move into the lift
vector, keeping the matrix symmetric where the scheme is.  Homogeneous
Neumann faces contribute nothing.  An all-Neumann operator has the constant
nullspace and is rejected unless a cell is pinned to zero.

The matrix is stored CSR with its pattern as assembled (the solver works on
A + A^T).  It depends only on the geometry and the boundary layout, so a
simulation assembles it exactly once; the right-hand side is cheap and
rebuilt every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .mesh import DiamondCells, Mesh, NodeWeights, cell_sum
from .partition import graph_from_pairs
from .transport import BC_DIRICHLET, BC_NEUMANN, diamond_stencil


@dataclass
class CsrMatrix:
    """n x n CSR, columns ascending per row, the pattern as assembled."""
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def csr_from_coo(n: int, rows, cols, vals) -> CsrMatrix:
    """CSR of the triplets, columns ascending per row; duplicates are summed
    in input order and explicit zeros are kept."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    g = graph_from_pairs(n, rows, cols)
    keys = np.repeat(np.arange(n), np.diff(g.ptr)) * n + g.adj
    slot = np.searchsorted(keys, rows * n + cols)
    data = np.bincount(slot, weights=np.asarray(vals, dtype=np.float64),
                       minlength=len(keys))
    return CsrMatrix(n=n, indptr=g.ptr, indices=g.adj, data=data)


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
    """Expand the diamond stencil under bc into the matrix and its lift.

    The stencil's flux across each non-Neumann face is affine in the cell
    values, F = Phi u + phi0: known values (the Dirichlet datum at the
    midpoint, pinned nodes) go to phi0 and a free node expands into its
    interpolation weights.  With S the signed cell-face incidence, the
    explicit residual is S F, so A = -S Phi and lift = S phi0.
    """
    if len(mesh.cell_faces) != mesh.n_cells:
        raise ConfigError("Poisson assembly needs the global mesh, not a halo view")

    st, beta = diamond_stencil(mesh, bc), diamonds.beta

    # Phi as (face, column, value) triplets: beta (u_right - u_left) ...
    faces = np.flatnonzero(st.kind != BC_NEUMANN)
    left, right = mesh.face_cells[faces].T
    inner = right >= 0
    f, c, v = [faces, faces[inner]], [left, right[inner]], \
        [-beta[faces], beta[faces[inner]]]
    phi0 = np.zeros(mesh.n_faces)
    phi0[faces[~inner]] = beta[faces[~inner]] * st.face_data[faces[~inner]]
    # ... + tau (u_A - u_B)
    slot = np.full(mesh.n_nodes, -1)    # index into node_data, -1 if free
    slot[st.pinned] = np.arange(len(st.pinned))
    for end, sign in ((0, 1.0), (1, -1.0)):
        node = mesh.face_nodes[faces, end]
        tau = sign * diamonds.tau[faces]
        known = slot[node] >= 0
        phi0[faces[known]] += tau[known] * st.node_data[slot[node[known]]]
        free = np.flatnonzero(~known)
        counts = np.diff(weights.ptr)[node[free]]
        start = weights.ptr[node[free]] - np.cumsum(counts) + counts
        entry = np.repeat(start, counts) + np.arange(counts.sum())
        term = np.repeat(free, counts)
        f.append(faces[term])
        c.append(weights.cells[entry])
        v.append(tau[term] * weights.weights[entry])
    f, c, v = (np.concatenate(x) for x in (f, c, v))

    # scatter with the cell signs: +1 for the left cell, -1 for the right
    right = mesh.face_cells[f, 1]
    inner = right >= 0
    rows = np.concatenate([mesh.face_cells[f, 0], right[inner]])
    cols = np.concatenate([c, c[inner]])
    vals = np.concatenate([-v, v[inner]])
    lift = cell_sum(mesh, phi0)

    pinned = None
    if not np.any(st.kind == BC_DIRICHLET):
        if pin_cell is None:
            raise NumericError(
                "all-Neumann operator has the constant nullspace; pin a cell")
        # replace the pinned row by the identity row (values only, pattern
        # kept) so every other row still annihilates constants; the pinned
        # unknown is forced to zero, and downstream rows multiply it by the
        # surviving column entries harmlessly
        pinned = int(pin_cell)
        vals[rows == pinned] = 0.0
        rows, cols = np.append(rows, pinned), np.append(cols, pinned)
        vals = np.append(vals, 1.0)
        lift[pinned] = 0.0

    matrix = csr_from_coo(mesh.n_cells, rows, cols, vals)
    return PoissonProblem(matrix=matrix, lift=lift, pinned=pinned)


def assemble_rhs(mesh: Mesh, source: np.ndarray, bc: dict,
                 problem: PoissonProblem) -> np.ndarray:
    """b_i = mu_i * source_i + Dirichlet lift.  source is the RHS of
    -lap P = source (per unit area).

    bc is not read (the problem's lift already carries its data); it keeps
    its third place because callers pass it by position.
    """
    source = np.asarray(source, dtype=np.float64)
    if source.shape != (mesh.n_cells,):
        raise NumericError(f"source has shape {source.shape}")
    b = mesh.areas * source + problem.lift
    if problem.pinned is not None:
        b[problem.pinned] = 0.0
    return b
