"""Sparse direct LU: factor once, solve every step.

Multifrontal (Duff & Reid 1983; Amestoy et al. 2001, the scheme of MUMPS):
the matrix, ordered by reverse Cuthill-McKee as B = A[perm][:, perm] to keep
fill local, is eliminated as a tree of small dense fronts, so the Python
overhead is paid per front column rather than per nonzero.  The ordering is
the level sweep `partition.cuthill_mckee` that also splits the mesh, run
on the pattern of A + A^T.

Symbolic phase, on the pattern of B + B^T.  Column j's structure (its rows
below j in the Cholesky factor of that pattern) is its own lower pattern
merged with its children's structures minus j; its smallest entry is j's
parent in the elimination tree (Liu 1990).  Runs of tree edges j -> j + 1
along which the structure shrinks by one row are the fundamental
supernodes; supernodes joined by a tree edge are amalgamated while at most
RELAX_WIDTH columns wide (the explicit zeros this adds count as fill).  A
front's index list is its columns, then its last column's structure.

Numeric phase, supernodes in order (children first).  A front is assembled
dense from B's entries whose smaller index is one of its columns plus its
children's contribution blocks (extend-add through index maps); its
fully-summed columns are eliminated one by one; U12 = L11^-1 F12; and
F22 - L21 U12, one matrix product, is the block its parent receives.  The
inverses of L11 and U11 are kept, so solves are dense matrix-vector sweeps.

Pivoting, per front column: the diagonal is kept when it is at least
`threshold` (default 0.1) of the column's largest entry in the whole front,
else the largest fully-summed row is swapped in if it passes the same test.
A column where neither passes, or whose largest entry is below
1e-14 * max|A|, raises SingularMatrix naming the column of A.

The factors satisfy  A[perm_row][:, perm_col] = L U  with L unit lower
triangular; row swaps stay inside a front.  factorize ends with a check
solve of A x = A 1: the residual ||A x - b|| / (||A|| ||x|| + ||b||)
(infinity norms) is kept as `check_residual`; above CHECK_BOUND it raises
SingularMatrix.

dense_lu_oracle is an independent reference path (plain partial-pivoting
elimination on a dense copy, n <= 500) used to cross-check the sparse
solver in tests; it shares no code with the sparse path on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .partition import DualGraph, cuthill_mckee, graph_from_pairs
from .poisson import CsrMatrix

PIVOT_FLOOR = 1e-14
DEFAULT_THRESHOLD = 0.1
RELAX_WIDTH = 32     # widest supernode amalgamation builds
CHECK_BOUND = 1e-8   # largest relative residual the check solve accepts


@dataclass(slots=True)
class Front:
    """One supernode's factor blocks; columns first .. first + width - 1."""
    first: int
    rows: np.ndarray    # front index list in B; rows[:width] are its columns
    l_inv: np.ndarray   # inverse of the unit lower L11 (width x width)
    u_inv: np.ndarray   # inverse of U11
    l21: np.ndarray     # (m - width) x width; its rows are rows[width:] of B
    u12: np.ndarray     # width x (m - width); its columns are rows[width:]

    @property
    def width(self) -> int:
        return len(self.l_inv)


@dataclass
class LuFactors:
    n: int
    perm_row: np.ndarray    # A-row feeding elimination step t
    perm_col: np.ndarray    # A-column feeding column t (the RCM order)
    pivot_rows: np.ndarray  # permuted-space row chosen at each step
    fronts: list            # Front per supernode, children before parents
    fill_nnz: int           # entries of L and U, explicit zeros included
    check_residual: float = 0.0

    @property
    def offdiag_pivots(self) -> int:
        return int(np.count_nonzero(self.pivot_rows != np.arange(self.n)))


def adjacency_pattern(mat: CsrMatrix) -> DualGraph:
    """Symmetrized off-diagonal pattern as a CSR graph."""
    rows = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    keep = rows != mat.indices
    rows, cols = rows[keep], mat.indices[keep]
    return graph_from_pairs(mat.n, np.concatenate([rows, cols]),
                            np.concatenate([cols, rows]))


def rcm_order(mat: CsrMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee over the symmetrized pattern.

    Deterministic: each component starts from its minimum-degree vertex
    (lowest index on ties) and neighbors enqueue sorted by (degree, index).
    """
    graph = adjacency_pattern(mat)
    by_degree = np.argsort(np.diff(graph.ptr), kind="stable")
    return cuthill_mckee(graph, np.ones(mat.n, dtype=bool),
                         by_degree)[::-1].copy()


def _supernodes(n: int, b_rows: np.ndarray, b_cols: np.ndarray):
    """Symbolic phase: each supernode's first column (then n), each front's
    index list and children, and the supernode of each column."""
    lo, hi = np.minimum(b_rows, b_cols), np.maximum(b_rows, b_cols)
    off = lo != hi
    lower = graph_from_pairs(n, lo[off], hi[off])   # lower pattern of B + B^T
    lo_ptr, hi = lower.ptr, lower.adj
    parent = np.full(n, -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    struct = [None] * n
    pending = [[] for _ in range(n)]   # children's structures, minus the parent
    for j in range(n):
        parts = pending[j] + [hi[lo_ptr[j]:lo_ptr[j + 1]]]
        if len(parts) == 1:
            s = parts[0]
        else:   # the sorted union: sort, then drop repeats of a neighbour
            s = np.sort(np.concatenate(parts))
            keep = np.ones(len(s), dtype=bool)
            keep[1:] = s[1:] != s[:-1]
            s = s[keep]
        struct[j], count[j] = s, len(s)
        if len(s):
            parent[j] = s[0]
            pending[s[0]].append(s[1:])

    tree_edge = parent[:-1] == np.arange(1, n)
    fundamental = tree_edge & (count[:-1] == count[1:] + 1)
    starts = [0] + (np.flatnonzero(~fundamental) + 1).tolist()
    firsts: list = []
    for f, end in zip(starts, starts[1:] + [n]):
        # amalgamate along a tree edge while the run stays RELAX_WIDTH wide
        if not (firsts and tree_edge[f - 1] and end - firsts[-1] <= RELAX_WIDTH):
            firsts.append(f)
    firsts.append(n)
    rows = [np.concatenate([np.arange(f, end), struct[end - 1]])
            for f, end in zip(firsts[:-1], firsts[1:])]
    sn_of = np.repeat(np.arange(len(rows)), np.diff(firsts))
    kids: list = [[] for _ in rows]
    for s, end in enumerate(firsts[1:]):
        if parent[end - 1] >= 0:
            kids[sn_of[parent[end - 1]]].append(s)
    return firsts, rows, kids, sn_of


def factorize(mat: CsrMatrix, threshold: float = DEFAULT_THRESHOLD,
              reorder: bool = True) -> LuFactors:
    n = mat.n
    perm_col = rcm_order(mat) if reorder else np.arange(n, dtype=np.int64)
    inv_perm = np.empty(n, dtype=np.int64)
    inv_perm[perm_col] = np.arange(n)

    max_abs = float(np.abs(mat.data).max(initial=0.0))
    if max_abs == 0.0:
        raise SingularMatrix("matrix has no nonzero entries", column=0)
    tiny = PIVOT_FLOOR * max_abs

    b_rows = inv_perm[np.repeat(np.arange(n), np.diff(mat.indptr))]
    b_cols = inv_perm[mat.indices]
    firsts, front_rows, kids, sn_of = _supernodes(n, b_rows, b_cols)
    # B's entries, grouped by the front that assembles them
    owner = sn_of[np.minimum(b_rows, b_cols)]
    by_front = np.argsort(owner, kind="stable")
    b_rows, b_cols, b_vals = b_rows[by_front], b_cols[by_front], \
        mat.data[by_front]
    entry_ptr = np.searchsorted(owner[by_front], np.arange(len(kids) + 1))

    pivot_rows = np.arange(n, dtype=np.int64)
    where = np.empty(n, dtype=np.int64)   # global index -> front position
    contrib: dict = {}   # supernode -> (its rows past the columns, Schur block)
    fronts, fill = [], 0
    for s, rows in enumerate(front_rows):
        f, w, m = firsts[s], firsts[s + 1] - firsts[s], len(rows)
        where[rows] = np.arange(m)
        front = np.zeros((m, m))
        sl = slice(entry_ptr[s], entry_ptr[s + 1])
        front[where[b_rows[sl]], where[b_cols[sl]]] = b_vals[sl]
        for c in kids[s]:
            idx, block = contrib.pop(c)
            front[np.ix_(where[idx], where[idx])] += block

        for k in range(w):
            col = np.abs(front[k:, k])
            big = col.max()
            p = 0 if col[0] >= threshold * big else int(np.argmax(col[:w - k]))
            if big < tiny or col[p] < threshold * big:
                c = int(perm_col[f + k])
                raise SingularMatrix(
                    f"column {c}: best fully-summed pivot {col[p]:.3e}, column "
                    f"max {big:.3e} (threshold {threshold}, floor {tiny:.3e})",
                    column=c)
            if p:
                front[[k, k + p]] = front[[k + p, k]]
                pivot_rows[[f + k, f + k + p]] = pivot_rows[[f + k + p, f + k]]
            front[k + 1:, k] /= front[k, k]
            front[k + 1:, k + 1:w] -= front[k + 1:, k, None] * front[k, None, k + 1:w]

        l_inv = np.linalg.inv(np.tril(front[:w, :w], -1) + np.eye(w))
        u_inv = np.linalg.inv(np.triu(front[:w, :w]))
        l21 = front[w:, :w].copy()
        u12 = l_inv @ front[:w, w:]
        if m > w:
            contrib[s] = rows[w:], front[w:, w:] - l21 @ u12
        fronts.append(Front(f, rows, l_inv, u_inv, l21, u12))
        fill += w * (w + 1) + 2 * w * (m - w)

    lu = LuFactors(n=n, perm_row=perm_col[pivot_rows], perm_col=perm_col,
                   pivot_rows=pivot_rows, fronts=fronts, fill_nnz=fill)
    lu.check_residual = _check_residual(mat, lu)
    if not lu.check_residual <= CHECK_BOUND:
        raise SingularMatrix(f"check solve residual {lu.check_residual:.3e} "
                             f"above {CHECK_BOUND:.0e}")
    return lu


def _check_residual(mat: CsrMatrix, lu: LuFactors) -> float:
    """Normwise relative residual of the solve of A x = A 1."""
    rows = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    b = np.bincount(rows, mat.data, minlength=mat.n)
    x = _sweep(lu, b)
    r = np.bincount(rows, mat.data * x[mat.indices], minlength=mat.n) - b
    a_norm = np.bincount(rows, np.abs(mat.data), minlength=mat.n).max()
    return float(np.abs(r).max() / (a_norm * np.abs(x).max() + np.abs(b).max()))


def _sweep(lu: LuFactors, b: np.ndarray) -> np.ndarray:
    """Forward then backward sweep over the fronts."""
    z = b[lu.perm_col]   # in B's row order; a front's rows become steps
    piv = lu.pivot_rows
    for fr in lu.fronts:
        f, w = fr.first, fr.width
        y = fr.l_inv @ z[piv[f:f + w]]
        z[f:f + w] = y
        z[fr.rows[w:]] -= fr.l21 @ y
    for fr in reversed(lu.fronts):
        f, w = fr.first, fr.width
        z[f:f + w] = fr.u_inv @ (z[f:f + w] - fr.u12 @ z[fr.rows[w:]])
    out = np.empty(lu.n)
    out[lu.perm_col] = z
    return out


def solve(factors: LuFactors, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (factors.n,):
        raise DimensionMismatch(f"rhs has shape {b.shape}, system is {factors.n}")
    return _sweep(factors, b)


def dense_lu_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference solve by dense partial-pivoting elimination (n <= 500).

    Independent of the sparse path; meant for cross-checks in tests.
    """
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"matrix shape {a.shape}")
    if b.shape != (n,):
        raise DimensionMismatch(f"rhs shape {b.shape}")
    if n > 500:
        raise DimensionMismatch("oracle capped at n = 500")
    tiny = PIVOT_FLOOR * float(np.max(np.abs(a))) if a.size else 0.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) <= tiny:
            raise SingularMatrix(f"column {col}: pivot {a[piv, col]:.3e}", column=col)
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
