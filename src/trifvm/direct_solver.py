"""Sparse direct LU: factor once, solve every step.

The factorization is left-looking (Gilbert-Peierls): each column j solves
the sparse triangular system x = L \\ A[:, j], discovering its nonzero
pattern by depth-first reachability over the columns of L built so far, then
picks a pivot.  The matrix is first permuted symmetrically by reverse
Cuthill-McKee to keep fill local; within each column the natural diagonal is
kept whenever it is at least `threshold` (default 0.1) of the column's
largest candidate, otherwise the largest candidate is promoted -- classic
threshold partial pivoting with a full-pivoting fallback per column.  A
column whose best candidate is below 1e-14 * max|A| raises SingularMatrix
with the offending column.

The resulting factors satisfy  A[perm_row][:, perm_col] = L U  with L unit
lower triangular.  Factorization cost dominates; solves are two sparse
triangular sweeps and are what the time loop pays per step.

dense_lu_oracle is an independent reference path (plain partial-pivoting
elimination on a dense copy, n <= 500) used to cross-check the sparse
solver in tests; it shares no code with the sparse path on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMatrix
from .poisson import CsrMatrix

PIVOT_FLOOR = 1e-14
DEFAULT_THRESHOLD = 0.1


@dataclass
class LuFactors:
    n: int
    perm_row: np.ndarray   # A-row feeding elimination step t
    perm_col: np.ndarray   # A-column feeding column t (the RCM order)
    l_rows: list           # per column: row indices (permuted space), below diag
    l_vals: list
    u_rows: list           # per column: pivotal step indices above the diagonal
    u_vals: list
    u_diag: np.ndarray
    pivot_rows: np.ndarray  # permuted-space row chosen at each step
    fill_nnz: int


def adjacency_pattern(mat: CsrMatrix):
    """Symmetrized off-diagonal pattern as per-vertex sorted neighbor lists."""
    rows = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    cols = mat.indices
    keep = rows != cols
    heads = np.concatenate([rows[keep], cols[keep]])
    tails = np.concatenate([cols[keep], rows[keep]])
    order = np.lexsort((tails, heads))
    heads, tails = heads[order], tails[order]
    if len(heads):
        uniq = np.empty(len(heads), dtype=bool)
        uniq[0] = True
        uniq[1:] = (heads[1:] != heads[:-1]) | (tails[1:] != tails[:-1])
        heads, tails = heads[uniq], tails[uniq]
    ptr = np.zeros(mat.n + 1, dtype=np.int64)
    np.add.at(ptr, heads + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, tails


def rcm_order(mat: CsrMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee over the symmetrized pattern.

    Deterministic: each component starts from its minimum-degree vertex
    (lowest index on ties) and neighbors enqueue sorted by (degree, index).
    """
    ptr, adj = adjacency_pattern(mat)
    degree = np.diff(ptr)
    visited = np.zeros(mat.n, dtype=bool)
    order = np.empty(mat.n, dtype=np.int64)
    pos = 0
    by_degree = sorted(range(mat.n), key=lambda v: (degree[v], v))
    for start in by_degree:
        if visited[start]:
            continue
        visited[start] = True
        order[pos] = start
        pos += 1
        head = pos - 1
        while head < pos:
            v = order[head]
            head += 1
            nbrs = [int(w) for w in adj[ptr[v]:ptr[v + 1]] if not visited[w]]
            nbrs.sort(key=lambda w: (degree[w], w))
            for w in nbrs:
                visited[w] = True
                order[pos] = w
                pos += 1
    return order[::-1].copy()


def factorize(mat: CsrMatrix, threshold: float = DEFAULT_THRESHOLD,
              reorder: bool = True) -> LuFactors:
    n = mat.n
    perm_col = rcm_order(mat) if reorder else np.arange(n, dtype=np.int64)
    inv_perm = np.empty(n, dtype=np.int64)
    inv_perm[perm_col] = np.arange(n)

    # columns of B = A[perm][:, perm], each as (rows, vals)
    a_rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    b_rows = inv_perm[a_rows]
    b_cols = inv_perm[mat.indices]
    order = np.lexsort((b_rows, b_cols))
    b_rows, b_cols, b_vals = b_rows[order], b_cols[order], mat.data[order]
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(col_ptr, b_cols + 1, 1)
    np.cumsum(col_ptr, out=col_ptr)

    max_abs = float(np.max(np.abs(mat.data))) if mat.nnz else 0.0
    if max_abs == 0.0:
        raise SingularMatrix("matrix has no nonzero entries", column=0)
    tiny = PIVOT_FLOOR * max_abs

    l_rows: list = [None] * n
    l_vals: list = [None] * n
    u_rows: list = [None] * n
    u_vals: list = [None] * n
    u_diag = np.zeros(n)
    pivot_row = np.empty(n, dtype=np.int64)
    step_of = np.full(n, -1, dtype=np.int64)  # permuted row -> elimination step

    x = np.zeros(n)
    stamp = np.full(n, -1, dtype=np.int64)
    stack = np.empty(n, dtype=np.int64)
    child = np.empty(n, dtype=np.int64)
    topo = np.empty(n, dtype=np.int64)

    for j in range(n):
        sl = slice(col_ptr[j], col_ptr[j + 1])
        seeds = b_rows[sl]
        # depth-first reach over L columns; reverse postorder = elimination order
        ntopo = 0
        for s in seeds:
            if stamp[s] == j:
                continue
            depth = 0
            stack[0] = s
            child[0] = 0
            stamp[s] = j
            while depth >= 0:
                r = stack[depth]
                t = step_of[r]
                kids = l_rows[t] if t >= 0 else None
                advanced = False
                if kids is not None:
                    c = child[depth]
                    while c < len(kids):
                        w = kids[c]
                        c += 1
                        if stamp[w] != j:
                            child[depth] = c
                            stamp[w] = j
                            depth += 1
                            stack[depth] = w
                            child[depth] = 0
                            advanced = True
                            break
                    else:
                        child[depth] = c
                if not advanced:
                    topo[ntopo] = r
                    ntopo += 1
                    depth -= 1
        reach = topo[:ntopo][::-1]

        x[reach] = 0.0
        x[seeds] = b_vals[sl]
        for r in reach:
            t = step_of[r]
            if t >= 0 and len(l_rows[t]):
                x[l_rows[t]] -= l_vals[t] * x[r]

        cand = reach[step_of[reach] < 0]
        if cand.size == 0:
            raise SingularMatrix(f"column {j} is structurally singular", column=j)
        cand_abs = np.abs(x[cand])
        best = float(cand_abs.max())
        if best < tiny:
            raise SingularMatrix(
                f"column {j}: best pivot {best:.3e} below {tiny:.3e}", column=j)
        if step_of[j] < 0 and stamp[j] == j and abs(x[j]) >= threshold * best:
            piv = j  # keep the diagonal when it is strong enough
        else:
            hits = cand[cand_abs == best]
            piv = int(hits.min())

        pivot = x[piv]
        upper = reach[step_of[reach] >= 0]
        usteps = step_of[upper]
        uorder = np.argsort(usteps)
        u_rows[j] = usteps[uorder]
        u_vals[j] = x[upper][uorder].copy()
        u_diag[j] = pivot
        lower = cand[cand != piv]
        l_rows[j] = lower.copy()
        l_vals[j] = x[lower] / pivot
        pivot_row[j] = piv
        step_of[piv] = j

    fill = 2 * n + sum(len(l) for l in l_rows) + sum(len(u) for u in u_rows)
    return LuFactors(n=n, perm_row=perm_col[pivot_row], perm_col=perm_col,
                     l_rows=l_rows, l_vals=l_vals, u_rows=u_rows, u_vals=u_vals,
                     u_diag=u_diag, pivot_rows=pivot_row, fill_nnz=fill)


def solve(factors: LuFactors, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (factors.n,):
        raise DimensionMismatch(f"rhs has shape {b.shape}, system is {factors.n}")
    n = factors.n
    z = b[factors.perm_row].copy()
    # forward sweep indexes rows in permuted space; translate once
    step_of = np.empty(n, dtype=np.int64)
    step_of[factors.pivot_rows] = np.arange(n)
    for j in range(n):
        if len(factors.l_rows[j]):
            z[step_of[factors.l_rows[j]]] -= factors.l_vals[j] * z[j]
    for j in range(n - 1, -1, -1):
        z[j] /= factors.u_diag[j]
        if len(factors.u_rows[j]):
            z[factors.u_rows[j]] -= factors.u_vals[j] * z[j]
    out = np.empty(n)
    out[factors.perm_col] = z
    return out


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
