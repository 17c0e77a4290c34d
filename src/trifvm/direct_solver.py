"""Sparse direct LU: factor once, solve every step.

Multifrontal (Duff & Reid 1983; Amestoy et al. 2001, the scheme of MUMPS):
the matrix, ordered by nested dissection as B = A[perm][:, perm] to keep
fill low, is eliminated as a tree of small dense fronts, so the Python
overhead is paid per front column rather than per nonzero.

Ordering, on the pattern of A + A^T (George 1973).  The separators come
from the Cuthill-McKee level sweep `partition.cuthill_mckee` that also
splits the mesh: a set of more than LEAF_SIZE vertices is swept from its
vertex of lowest (degree, index), and the level holding its middle vertex
(never its last level), thinned to the vertices with a neighbour in a later
level, is ordered after the vertices before it and those after it, each
side dissected again.  A leaf takes its sweep reversed, which is reverse
Cuthill-McKee: a matrix that fits in one leaf gets that order bit for bit.
The sets of one depth of the dissection are swept side by side.

Symbolic phase, on the pattern of B + B^T.  Column j's structure (its rows
below j in the Cholesky factor of that pattern) is its own lower pattern
merged with its children's structures minus j; its smallest entry is j's
parent in the elimination tree (Liu 1990).  Runs of tree edges j -> j + 1
along which the structure shrinks by one row are the fundamental
supernodes; supernodes joined by a tree edge are amalgamated while at most
RELAX_WIDTH columns wide (the explicit zeros this adds count as fill).  A
front's index list is its columns, then its last column's structure.  A
front's level is its height in the supernode tree (leaves 0); the fronts of
one level are independent (Liu 1990), and each level's are grouped by
padded shape into level stacks, allocated once, zero-padded.

Numeric phase, supernodes in order (children first).  A front is assembled
dense from B's entries whose smaller index is one of its columns plus its
children's contribution blocks (extend-add through index maps); its
fully-summed columns are eliminated one by one; U12 = L11^-1 F12; and
F22 - L21 U12, one matrix product, is the block its parent receives.  The
inverses of L11 and U11, L21 and U12 are written into the front's slot of
its level stack (the U11 inverses one batched inversion per stack), and a
Front's blocks are views of that slot: the factor is stored once.

Solve: a forward sweep from the leaves and a backward sweep from the root,
per level stack a gather, batched matrix-vector products (np.matmul) and a
scatter; the forward updates of shared ancestor rows are summed by one
np.bincount in stack order, so reruns are byte-identical.

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
from .partition import DualGraph, cuthill_mckee, graph_from_pairs, neighbors
from .poisson import CsrMatrix

PIVOT_FLOOR = 1e-14
DEFAULT_THRESHOLD = 0.1
RELAX_WIDTH = 32     # widest supernode amalgamation builds
LEAF_SIZE = 64       # largest vertex set nested dissection leaves uncut
CHECK_BOUND = 1e-8   # largest relative residual the check solve accepts
STACK_ENTRIES = 2048  # padded block entries worth one more level stack


@dataclass(slots=True)
class Front:
    """One supernode's factor blocks; columns first .. first + width - 1.

    The blocks are views into the slot of its level stack."""
    first: int
    rows: np.ndarray    # front index list in B; rows[:width] are its columns
    l_inv: np.ndarray   # inverse of the unit lower L11 (width x width)
    u_inv: np.ndarray   # inverse of U11
    l21: np.ndarray     # (m - width) x width; its rows are rows[width:] of B
    u12: np.ndarray     # width x (m - width); its columns are rows[width:]

    @property
    def width(self) -> int:
        return len(self.l_inv)


@dataclass(slots=True)
class LevelStack:
    """The fronts of one elimination-tree level whose widths and rows past
    the columns pad to the same (wp, rp), stacked in supernode order.

    Padding is zero in the blocks and index n in the index arrays: the
    sweep's spare entry, which padded reads find zero and padded writes
    leave zero."""
    cols: np.ndarray     # (g, wp) each front's columns of B
    piv: np.ndarray      # (g, wp) the row feeding each column (pivots)
    rest: np.ndarray     # (g, rp) each front's rows past its columns
    targets: np.ndarray  # the distinct entries of rest, ascending
    slot: np.ndarray     # rest, flattened, as positions in targets
    l_inv: np.ndarray    # (g, wp, wp)
    u_inv: np.ndarray    # (g, wp, wp)
    l21: np.ndarray      # (g, rp, wp)
    u12: np.ndarray      # (g, wp, rp)


@dataclass
class LuFactors:
    n: int
    perm_row: np.ndarray    # A-row feeding elimination step t
    perm_col: np.ndarray    # A-column feeding column t (the fill order)
    pivot_rows: np.ndarray  # permuted-space row chosen at each step
    fronts: list            # Front per supernode, children before parents
    stacks: list            # LevelStack per level and shape, leaves first
    levels: int             # height of the supernode tree
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
    """Nested-dissection order over the symmetrized pattern (module doc).

    It keeps the name of the reverse Cuthill-McKee order it replaced, which
    a matrix of at most LEAF_SIZE rows still gets, so callers that look the
    ordering up by name (the benchmark's tracer times it so) find it.
    """
    return dissection(adjacency_pattern(mat))[0]


def dissection(graph: DualGraph):
    """Nested-dissection order of a graph, and its splits: one row per
    separator, (first place, near count, far count, separator count), for
    the near side, the far side and the separator placed in that order.
    The ordering needs only the order; the splits let the separators be
    checked."""
    n = graph.n
    by_degree = np.argsort(np.diff(graph.ptr), kind="stable")
    perm = np.empty(n, dtype=np.int64)
    splits = [np.empty((0, 4), dtype=np.int64)]
    # the sets of one depth: the set of each vertex (-1 for none) and each
    # set's first place in perm
    part, lo = np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    while True:
        order, depth = cuthill_mckee(graph, part,
                                     by_degree[part[by_degree] >= 0])
        sid = part[order]
        size = np.bincount(sid, minlength=len(lo))
        leaf = size[sid] <= LEAF_SIZE
        back = (lo + np.cumsum(size) - 1)[sid] - np.arange(len(order))
        perm[back[leaf]] = order[leaf]
        big = size > LEAF_SIZE
        if not big.any():
            break
        order, depth = order[~leaf], depth[~leaf]
        sid = (np.cumsum(big) - 1)[sid[~leaf]]
        size, lo = size[big], lo[big]
        first = np.cumsum(size) - size
        mid = np.minimum(depth[first + size // 2],
                         np.maximum.reduceat(depth, first) - 1)[sid]
        side = (depth > mid).astype(np.int64)   # 0 near, 1 far, 2 separator
        beyond = np.zeros(n, dtype=bool)
        beyond[order[side == 1]] = True
        cand = np.flatnonzero(depth == mid)
        nbrs, ends = neighbors(graph, order[cand])
        side[cand[np.searchsorted(ends, np.flatnonzero(beyond[nbrs]),
                                  side="right")]] = 2
        count = np.bincount(sid * 3 + side, minlength=3 * len(lo))
        count = count.reshape(-1, 3)
        splits.append(np.column_stack([lo, count]))
        sep = side == 2
        perm[(lo + count[:, 0] + count[:, 1] - np.cumsum(count[:, 2])
              + count[:, 2])[sid[sep]]
             + np.arange(np.count_nonzero(sep))] = order[sep]
        # the next depth: each side that is not empty is a set
        kept = count[:, :2].ravel() > 0
        part = np.full(n, -1)
        part[order[~sep]] = (np.cumsum(kept) - 1)[(sid * 2 + side)[~sep]]
        lo = np.column_stack([lo, lo + count[:, 0]]).ravel()[kept]
    return perm, np.concatenate(splits)


def _supernodes(n: int, b_rows: np.ndarray, b_cols: np.ndarray):
    """Symbolic phase: each supernode's first column (then n), each front's
    index list and children, and the supernode of each column."""
    lo, hi = np.minimum(b_rows, b_cols), np.maximum(b_rows, b_cols)
    off = lo != hi
    lower = graph_from_pairs(n, lo[off], hi[off])   # lower pattern of B + B^T
    ptr, hi = lower.ptr.tolist(), lower.adj.tolist()
    parent = np.full(n, -1, dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)
    struct = [None] * n   # Python lists: a column's merge is a few µs
    pending = [[] for _ in range(n)]   # children's structures, minus the parent
    for j in range(n):
        s = hi[ptr[j]:ptr[j + 1]]
        if pending[j]:
            s = sorted(set(s).union(*pending[j]))
            pending[j] = None
        struct[j], count[j] = s, len(s)
        if j and parent[j - 1] == j and count[j - 1] == len(s) + 1:
            struct[j - 1] = None   # inside a fundamental supernode
        if s:
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
    rows = [np.array(list(range(f, end)) + struct[end - 1], dtype=np.int64)
            for f, end in zip(firsts[:-1], firsts[1:])]
    sn_of = np.repeat(np.arange(len(rows)), np.diff(firsts))
    kids: list = [[] for _ in rows]
    for s, end in enumerate(firsts[1:]):
        if parent[end - 1] >= 0:
            kids[sn_of[parent[end - 1]]].append(s)
    return firsts, rows, kids, sn_of


def _shape_groups(shapes: list) -> list:
    """Split one level's fronts, (index, width, rows past the columns), into
    groups padded to one shape each: bucketed by width on a 1, 2, 3, 4, 6,
    8, 12, ... ladder, each bucket joins the group before it while that adds
    fewer padded entries than a stack costs the sweep, STACK_ENTRIES."""
    def padded(group):
        wp = max(w for _, w, _ in group)
        return len(group) * wp * (wp + max(r for _, _, r in group))

    buckets: dict = {}
    for shape in shapes:
        p = 1 << (shape[1] - 1).bit_length()
        buckets.setdefault(3 * p // 4 if 2 < shape[1] <= 3 * p // 4 else p,
                           []).append(shape)
    groups: list = []
    for _, bucket in sorted(buckets.items()):
        if groups and padded(groups[-1] + bucket) < \
                padded(groups[-1]) + padded(bucket) + STACK_ENTRIES:
            groups[-1] = sorted(groups[-1] + bucket)
        else:
            groups.append(bucket)
    return groups


def _level_stacks(n: int, firsts: list, rows: list, kids: list):
    """Zeroed level stacks for the fronts, and each front's (stack, slot)."""
    height = np.zeros(len(rows), dtype=np.int64)
    for s, ks in enumerate(kids):
        if ks:
            height[s] = height[ks].max() + 1
    shapes: list = [[] for _ in range(int(height.max(initial=-1)) + 1)]
    for s, (f, end) in enumerate(zip(firsts[:-1], firsts[1:])):
        shapes[height[s]].append((s, end - f, len(rows[s]) - end + f))
    stacks, slot_of = [], [None] * len(rows)
    for level in shapes:
        for group in _shape_groups(level):
            g = len(group)
            wp = max(w for _, w, _ in group)
            rp = max(r for _, _, r in group)
            cols = np.full((g, wp), n, dtype=np.int64)
            rest = np.full((g, rp), n, dtype=np.int64)
            for i, (s, w, r) in enumerate(group):
                cols[i, :w] = rows[s][:w]
                rest[i, :r] = rows[s][w:]
                slot_of[s] = (len(stacks), i)
            targets, slot = np.unique(rest, return_inverse=True)
            stacks.append(LevelStack(
                cols=cols, piv=cols, rest=rest, targets=targets,
                slot=slot.ravel(), l_inv=np.zeros((g, wp, wp)),
                u_inv=np.zeros((g, wp, wp)), l21=np.zeros((g, rp, wp)),
                u12=np.zeros((g, wp, rp))))
    return stacks, slot_of, len(shapes)


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
    stacks, slot_of, levels = _level_stacks(n, firsts, front_rows, kids)
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
        l21 = front[w:, :w].copy()
        u12 = l_inv @ front[:w, w:]
        if m > w:
            contrib[s] = rows[w:], front[w:, w:] - l21 @ u12
        st, i = stacks[slot_of[s][0]], slot_of[s][1]
        blocks = (st.l_inv[i, :w, :w], st.u_inv[i, :w, :w],
                  st.l21[i, :m - w, :w], st.u12[i, :w, :m - w])
        for view, block in zip(blocks, (l_inv, np.triu(front[:w, :w]),
                                        l21, u12)):
            view[...] = block
        fronts.append(Front(f, rows, *blocks))
        fill += w * (w + 1) + 2 * w * (m - w)
    for st in stacks:   # the pivots are known now
        st.piv = np.append(pivot_rows, n)[st.cols]
        # U11 in place of its inverse, identity on the padding: invert the
        # whole stack at once, then clear the padding again
        pad = st.u_inv.reshape(len(st.cols), -1)[:, ::st.cols.shape[1] + 1]
        pad[st.cols == n] = 1.0
        st.u_inv[...] = np.linalg.inv(st.u_inv)
        pad[st.cols == n] = 0.0

    lu = LuFactors(n=n, perm_row=perm_col[pivot_rows], perm_col=perm_col,
                   pivot_rows=pivot_rows, fronts=fronts, stacks=stacks,
                   levels=levels, fill_nnz=fill)
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
    """Forward sweep from the leaves, then backward from the root, one
    level stack at a time; updates to shared rows sum in stack order."""
    z = np.zeros(lu.n + 1)   # in B's row order, plus the spare entry n
    z[:lu.n] = b[lu.perm_col]
    for st in lu.stacks:
        y = np.matmul(st.l_inv, z[st.piv][..., None])
        z[st.cols] = y[..., 0]
        if st.rest.size:
            z[st.targets] -= np.bincount(st.slot,
                                         np.matmul(st.l21, y).ravel(),
                                         minlength=len(st.targets))
    for st in reversed(lu.stacks):
        t = z[st.cols]
        if st.rest.size:
            t -= np.matmul(st.u12, z[st.rest][..., None])[..., 0]
        z[st.cols] = np.matmul(st.u_inv, t[..., None])[..., 0]
    out = np.empty(lu.n)
    out[lu.perm_col] = z[:lu.n]
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
