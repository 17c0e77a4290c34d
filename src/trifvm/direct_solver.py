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

Numeric phase, supernodes in order (children first).  A front F is assembled
dense from B's entries whose smaller index is one of its columns plus its
children's contribution blocks (extend-add through index maps).  A copy of
its m x w panel is eliminated column by column only to pick the pivots.  In
pivot order L11 U11 = F11 and L21 U11 = F21, so the block form of the scheme
(Amestoy et al. 2001) needs one inverse: W = L21 L11^-1 = F21 F11^-1, V =
U11^-1 U12 = F11^-1 F12, and the parent receives F22 - W F12.  Each front
writes F11^-1, V and W once, into its slot in its level stack.

Solve, on z in B's row order: a forward sweep from the leaves subtracts
W z[pivots] from each front's rows past its columns, and a backward sweep
from the root sets z[columns] = F11^-1 z[pivots] - V z[rows past]; per
level stack one gather, one batched matrix-vector product (np.matmul) and a
scatter.  The forward sweep leaves a front's columns alone: only its
descendants change them.  The forward updates of shared ancestor rows are
summed by one np.bincount in stack order, so reruns are byte-identical.

Pivoting, per front column: the diagonal is kept when it is at least
PIVOT_THRESHOLD (0.1) of the column's largest entry in the whole front,
else the largest fully-summed row is swapped in if it passes the same test.
A column where neither passes, or whose largest entry is below
PIVOT_FLOOR * max|A|, raises SingularMatrix naming the column of A.

The factors satisfy  A[perm_col[pivot_rows]][:, perm_col] = L U = L~ D U~
with L unit lower triangular, D the fronts' F11 = L11 U11 and L~ (W) and
U~ (V) unit block triangular; row swaps stay inside a front.  factorize ends
with a check solve of A x = A 1: the residual ||A x - b|| / (||A|| ||x|| +
||b||) (infinity norms) is kept as `check_residual`; above CHECK_BOUND it
raises SingularMatrix.

The tests cross-check this solver against an independent dense
partial-pivoting elimination that shares no code with it
(`dense_lu_oracle` in tests/conftest.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SingularMatrix
from .partition import DualGraph, cuthill_mckee, graph_from_pairs, neighbors
from .poisson import CsrMatrix

PIVOT_FLOOR = 1e-14
PIVOT_THRESHOLD = 0.1
RELAX_WIDTH = 32     # widest supernode amalgamation builds
LEAF_SIZE = 64       # largest vertex set nested dissection leaves uncut
CHECK_BOUND = 1e-8   # largest relative residual the check solve accepts
STACK_ENTRIES = 2048  # padded block entries worth one more level stack


@dataclass(slots=True)
class LevelStack:
    """The fronts of one elimination-tree level whose widths and rows past
    the columns pad to the same (wp, rp), stacked in supernode order; each
    front writes its pivot rows, F11^-1, W and V here once (module doc).

    Padding is zero in the blocks and index n in the index arrays: the
    sweep's spare entry, which padded reads find zero and padded writes
    leave zero."""
    cols: np.ndarray     # (g, wp) each front's columns of B
    idx: np.ndarray      # (g, wp + rp) piv, then the rows past the columns
    piv: np.ndarray      # (g, wp) the front's rows in pivot order
    targets: np.ndarray  # the distinct rows past the columns, ascending
    slot: np.ndarray     # those rows, flattened, as positions in targets
    w: np.ndarray        # (g, rp, wp) W = F21 F11^-1
    back: np.ndarray     # (g, wp, wp + rp) [F11^-1, -V], against idx


@dataclass
class LuFactors:
    n: int
    perm_col: np.ndarray    # A-column feeding column t (the fill order)
    pivot_rows: np.ndarray  # permuted-space row chosen at each step
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
            idx = np.full((g, wp + rp), n, dtype=np.int64)
            for i, (s, w, r) in enumerate(group):
                idx[i, :w], idx[i, wp:wp + r] = rows[s][:w], rows[s][w:]
                slot_of[s] = (len(stacks), i)
            targets, slot = np.unique(idx[:, wp:], return_inverse=True)
            stacks.append(LevelStack(
                cols=idx[:, :wp].copy(), idx=idx, piv=idx[:, :wp].copy(),
                targets=targets, slot=slot.ravel(), w=np.zeros((g, rp, wp)),
                back=np.zeros((g, wp, wp + rp))))
    return stacks, slot_of, len(shapes)


def factorize(mat: CsrMatrix) -> LuFactors:
    n, threshold = mat.n, PIVOT_THRESHOLD
    perm_col = rcm_order(mat)
    inv_perm = np.empty(n, dtype=np.int64)
    inv_perm[perm_col] = np.arange(n)

    max_abs = float(np.abs(mat.data).max(initial=0.0))
    if max_abs == 0.0:
        raise SingularMatrix("matrix has no nonzero entries")
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
    fill = 0
    for s, rows in enumerate(front_rows):
        f, w, m = firsts[s], firsts[s + 1] - firsts[s], len(rows)
        where[rows] = np.arange(m)
        front = np.zeros((m, m))
        sl = slice(entry_ptr[s], entry_ptr[s + 1])
        front[where[b_rows[sl]], where[b_cols[sl]]] = b_vals[sl]
        for c in kids[s]:
            idx, block = contrib.pop(c)
            front[np.ix_(where[idx], where[idx])] += block

        panel = front[:, :w].copy()   # the pivot search works on a copy
        for k in range(w):
            col = np.abs(panel[k:, k])
            big = col.max()
            p = 0 if col[0] >= threshold * big else int(np.argmax(col[:w - k]))
            if big < tiny or col[p] < threshold * big:
                c = int(perm_col[f + k])
                raise SingularMatrix(
                    f"column {c}: best fully-summed pivot {col[p]:.3e}, column "
                    f"max {big:.3e} (threshold {threshold}, floor {tiny:.3e})")
            if p:
                panel[[k, k + p]] = panel[[k + p, k]]
                pivot_rows[[f + k, f + k + p]] = pivot_rows[[f + k + p, f + k]]
            panel[k + 1:, k] /= panel[k, k]
            panel[k + 1:, k + 1:] -= panel[k + 1:, k, None] * panel[k, None, k + 1:]

        piv = pivot_rows[f:f + w]   # the front's first w rows, in pivot order
        f11_inv = np.linalg.inv(front[piv - f, :w])
        f12 = front[piv - f, w:]
        w_blk = front[w:, :w] @ f11_inv
        if m > w:
            contrib[s] = rows[w:], front[w:, w:] - w_blk @ f12
        st, i = stacks[slot_of[s][0]], slot_of[s][1]
        wp = st.cols.shape[1]
        st.idx[i, :w] = st.piv[i, :w] = piv
        st.back[i, :w, :w] = f11_inv
        st.back[i, :w, wp:wp + m - w] = -f11_inv @ f12
        st.w[i, :m - w, :w] = w_blk
        fill += w * (w + 1) + 2 * w * (m - w)

    lu = LuFactors(n=n, perm_col=perm_col, pivot_rows=pivot_rows,
                   stacks=stacks, levels=levels, fill_nnz=fill)
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
        if st.slot.size:
            z[st.targets] -= np.bincount(
                st.slot, np.matmul(st.w, z[st.piv][..., None]).ravel(),
                minlength=len(st.targets))
    for st in reversed(lu.stacks):
        z[st.cols] = np.matmul(st.back, z[st.idx][..., None])[..., 0]
    out = np.empty(lu.n)
    out[lu.perm_col] = z[:lu.n]
    return out


def solve(factors: LuFactors, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (factors.n,):
        raise NumericError(f"rhs has shape {b.shape}, system is {factors.n}")
    return _sweep(factors, b)
