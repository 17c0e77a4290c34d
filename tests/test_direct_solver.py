"""Sparse LU with reverse Cuthill-McKee ordering, against the dense oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifvm import direct_solver
from trifvm.direct_solver import (LEAF_SIZE, adjacency_pattern, factorize,
                                  rcm_order, solve)
from trifvm.errors import NumericError, SingularMatrix
from trifvm.mesh import build_diamonds, node_weights, structured_triangulation
from trifvm.partition import cuthill_mckee
from trifvm.poisson import assemble_system, csr_from_coo

from conftest import (dense_lu_oracle, dirichlet_bc, irregular_mesh,
                      random_spd_like)


def _csr_to_dense(mat):
    a = np.zeros((mat.n, mat.n))
    for i in range(mat.n):
        sl = slice(mat.indptr[i], mat.indptr[i + 1])
        a[i, mat.indices[sl]] += mat.data[sl]
    return a


def test_hand_checked_2x2():
    # [2 1; 1 3] x = [2, 3] -> x = (0.6, 0.8); worked by hand
    mat = csr_from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 3.0])
    x = solve(factorize(mat), np.array([2.0, 3.0]))
    assert np.allclose(x, [0.6, 0.8], rtol=0, atol=1e-15)


def test_hilbert_small():
    # notoriously ill-conditioned; still fine at n = 6
    n = 6
    a = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    rows, cols = np.nonzero(a)
    mat = csr_from_coo(n, rows, cols, a[rows, cols])
    b = a @ np.ones(n)
    x = solve(factorize(mat), b)
    assert np.abs(x - 1.0).max() < 1e-8


def test_rcm_on_path_graph_gives_bandwidth_one():
    n = 9
    rows, cols, vals = [], [], []
    perm_in = np.random.default_rng(2).permutation(n)
    pos = np.argsort(perm_in)  # scatter a path graph through random labels
    for a, b in zip(perm_in[:-1], perm_in[1:]):
        rows += [a, b]
        cols += [b, a]
        vals += [-1.0, -1.0]
    rows += list(range(n))
    cols += list(range(n))
    vals += [2.0] * n
    mat = csr_from_coo(n, rows, cols, vals)
    order = rcm_order(mat)
    where = np.argsort(order)
    band = 0
    for a, b in zip(perm_in[:-1], perm_in[1:]):
        band = max(band, abs(int(where[a]) - int(where[b])))
    assert band == 1


def _rcm_reference(mat):
    """Reverse Cuthill-McKee by a per-vertex queue on neighbor sets built
    here: each component starts from its lowest (degree, index) vertex, and
    each dequeued vertex enqueues its unvisited neighbors by (degree, index).
    """
    nbrs = [set() for _ in range(mat.n)]
    for i in range(mat.n):
        for j in mat.indices[mat.indptr[i]:mat.indptr[i + 1]].tolist():
            if j != i:
                nbrs[i].add(j)
                nbrs[j].add(i)
    key = [(len(s), v) for v, s in enumerate(nbrs)]
    visited = [False] * mat.n
    order = []
    for start in sorted(range(mat.n), key=key.__getitem__):
        if visited[start]:
            continue
        visited[start] = True
        order.append(start)
        head = len(order) - 1
        while head < len(order):
            v = order[head]
            head += 1
            for w in sorted((w for w in nbrs[v] if not visited[w]),
                            key=key.__getitem__):
                visited[w] = True
                order.append(w)
    return np.array(order[::-1], dtype=np.int64)


def _reverse_sweep(mat):
    """The order nested dissection gives a leaf: the reversed level sweep."""
    graph = adjacency_pattern(mat)
    by_degree = np.argsort(np.diff(graph.ptr), kind="stable")
    return cuthill_mckee(graph, np.zeros(mat.n, dtype=np.int64),
                         by_degree)[0][::-1]


def test_rcm_matches_the_per_vertex_queue():
    # random patterns: up to 2 n off-diagonal entries, so most draws are
    # disconnected and have isolated vertices; n = 1 has no edge at all
    rng = np.random.default_rng(7)
    mats = []
    for n in [1, 2, 3] + rng.integers(4, 80, 60).tolist():
        m = int(rng.integers(0, 2 * n + 1))
        rows = np.concatenate([np.arange(n), rng.integers(0, n, m)])
        cols = np.concatenate([np.arange(n), rng.integers(0, n, m)])
        mats.append(csr_from_coo(n, rows, cols, np.ones(n + m)))
    for mesh in (structured_triangulation(12), irregular_mesh(8, 3)):
        mats.append(assemble_system(mesh, build_diamonds(mesh),
                                    node_weights(mesh),
                                    dirichlet_bc(0.0)).matrix)
    for mat in mats:
        assert np.array_equal(_reverse_sweep(mat), _rcm_reference(mat))


def _ldu_from_stacks(f):
    """Dense block factors (step space) rebuilt from the level stacks:
    L~ unit lower with W under each front's columns, D block diagonal with
    each front's F11, and U~ unit upper with V right of its columns."""
    n = f.n
    step_of = np.empty(n, dtype=np.int64)
    step_of[f.pivot_rows] = np.arange(n)
    l, d, u = np.eye(n), np.zeros((n, n)), np.eye(n)
    for st in f.stacks:
        wp = st.cols.shape[1]
        for i in range(len(st.cols)):
            cols, rest = st.cols[i][st.cols[i] < n], st.idx[i, wp:]
            rest = rest[rest < n]
            w, r = len(cols), len(rest)
            d[np.ix_(cols, cols)] = np.linalg.inv(st.back[i, :w, :w])
            l[np.ix_(step_of[rest], cols)] = st.w[i, :r, :w]
            u[np.ix_(cols, rest)] = -st.back[i, :w, wp:wp + r]
    return l, d, u


def _assert_reconstructs(mesh):
    dia, w = build_diamonds(mesh), node_weights(mesh)
    mat = assemble_system(mesh, dia, w, dirichlet_bc(0.0)).matrix
    f = factorize(mat)
    a = _csr_to_dense(mat)
    l, d, u = _ldu_from_stacks(f)
    assert np.array_equal(np.tril(l, -1) + np.eye(mat.n), l)
    assert np.array_equal(np.triu(u, 1) + np.eye(mat.n), u)
    for st in f.stacks:   # D holds the diagonal blocks, L~ and U~ none
        for cols in st.cols:
            block = np.ix_(cols[cols < mat.n], cols[cols < mat.n])
            assert np.array_equal(l[block], np.eye(len(block[0])))
            assert np.array_equal(u[block], np.eye(len(block[0])))
    perm = a[np.ix_(f.perm_col[f.pivot_rows], f.perm_col)]
    assert np.abs(l @ d @ u - perm).max() < 1e-12 * np.abs(a).max()


def test_factorization_reconstructs_permuted_matrix():
    _assert_reconstructs(structured_triangulation(4))


def test_factorization_reconstructs_permuted_matrix_on_irregular_mesh():
    _assert_reconstructs(irregular_mesh(8, 3))


def _natural_order(monkeypatch):
    monkeypatch.setattr(direct_solver, "rcm_order", lambda m: np.arange(m.n))


def test_rcm_reduces_fill_on_assembled_operator(monkeypatch):
    mesh = structured_triangulation(12)
    dia, w = build_diamonds(mesh), node_weights(mesh)
    mat = assemble_system(mesh, dia, w, dirichlet_bc(0.0)).matrix
    with_rcm = factorize(mat).fill_nnz
    _natural_order(monkeypatch)
    natural = factorize(mat).fill_nnz
    assert with_rcm <= natural


def test_seeded_systems_match_dense_oracle():
    # the unsymmetric patterns reach the solver unpadded: B + B^T is formed
    # by the symbolic phase alone
    for symmetric in (True, False):
        rng = np.random.default_rng(42)
        for trial in range(12):
            n = int(rng.integers(5, 120))
            rows, cols, vals = random_spd_like(rng, n, symmetric=symmetric)
            mat = csr_from_coo(n, rows, cols, vals)
            a = _csr_to_dense(mat)
            assert np.array_equal(a != 0, a.T != 0) == symmetric
            b = rng.standard_normal(n)
            x = solve(factorize(mat), b)
            ref = dense_lu_oracle(a, b)
            assert np.abs(x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       n=st.integers(min_value=2, max_value=40))
def test_any_diagonally_dominant_system_solves(seed, n):
    rng = np.random.default_rng(seed)
    rows, cols, vals = random_spd_like(rng, n)
    mat = csr_from_coo(n, rows, cols, vals)
    b = rng.standard_normal(n)
    x = solve(factorize(mat), b)
    ref = dense_lu_oracle(_csr_to_dense(mat), b)
    assert np.abs(x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       n=st.integers(min_value=2, max_value=89))
def test_any_weak_diagonal_system_it_accepts_solves(seed, n):
    # each diagonal entry of a dominant system scaled by 0, 1e-3 or 1: most
    # draws raise SingularMatrix, and most accepted ones swap rows
    rng = np.random.default_rng(seed)
    rows, cols, vals = random_spd_like(rng, n)
    a = np.zeros((n, n))
    np.add.at(a, (rows, cols), vals)
    a[np.arange(n), np.arange(n)] *= rng.choice([0.0, 1e-3, 1.0], n)
    if not np.linalg.cond(a) <= 1e10:
        return
    rows, cols = np.nonzero(a)
    b = rng.standard_normal(n)
    try:
        f = factorize(csr_from_coo(n, rows, cols, a[rows, cols]))
    except SingularMatrix:
        return
    x, ref = solve(f, b), dense_lu_oracle(a, b)
    assert np.abs(x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_zero_diagonal_block_takes_an_off_diagonal_pivot():
    # a 2x2 block [[0, c], [c, 0]] inside a diagonally dominant system: the
    # first of its columns to be eliminated must swap in the other row
    rng = np.random.default_rng(5)
    n, p, q = 30, 3, 17
    rows, cols, vals = random_spd_like(rng, n)
    a = np.zeros((n, n))
    np.add.at(a, (rows, cols), vals)
    c = 10.0 * np.abs(a).sum(axis=1).max()
    a[p, p] = a[q, q] = 0.0
    a[p, q] = a[q, p] = c
    rows, cols = np.nonzero(a)
    mat = csr_from_coo(n, rows, cols, a[rows, cols])
    f = factorize(mat)
    swapped = np.flatnonzero(f.pivot_rows != np.arange(n))
    assert sorted(f.perm_col[swapped]) == [p, q]
    b = rng.standard_normal(n)
    x = solve(f, b)
    ref = dense_lu_oracle(a, b)
    assert np.abs(x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_off_diagonal_pivot_in_a_front_with_rows_past_its_columns():
    # the block of the test above between two coupled cells of the widest
    # leaf front of a 200-cell mesh matrix: the pivoted front has rows past
    # its columns, so both sweeps read its pivot rows below the root
    mesh = irregular_mesh(10, 4)
    mat = assemble_system(mesh, build_diamonds(mesh), node_weights(mesh),
                          dirichlet_bc(0.0)).matrix
    n, a = mat.n, _csr_to_dense(mat)
    assert n > LEAF_SIZE
    f = factorize(mat)
    leaves = f.stacks[0].cols
    i = int(np.argmax((leaves < n).sum(axis=1)))   # the widest leaf front
    cells = f.perm_col[leaves[i][leaves[i] < n]]
    coupled = np.triu(a[np.ix_(cells, cells)] != 0.0, 1)   # pattern kept
    p, q = cells[np.argwhere(coupled)[0]]
    c = 10.0 * np.abs(a).sum(axis=1).max()
    a[p, p] = a[q, q] = 0.0
    a[p, q] = a[q, p] = c
    rows, cols = np.nonzero(a)
    f = factorize(csr_from_coo(n, rows, cols, a[rows, cols]))
    swapped = np.flatnonzero(f.pivot_rows != np.arange(n))
    assert sorted(f.perm_col[swapped]) == sorted([p, q])
    st = f.stacks[0]
    assert set(swapped) <= set(st.cols[i])
    assert (st.idx[i, st.cols.shape[1]:] < n).any()
    b = np.random.default_rng(11).standard_normal(n)
    x = solve(f, b)
    ref = dense_lu_oracle(a, b)
    assert np.abs(x - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


def test_check_solve_rejects_an_unstable_static_pivot(monkeypatch):
    # one front: its F11 is inverted whole, so the 1e-13 diagonal that
    # threshold 1e-20 keeps does no harm
    mat = csr_from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [1e-13, 1.0, 1.0, 1.0])
    _natural_order(monkeypatch)
    assert factorize(mat).check_residual < 1e-15
    # fronts {0} and {1, 2}: the kept 1e-13 pivot sends 1e13 growth into
    # the parent's block, which ruins the solve
    arrow = csr_from_coo(3, [0, 0, 1, 1, 2, 2, 2], [0, 2, 1, 2, 0, 1, 2],
                         [1e-13, 1.0, 1.0, 0.3, 1.0, 0.7, 1.1])
    with pytest.raises(SingularMatrix, match="best fully-summed pivot"):
        factorize(arrow)
    monkeypatch.setattr(direct_solver, "PIVOT_THRESHOLD", 1e-20)
    assert factorize(mat).check_residual < 1e-15
    with pytest.raises(SingularMatrix, match="check solve"):
        factorize(arrow)


def test_singular_matrix_raises():
    # structurally fine but numerically rank-deficient: duplicate rows
    mat = csr_from_coo(3,
                       [0, 0, 1, 1, 2, 2],
                       [0, 1, 0, 1, 1, 2],
                       [1.0, 2.0, 1.0, 2.0, 1.0, 1.0])
    with pytest.raises(SingularMatrix):
        factorize(mat)


def test_zero_column_raises():
    mat = csr_from_coo(3, [0, 1, 2], [0, 1, 2], [1.0, 0.0, 1.0])
    with pytest.raises(SingularMatrix):
        factorize(mat)


def test_an_empty_matrix_and_a_short_rhs_raise():
    empty = csr_from_coo(3, [0, 1, 2], [0, 1, 2], [0.0, 0.0, 0.0])
    with pytest.raises(SingularMatrix, match="matrix has no nonzero entries"):
        factorize(empty)
    mat = csr_from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, 1.0, 1.0, 3.0])
    with pytest.raises(NumericError,
                       match=re.escape("rhs has shape (3,), system is 2")):
        solve(factorize(mat), np.ones(3))


def test_dense_oracle_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        dense_lu_oracle(a, np.ones(2))


def test_multiple_solves_reuse_factors():
    rng = np.random.default_rng(7)
    rows, cols, vals = random_spd_like(rng, 50)
    mat = csr_from_coo(50, rows, cols, vals)
    f = factorize(mat)
    a = _csr_to_dense(mat)
    for _ in range(4):
        b = rng.standard_normal(50)
        x = solve(f, b)
        assert np.abs(a @ x - b).max() < 1e-10 * max(1.0, np.abs(b).max())
