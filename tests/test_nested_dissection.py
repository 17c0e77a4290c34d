"""Nested-dissection order and the level-by-level solve, on irregular meshes.

The order must be a permutation whose separators really separate; a matrix
that fits in one leaf keeps the reverse Cuthill-McKee order; the tree stays
short; and the level sweep solves to round-off, the same bytes every time.
"""

import functools

import numpy as np
import pytest

from trifvm.direct_solver import (adjacency_pattern, dissection, factorize,
                                  rcm_order, solve)
from trifvm.mesh import build_diamonds, node_weights
from trifvm.poisson import assemble_system

from conftest import dirichlet_bc, irregular_mesh
from test_direct_solver import _rcm_reference

CASES = [(16, 1), (16, 2), (32, 1), (32, 2)]


@functools.lru_cache(maxsize=None)
def _operator(n, seed):
    mesh = irregular_mesh(n, seed)
    return assemble_system(mesh, build_diamonds(mesh), node_weights(mesh),
                           dirichlet_bc(0.0)).matrix


@pytest.mark.parametrize("n, seed", CASES)
def test_order_is_a_permutation_cut_by_thin_separators(n, seed):
    mat = _operator(n, seed)
    graph = adjacency_pattern(mat)
    perm, splits = dissection(graph)
    assert np.array_equal(np.sort(perm), np.arange(mat.n))
    assert np.array_equal(rcm_order(mat), perm)
    place = np.empty(mat.n, dtype=np.int64)
    place[perm] = np.arange(mat.n)
    # every edge of B + B^T, both directions, as places in the order
    a = place[np.repeat(np.arange(mat.n), np.diff(graph.ptr))]
    b = place[graph.adj]
    assert len(splits) >= 3
    for lo, near, far, sep in splits.tolist():
        assert near > 0 and far > 0 and sep > 0
        in_near = (a >= lo) & (a < lo + near)
        in_far = (b >= lo + near) & (b < lo + near + far)
        assert not np.any(in_near & in_far)
        # thin: every separator vertex has a neighbour on the far side
        start = lo + near + far
        in_sep = (a >= start) & (a < start + sep)
        assert np.array_equal(np.unique(a[in_sep & in_far]),
                              np.arange(start, start + sep))


@pytest.mark.parametrize("seed", [1, 2])
def test_one_leaf_matrix_gets_reverse_cuthill_mckee(seed):
    small = _operator(4, seed)   # 32 cells: one leaf
    assert np.array_equal(rcm_order(small), _rcm_reference(small))


@pytest.mark.parametrize("seed", [1, 2])
def test_tree_is_short_at_n32(seed):
    f = factorize(_operator(32, seed))
    assert f.levels <= 16
    assert f.offdiag_pivots == 0
    assert len(f.stacks) < sum(len(st.cols) for st in f.stacks)


@pytest.mark.parametrize("n, seed", CASES)
def test_seeded_right_hand_sides_solve_to_round_off(n, seed):
    mat = _operator(n, seed)
    f = factorize(mat)
    rows = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    rng = np.random.default_rng([n, seed])
    for _ in range(50):
        b = rng.standard_normal(mat.n)
        x = solve(f, b)
        r = np.bincount(rows, mat.data * x[mat.indices], minlength=mat.n) - b
        assert np.abs(r).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("n, seed", CASES)
def test_repeated_solve_is_byte_identical(n, seed):
    mat = _operator(n, seed)
    b = np.random.default_rng([seed, n]).standard_normal(mat.n)
    f = factorize(mat)
    x = solve(f, b)
    assert solve(f, b).tobytes() == x.tobytes()
    assert solve(factorize(mat), b).tobytes() == x.tobytes()
