"""Implicit diffusion-operator assembly and the manufactured-solution check.

Expected L-infinity errors for the sin(pi x) sin(pi y) problem were computed
once with the in-repo dense LU oracle and are frozen here; the production
sparse path must land on the same numbers.
"""

import math

import numpy as np
import pytest

from trifvm.direct_solver import factorize, solve
from trifvm.errors import ConfigError, NumericError
from trifvm.mesh import build_diamonds, node_weights, structured_triangulation
from trifvm.partition import (build_dual_graph, build_subdomains, partition,
                              single_subdomain)
from trifvm.poisson import assemble_rhs, assemble_system, csr_from_coo
from trifvm.transport import (Field, apply_boundary_conditions,
                              diamond_stencil, diffusive_residual)

from conftest import ALL_NEUMANN, dense_lu_oracle, dirichlet_bc, irregular_mesh

# n -> max |u_h - u| for -lap u = 2 pi^2 sin(pi x) sin(pi y), u = 0 on the sides
MMS_LINF = {8: 7.628355e-03, 16: 2.198973e-03, 32: 5.736147e-04}


def _csr_to_dense(mat):
    a = np.zeros((mat.n, mat.n))
    for i in range(mat.n):
        sl = slice(mat.indptr[i], mat.indptr[i + 1])
        a[i, mat.indices[sl]] += mat.data[sl]
    return a


def _solve_sine(n):
    mesh = structured_triangulation(n)
    dia, w = build_diamonds(mesh), node_weights(mesh)
    bc = dirichlet_bc(0.0)
    problem = assemble_system(mesh, dia, w, bc)
    x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
    src = 2.0 * math.pi ** 2 * np.sin(math.pi * x) * np.sin(math.pi * y)
    b = assemble_rhs(mesh, src, bc, problem=problem)
    factors = factorize(problem.matrix)
    u = solve(factors, b)
    exact = np.sin(math.pi * x) * np.sin(math.pi * y)
    return problem, b, u, float(np.abs(u - exact).max())


@pytest.mark.parametrize("n", [8, 16, 32])
def test_manufactured_solution_error(n):
    problem, b, u, err = _solve_sine(n)
    assert err == pytest.approx(MMS_LINF[n], rel=1e-5)
    # direct solve leaves no residual worth mentioning
    a = _csr_to_dense(problem.matrix)
    rel = np.abs(a @ u - b).max() / np.abs(b).max()
    assert rel < 1e-10


def test_manufactured_solution_order():
    errs = {n: _solve_sine(n)[3] for n in (16, 32)}
    order = math.log2(errs[16] / errs[32])
    assert order >= 0.9


def test_sparse_path_matches_dense_oracle_on_assembled_matrix():
    mesh = structured_triangulation(6)
    dia, w = build_diamonds(mesh), node_weights(mesh)
    problem = assemble_system(mesh, dia, w, dirichlet_bc(1.0))
    rng = np.random.default_rng(5)
    b = rng.standard_normal(problem.matrix.n)
    x_sparse = solve(factorize(problem.matrix), b)
    x_dense = dense_lu_oracle(_csr_to_dense(problem.matrix), b)
    denom = np.abs(x_dense).max()
    assert np.abs(x_sparse - x_dense).max() / denom < 1e-10


def test_assembly_rejects_a_halo_view_and_a_short_source():
    mesh = structured_triangulation(4)
    dia, w = build_diamonds(mesh), node_weights(mesh)
    sub = build_subdomains(mesh, partition(build_dual_graph(mesh), 2),
                           dia, w)[0]
    with pytest.raises(ConfigError, match="needs the global mesh"):
        assemble_system(sub.local_mesh, sub.diamonds, sub.weights,
                        dirichlet_bc(0.0))
    problem = assemble_system(mesh, dia, w, dirichlet_bc(0.0))
    with pytest.raises(NumericError, match=r"source has shape \(31,\)"):
        assemble_rhs(mesh, np.ones(31), dirichlet_bc(0.0), problem=problem)


def test_neumann_needs_pin():
    mesh = structured_triangulation(4)
    dia, w = build_diamonds(mesh), node_weights(mesh)
    with pytest.raises(NumericError, match="constant nullspace"):
        assemble_system(mesh, dia, w, ALL_NEUMANN)
    problem = assemble_system(mesh, dia, w, ALL_NEUMANN, pin_cell=0)
    assert problem.pinned == 0
    # compatible zero-mean source; pinned row forces u[0] = 0
    x = mesh.centroids[:, 0]
    src = (x - float(x @ mesh.areas)) * mesh.areas
    b = assemble_rhs(mesh, src, ALL_NEUMANN, problem=problem)
    u = solve(factorize(problem.matrix), b)
    assert abs(u[0]) < 1e-14
    a = _csr_to_dense(problem.matrix)
    assert np.abs(a @ u - b).max() < 1e-10 * max(1.0, np.abs(b).max())


def test_dirichlet_lift_moves_data_to_rhs():
    # same operator, two different boundary values: matrix identical,
    # rhs differs by the lift
    mesh = structured_triangulation(4)
    dia, w = build_diamonds(mesh), node_weights(mesh)
    p0 = assemble_system(mesh, dia, w, dirichlet_bc(0.0))
    p1 = assemble_system(mesh, dia, w, dirichlet_bc(2.0))
    assert np.array_equal(p0.matrix.data, p1.matrix.data)
    assert np.array_equal(p0.matrix.indices, p1.matrix.indices)
    src = np.zeros(mesh.triangles.shape[0])
    b1 = assemble_rhs(mesh, src, dirichlet_bc(2.0), problem=p1)
    u1 = solve(factorize(p1.matrix), b1)
    # harmonic with constant boundary data is that constant
    assert np.abs(u1 - 2.0).max() < 1e-10


def test_csr_from_coo_sums_duplicates():
    mat = csr_from_coo(2, [0, 0, 1, 0], [0, 0, 1, 1], [1.0, 2.0, 5.0, -1.0])
    # the pattern as given: no (1, 0) is padded in
    assert mat.indptr.tolist() == [0, 2, 3]
    assert mat.indices.tolist() == [0, 1, 1]
    assert mat.data.tolist() == [3.0, -1.0, 5.0]


def test_assemble_matrix_row_sums_vanish_for_pure_neumann():
    # constants annihilate every row except the pinned identity row
    mesh = structured_triangulation(5)
    dia, w = build_diamonds(mesh), node_weights(mesh)
    mat = assemble_system(mesh, dia, w, ALL_NEUMANN, pin_cell=3).matrix
    ones = np.ones(mat.n)
    out = np.zeros(mat.n)
    for i in range(mat.n):
        sl = slice(mat.indptr[i], mat.indptr[i + 1])
        out[i] = mat.data[sl] @ ones[mat.indices[sl]]
    assert out[3] == pytest.approx(1.0)
    out[3] = 0.0
    assert np.abs(out).max() < 1e-12


MIXED = {"left": ("dirichlet", 1.5),
         "right": ("dirichlet", lambda x, y: math.cos(2.0 * y) - x),
         "top": ("neumann",), "bottom": ("neumann",)}
PLATES = {"left": ("dirichlet", 1.0), "right": ("dirichlet", 0.0),
          "top": ("neumann",), "bottom": ("neumann",)}


@pytest.mark.parametrize("bc, pin", [(dirichlet_bc(0.0), None),
                                     (PLATES, None), (ALL_NEUMANN, 5),
                                     (MIXED, None)],
                         ids=["dirichlet", "plates", "neumann", "mixed"])
@pytest.mark.parametrize("seed", [None, 3], ids=["structured", "irregular"])
def test_assembled_pattern_is_structurally_symmetric(seed, bc, pin):
    # (i, j) is assembled iff (j, i) is, so the matrix needs no transpose
    # padding for the solver's pattern of A + A^T to equal its own
    mesh = structured_triangulation(12) if seed is None \
        else irregular_mesh(8, seed)
    mat = assemble_system(mesh, build_diamonds(mesh), node_weights(mesh),
                          bc, pin_cell=pin).matrix
    rows = np.repeat(np.arange(mat.n), np.diff(mat.indptr))
    keys = rows * mat.n + mat.indices
    assert np.array_equal(keys, np.sort(mat.indices * mat.n + rows))


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["structured", "irregular1",
                                                    "irregular2"])
def test_matrix_is_the_negated_diffusive_residual_plus_lift(seed):
    # the matrix and the explicit diffusion expand one stencil:
    # A x = -(diffusive residual of x at D = 1) + lift for any x
    mesh = structured_triangulation(8) if seed is None \
        else irregular_mesh(8, seed)
    dia, w = build_diamonds(mesh), node_weights(mesh)
    problem = assemble_system(mesh, dia, w, MIXED)
    sten = diamond_stencil(mesh, MIXED)
    x = np.random.default_rng(11).standard_normal(mesh.n_cells)
    res = diffusive_residual(single_subdomain(mesh), Field(x), sten,
                             apply_boundary_conditions(Field(x), sten), 1.0)
    ax = _csr_to_dense(problem.matrix) @ x
    want = problem.lift - res
    rows = np.arange(mesh.n_cells) != problem.pinned
    assert np.abs(ax - want)[rows].max() <= 1e-12 * np.abs(want).max()
