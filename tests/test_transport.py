"""Upwind convection, diamond diffusion, explicit stepping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifvm.mesh import node_weights, structured_triangulation
from trifvm.partition import single_subdomain
from trifvm.transport import (BC_NEUMANN, FaceVelocity, Field,
                              apply_boundary_conditions,
                              convective_residual, diamond_stencil,
                              diffusive_residual, explicit_step, stable_dt,
                              upwind_face_values)

from conftest import ALL_NEUMANN, dirichlet_bc, irregular_mesh

# Dirichlet inflow on the left, Dirichlet outflow on the right under V = (1, 0)
MIXED = dict(ALL_NEUMANN, left=("dirichlet", -1.0),
             right=("dirichlet", lambda x, y: -2.0 - y))


def _stencil(sub, bc=ALL_NEUMANN):
    return diamond_stencil(sub.local_mesh, bc)


def _neumann_bvals(sub, u):
    return apply_boundary_conditions(u, _stencil(sub))


def _gaussian_field(mesh, center=(0.5, 0.5), sigma=0.1):
    d2 = ((mesh.centroids[:, 0] - center[0]) ** 2
          + (mesh.centroids[:, 1] - center[1]) ** 2)
    return Field(np.exp(-d2 / (2.0 * sigma ** 2)))


def test_uniform_field_has_zero_residuals(sub8):
    u = Field(np.full(sub8.local_mesh.n_cells, 3.7))
    bvals = _neumann_bvals(sub8, u)
    vel = FaceVelocity.uniform(sub8, 1.0, -0.5)
    conv = convective_residual(sub8, u, vel, bvals)
    diss = diffusive_residual(sub8, u, _stencil(sub8), bvals, 0.3)
    assert np.abs(conv).max() < 1e-12
    assert np.abs(diss).max() < 1e-12


def test_upwind_picks_donor_cell(sub8):
    # every face against the where-chain on V.n: Neumann and Dirichlet
    # inflow, Dirichlet outflow, and tangential (V.n = 0) boundary faces
    for sub in (sub8, single_subdomain(irregular_mesh(8, 4))):
        lm = sub.local_mesh
        u = Field(np.arange(lm.n_cells, dtype=float))
        vel = FaceVelocity.uniform(sub, 1.0, 0.0)
        vdotn = lm.face_normals[:, 0]     # V = (1, 0)
        assert np.array_equal(vel.normal, vdotn)
        left, right = lm.face_cells.T
        side = vdotn[right < 0]
        assert (side < 0).any() and (side > 0).any() and (side == 0).any()
        for bc in (ALL_NEUMANN, MIXED):
            bvals = apply_boundary_conditions(u, _stencil(sub, bc))
            downwind = np.where(right >= 0, u.values[np.maximum(right, 0)],
                                bvals)
            want = np.where(vdotn >= 0.0, u.values[left], downwind)
            assert np.array_equal(upwind_face_values(sub, u, vel, bvals), want)


def test_precomputed_maps_equal_their_formulas():
    # what is built once per mesh, velocity and BC layout is bitwise what
    # the step used to compute from the mesh each time
    for mesh in (structured_triangulation(6), irregular_mesh(8, 4)):
        sub = single_subdomain(mesh)
        left, right = mesh.face_cells.T
        assert np.array_equal(mesh.boundary_faces(), np.flatnonzero(right < 0))
        assert np.array_equal(mesh.face_right, np.where(right >= 0, right, left))
        w = node_weights(mesh)
        assert np.array_equal(
            w.node, np.repeat(np.arange(mesh.n_nodes), np.diff(w.ptr)))
        for vx, vy in ((1.0, 0.0), (-0.3, 0.7)):
            vel = FaceVelocity.uniform(sub, vx, vy)
            v = np.tile((vx, vy), (mesh.n_faces, 1))
            assert np.array_equal(
                vel.normal, np.einsum("ij,ij->i", v, mesh.face_normals))
        st_ = diamond_stencil(mesh, MIXED)
        neu = np.flatnonzero(st_.kind == BC_NEUMANN)
        assert np.array_equal(st_.neumann, neu)
        assert np.array_equal(st_.neumann_cells, left[neu])


def test_diffusion_conserves_mass(sub16):
    # Neumann sides make the diffusive flux telescope to exactly zero
    lm = sub16.local_mesh
    u = _gaussian_field(lm)
    vel = FaceVelocity.uniform(sub16, 0.0, 0.0)
    dt = stable_dt(sub16, vel, 0.1)
    mass0 = float(lm.areas @ u.values)
    for _ in range(40):
        bvals = _neumann_bvals(sub16, u)
        conv = convective_residual(sub16, u, vel, bvals)
        diss = diffusive_residual(sub16, u, _stencil(sub16), bvals,
                                  diffusion=0.1)
        u = explicit_step(sub16, u, conv, diss, dt)
        assert abs(float(lm.areas @ u.values) - mass0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_diffusion_step_conserves_any_field(seed):
    mesh = structured_triangulation(6)
    sub = single_subdomain(mesh)
    rng = np.random.default_rng(seed)
    u = Field(rng.uniform(-5.0, 5.0, mesh.triangles.shape[0]))
    diss = diffusive_residual(sub, u, _stencil(sub), _neumann_bvals(sub, u),
                              1.0)
    dt = stable_dt(sub, FaceVelocity.uniform(sub, 0.0, 0.0), 1.0)
    u1 = explicit_step(sub, u, np.zeros_like(diss), diss, dt)
    assert abs(float(mesh.areas @ (u1.values - u.values))) < 1e-12


def test_upwind_max_principle(sub16):
    u = _gaussian_field(sub16.local_mesh)
    lo, hi = float(u.values.min()), float(u.values.max())
    vel = FaceVelocity.uniform(sub16, 1.0, 0.4)
    dt = stable_dt(sub16, vel, 0.0)
    for _ in range(200):
        bvals = _neumann_bvals(sub16, u)
        conv = convective_residual(sub16, u, vel, bvals)
        u = explicit_step(sub16, u, conv, np.zeros_like(conv), dt)
        assert u.values.min() >= lo - 1e-12
        assert u.values.max() <= hi + 1e-12


def test_dirichlet_inflow_enters_domain(sub8):
    bc = dict(ALL_NEUMANN)
    bc["left"] = ("dirichlet", 2.0)
    sten = _stencil(sub8, bc)
    u = Field(np.zeros(sub8.local_mesh.n_cells))
    vel = FaceVelocity.uniform(sub8, 1.0, 0.0)
    dt = stable_dt(sub8, vel, 0.0)
    for _ in range(5):
        bvals = apply_boundary_conditions(u, sten)
        conv = convective_residual(sub8, u, vel, bvals)
        u = explicit_step(sub8, u, conv, np.zeros_like(conv), dt)
    left_cells = sub8.local_mesh.centroids[:, 0] < 0.1
    assert u.values[left_cells].max() > 0.1
    assert u.values.max() <= 2.0 + 1e-12


def test_explicit_step_source_term(sub8):
    u = Field(np.zeros(sub8.local_mesh.n_cells))
    zero = np.zeros(sub8.n_own)
    src = np.full(sub8.n_own, 2.5)
    u1 = explicit_step(sub8, u, zero, zero, 0.2, source=src)
    assert np.allclose(u1.values[:sub8.n_own], 0.5, rtol=0, atol=1e-15)


def test_stable_dt_scaling(sub8):
    v1 = stable_dt(sub8, FaceVelocity.uniform(sub8, 1.0, 0.0), 0.0)
    v2 = stable_dt(sub8, FaceVelocity.uniform(sub8, 2.0, 0.0), 0.0)
    assert v2 == pytest.approx(v1 / 2)
    d1 = stable_dt(sub8, FaceVelocity.uniform(sub8, 0.0, 0.0), 0.1)
    d2 = stable_dt(sub8, FaceVelocity.uniform(sub8, 0.0, 0.0), 0.4)
    assert d2 == pytest.approx(d1 / 4)
    # nothing moves: no finite bound; the runtime reduction raises instead
    assert stable_dt(sub8, FaceVelocity.uniform(sub8, 0.0, 0.0), 0.0) == float("inf")


def test_dirichlet_node_data_evaluates_at_nodes(sub8):
    g = lambda x, y: 1.0 + 2.0 * x - y
    bc = dirichlet_bc(g)
    sten = diamond_stencil(sub8.local_mesh, bc)
    idx, vals = sten.pinned, sten.node_data
    pts = sub8.local_mesh.points[idx]
    assert np.allclose(vals, g(pts[:, 0], pts[:, 1]), rtol=0, atol=1e-15)
    on_boundary = (pts[:, 0] == 0) | (pts[:, 0] == 1) \
        | (pts[:, 1] == 0) | (pts[:, 1] == 1)
    assert on_boundary.all()
