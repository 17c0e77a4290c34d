"""Coupled drift-diffusion-ionization cycle and its conservation structure."""

import numpy as np
import pytest

from trifvm.direct_solver import factorize
from trifvm.errors import ConfigError
from trifvm.mesh import structured_triangulation
from trifvm.partition import single_subdomain
from trifvm.poisson import assemble_system
from trifvm.streamer import (StreamerCoefficients, StreamerState, build_system,
                             charge_source, gaussian_seed, prepare_fluxes,
                             total_charge)
from trifvm.transport import Field, face_gradients

from conftest import ALL_NEUMANN, coupled_step

PLATES = {"left": ("dirichlet", 1.0), "right": ("dirichlet", 0.0),
          "top": ("neumann",), "bottom": ("neumann",)}


def _system(n, potential_bc, pin=None):
    """The subdomain, its system, and the one-rank step on the factored
    potential system: step(state, coeffs, dt=None)."""
    mesh = structured_triangulation(n)
    sub = single_subdomain(mesh)
    problem = assemble_system(mesh, sub.diamonds, sub.weights, potential_bc,
                              pin_cell=pin)
    sys = build_system(sub, ALL_NEUMANN, potential_bc)
    factors = factorize(problem.matrix)
    return sub, sys, lambda state, coeffs, dt=None: coupled_step(
        state, coeffs, sys, problem, factors, dt)


def _closed_system(n=16, pin=0):
    return _system(n, ALL_NEUMANN, pin)


def _plate_system(n=8):
    return _system(n, PLATES)


def _seed_state(sub, sigma=0.08, amplitude=1.0, ion_factor=1.0):
    ne = gaussian_seed(sub, (0.5, 0.5), sigma, amplitude)
    return StreamerState(n_e=Field(ne.copy(), "n_e"),
                         n_i=Field(ion_factor * ne, "n_i"),
                         v_pot=Field(np.zeros_like(ne), "potential"))


def test_coefficient_table_must_be_sorted():
    bad = np.array([[1.0, 1.0, 0.1, 0.2], [0.5, 1.0, 0.1, 0.2]])
    with pytest.raises(ConfigError):
        StreamerCoefficients(model="table", table=bad)


def test_table_lookup_interpolates():
    tab = np.array([[0.0, 1.0, 0.10, 0.0],
                    [2.0, 3.0, 0.30, 4.0]])
    c = StreamerCoefficients(model="table", table=tab)
    assert c.mobility(np.array([1.0]))[0] == pytest.approx(2.0)
    assert c.diffusion(np.array([1.0]))[0] == pytest.approx(0.2)
    assert c.ionization(np.array([1.0]))[0] == pytest.approx(2.0)
    # clamped at the ends
    assert c.mobility(np.array([10.0]))[0] == pytest.approx(3.0)


def test_neutral_state_has_zero_charge_source():
    sub, sys, _ = _closed_system(8)
    state = _seed_state(sub)
    rho = charge_source(state, StreamerCoefficients(), sub)
    assert np.abs(rho).max() == 0.0


def test_charge_source_sign():
    # surplus ions push the potential up: positive rhs for -lap V = rho/eps
    sub, sys, _ = _closed_system(8)
    state = _seed_state(sub, ion_factor=1.5)
    rho = charge_source(state, StreamerCoefficients(eps=2.0, q_e=3.0), sub)
    expect = (3.0 / 2.0) * (state.n_i.values - state.n_e.values)[:sub.n_own]
    assert np.allclose(rho, expect, rtol=0, atol=1e-15)


def test_uniform_field_between_plates():
    # V = 1 - x between the plates; E = -grad V = (1, 0), exact on every
    # interior and Dirichlet face, corners included.
    # (the vector on a Neumann face carries no contract: the diffusive flux
    # is masked to literal zero there and nothing else reads it exactly)
    sub, sys, _ = _plate_system(8)
    lm = sub.local_mesh
    v = Field(1.0 - lm.centroids[:, 0], "potential")
    e = -face_gradients(sub, sys.potential, v)
    from trifvm.transport import BC_NEUMANN
    neu = sys.potential.kind == BC_NEUMANN
    assert np.abs(e[~neu, 0] - 1.0).max() < 1e-12
    assert np.abs(e[~neu, 1]).max() < 1e-12


def test_drift_velocity_opposes_field():
    sub, sys, _ = _plate_system(8)
    state = _seed_state(sub)
    state.v_pot = Field(1.0 - sub.local_mesh.centroids[:, 0], "potential")
    fc = prepare_fluxes(state, StreamerCoefficients(mu_e=2.0, d_e=0.0,
                                                    alpha=0.0), sys)
    # electrons drift against E: v = -mu E = (-2, 0)
    from trifvm.transport import BC_NEUMANN
    good = sys.potential.kind != BC_NEUMANN
    assert np.abs(fc.vel.vectors[good, 0] + 2.0).max() < 1e-12
    assert np.abs(fc.vel.vectors[good, 1]).max() < 1e-12
    assert np.isfinite(fc.dt_stable)


def test_step_counts_clips_and_keeps_densities_nonnegative():
    sub, sys, step = _plate_system(8)
    state = _seed_state(sub, sigma=0.05)
    coeffs = StreamerCoefficients(mu_e=1.0, d_e=0.02, alpha=0.3)
    for _ in range(20):
        state = step(state, coeffs)
    assert state.n_e.values.min() >= 0.0
    assert state.n_i.values.min() >= 0.0
    assert state.clips >= 0


def test_ionization_feeds_both_species_identically():
    # one step, fixed dt: the ion increment is exactly dt * S_e, and the
    # electron update received the same source before clipping
    sub, sys, step = _closed_system(8)
    coeffs = StreamerCoefficients(mu_e=1.0, d_e=0.05, alpha=2.0)
    state = _seed_state(sub, ion_factor=1.1)
    ne0 = state.n_e.values.copy()
    ni0 = state.n_i.values.copy()
    dt = 1e-4
    after = step(state, coeffs, dt=dt)
    # replay the fluxes the step used: densities before, potential after
    replay = StreamerState(n_e=Field(ne0.copy(), "n_e"),
                           n_i=Field(ni0.copy(), "n_i"), v_pot=after.v_pot)
    fc = prepare_fluxes(replay, coeffs, sys)
    assert np.array_equal(after.n_i.values[:sub.n_own],
                          ni0[:sub.n_own] + dt * fc.s_e)
    assert fc.s_e.max() > 0.0  # the source actually produced something


def test_charge_difference_conserved_when_tail_resolved():
    # closed box, seed far from the walls: the difference n_i - n_e moves
    # only by what leaks through the boundary or gets clipped; with the
    # Gaussian resolved both are tiny (measured 6.1e-11 over 30 steps)
    sub, sys, step = _closed_system(24)
    state = _seed_state(sub, sigma=0.1, amplitude=1.0, ion_factor=1.02)
    coeffs = StreamerCoefficients(mu_e=1.0, d_e=0.05, alpha=2.0)
    q0 = total_charge(sub, state)
    ne0 = float(sub.local_mesh.areas @ state.n_e.values[:sub.n_own])
    for _ in range(30):
        state = step(state, coeffs)
    ne1 = float(sub.local_mesh.areas @ state.n_e.values[:sub.n_own])
    assert ne1 > ne0  # ionization grew the electron population
    assert state.clips == 0
    assert abs(total_charge(sub, state) - q0) < 1e-9


def test_gaussian_seed_peaks_at_center():
    mesh = structured_triangulation(16)
    sub = single_subdomain(mesh)
    ne = gaussian_seed(sub, (0.25, 0.75), 0.1, 2.0)
    peak = sub.local_mesh.centroids[int(np.argmax(ne))]
    assert abs(peak[0] - 0.25) < 0.1 and abs(peak[1] - 0.75) < 0.1
    assert ne.max() <= 2.0 + 1e-12


@pytest.mark.parametrize("potential_bc", [PLATES, ALL_NEUMANN],
                         ids=["plates", "closed"])
def test_streamer_step_is_the_run_loop_at_one_rank(potential_bc):
    # iterating the single-rank step from the seed reproduces a whole run,
    # partitioned or not, to the last bit
    from trifvm.config import RunConfig, StreamerConfig
    from trifvm.mesh import build_diamonds, node_weights
    from trifvm.runtime import run_simulation

    sc = StreamerConfig(mu_e=1.0, d_e=0.05, alpha=1.5, seed_center=(0.4, 0.5),
                        seed_sigma=0.1, potential_bc=potential_bc)
    mesh = structured_triangulation(12)
    sub = single_subdomain(mesh)
    pin = 0 if potential_bc is ALL_NEUMANN else None
    problem = assemble_system(mesh, build_diamonds(mesh), node_weights(mesh),
                              potential_bc, pin_cell=pin)
    sys = build_system(sub, sc.species_bc, potential_bc)
    factors = factorize(problem.matrix)
    coeffs = StreamerCoefficients(mu_e=sc.mu_e, d_e=sc.d_e, alpha=sc.alpha)
    seed = gaussian_seed(sub, sc.seed_center, sc.seed_sigma,
                         sc.seed_amplitude)
    state = StreamerState(n_e=Field(seed.copy(), "n_e"),
                          n_i=Field(seed.copy(), "n_i"),
                          v_pot=Field(np.zeros_like(seed), "potential"))
    for _ in range(6):
        state = coupled_step(state, coeffs, sys, problem, factors)

    for k in (1, 3):
        rep = run_simulation(RunConfig(mesh_n=12, k=k, steps=6,
                                       physics="streamer", streamer=sc))
        for name, f in (("n_e", state.n_e), ("n_i", state.n_i),
                        ("potential", state.v_pot)):
            assert np.array_equal(rep.final_fields[name], f.values), (k, name)
