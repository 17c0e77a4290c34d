"""Coupled drift-diffusion-ionization cycle and its conservation structure."""

from dataclasses import replace

import numpy as np
import pytest

from trifvm.config import RunConfig, StreamerConfig, load_config
from trifvm.direct_solver import factorize
from trifvm.mesh import build_diamonds, node_weights, structured_triangulation
from trifvm.partition import single_subdomain
from trifvm.poisson import assemble_system
from trifvm.runtime import _Streamer, run_simulation
from trifvm.streamer import (StreamerState, charge_source, coefficient,
                             gaussian_seed, prepare_fluxes)
from trifvm.transport import BC_DIRICHLET, Field, face_gradients

from conftest import ALL_NEUMANN, coupled_step, streamer_hook, total_charge

PLATES = {"left": ("dirichlet", 1.0), "right": ("dirichlet", 0.0),
          "top": ("neumann",), "bottom": ("neumann",)}


def _system(n, potential_bc, pin=None, **coeffs):
    """The subdomain, its streamer hook with these coefficients, and the
    one-rank step on the factored potential system: step(state, dt=None)
    returns the state and the step's clip count."""
    mesh = structured_triangulation(n)
    sub = single_subdomain(mesh)
    problem = assemble_system(mesh, sub.diamonds, sub.weights, potential_bc,
                              pin_cell=pin)
    hook = streamer_hook(sub, potential_bc, **coeffs)
    factors = factorize(problem.matrix)
    return sub, hook, lambda state, dt=None: coupled_step(
        state, hook, problem, factors, dt)


def _closed_system(n=16, pin=0, **coeffs):
    return _system(n, ALL_NEUMANN, pin, **coeffs)


def _plate_system(n=8, **coeffs):
    return _system(n, PLATES, **coeffs)


def _seed_state(sub, sigma=0.08, amplitude=1.0, ion_factor=1.0):
    ne = gaussian_seed(sub, (0.5, 0.5), sigma, amplitude)
    return StreamerState(n_e=Field(ne.copy()), n_i=Field(ion_factor * ne),
                         v_pot=Field(np.zeros_like(ne)))


def test_table_lookup_interpolates():
    tab = np.array([[0.0, 1.0, 0.10, 0.0],
                    [2.0, 3.0, 0.30, 4.0]])
    sc, e = StreamerConfig(model="table"), np.array([1.0])
    assert coefficient(sc, tab, "mu_e", e)[0] == pytest.approx(2.0)
    assert coefficient(sc, tab, "d_e", e)[0] == pytest.approx(0.2)
    assert coefficient(sc, tab, "alpha", e)[0] == pytest.approx(2.0)
    # clamped at the ends
    assert coefficient(sc, tab, "mu_e", np.array([10.0]))[0] == \
        pytest.approx(3.0)
    # no table: the linear model's constants, whatever the field
    sc = StreamerConfig(mu_e=2.0, d_e=0.3, alpha=5.0)
    assert [coefficient(sc, None, c, e) for c in ("mu_e", "d_e", "alpha")] \
        == [2.0, 0.3, 5.0]


def test_neutral_state_has_zero_charge_source():
    sub, _, _ = _closed_system(8)
    state = _seed_state(sub)
    rho = charge_source(state, StreamerConfig(), sub)
    assert np.abs(rho).max() == 0.0


def test_charge_source_sign():
    # surplus ions push the potential up: positive rhs for -lap V = rho/eps
    sub, _, _ = _closed_system(8)
    state = _seed_state(sub, ion_factor=1.5)
    rho = charge_source(state, StreamerConfig(eps=2.0, q_e=3.0), sub)
    expect = (3.0 / 2.0) * (state.n_i.values - state.n_e.values)[:sub.n_own]
    assert np.allclose(rho, expect, rtol=0, atol=1e-15)


def test_uniform_field_between_plates():
    # V = 1 - x between the plates; E = -grad V = (1, 0), exact on every
    # interior and Dirichlet face, corners included.
    # (the vector on a Neumann face carries no contract: the diffusive flux
    # is masked to literal zero there and nothing else reads it exactly)
    sub, hook, _ = _plate_system(8)
    lm = sub.local_mesh
    v = Field(1.0 - lm.centroids[:, 0])
    e = -face_gradients(sub, hook.potential, v)
    from trifvm.transport import BC_NEUMANN
    neu = hook.potential.kind == BC_NEUMANN
    assert np.abs(e[~neu, 0] - 1.0).max() < 1e-12
    assert np.abs(e[~neu, 1]).max() < 1e-12


def test_drift_velocity_opposes_field():
    sub, hook, _ = _plate_system(8, mu_e=2.0, d_e=0.0, alpha=0.0)
    state = _seed_state(sub)
    state.v_pot = Field(1.0 - sub.local_mesh.centroids[:, 0])
    fc = prepare_fluxes(sub, state, hook.sc, hook.table, hook.potential,
                        hook.stencil, hook.cfl)
    # electrons drift against E: v = -mu E = (-2, 0), so V.n = -2 n_x
    from trifvm.transport import BC_NEUMANN
    good = hook.potential.kind != BC_NEUMANN
    n_x = sub.local_mesh.face_normals[good, 0]
    assert np.abs(fc.vel.normal[good] + 2.0 * n_x).max() < 1e-12
    assert np.isfinite(fc.dt_stable)


def test_step_counts_clips_and_keeps_densities_nonnegative():
    sub, _, step = _plate_system(8, mu_e=1.0, d_e=0.02, alpha=0.3)
    state = _seed_state(sub, sigma=0.05)
    clips = 0
    for _ in range(20):
        state, c = step(state)
        clips += c
    assert state.n_e.values.min() >= 0.0
    assert state.n_i.values.min() >= 0.0
    assert clips >= 0


def test_ionization_feeds_both_species_identically():
    # one step, fixed dt: the ion increment is exactly dt * S_e, and the
    # electron update received the same source before clipping
    sub, hook, step = _closed_system(8, mu_e=1.0, d_e=0.05, alpha=2.0)
    state = _seed_state(sub, ion_factor=1.1)
    ne0 = state.n_e.values.copy()
    ni0 = state.n_i.values.copy()
    dt = 1e-4
    after, _ = step(state, dt=dt)
    # replay the fluxes the step used: densities before, potential after
    replay = StreamerState(n_e=Field(ne0.copy()), n_i=Field(ni0.copy()),
                           v_pot=after.v_pot)
    fc = hook.fluxes(replay)
    assert np.array_equal(after.n_i.values[:sub.n_own],
                          ni0[:sub.n_own] + dt * fc.s_e)
    assert fc.s_e.max() > 0.0  # the source actually produced something


def test_charge_difference_conserved_when_tail_resolved():
    # closed box, seed far from the walls: the difference n_i - n_e moves
    # only by what leaks through the boundary or gets clipped; with the
    # Gaussian resolved both are tiny (measured 6.1e-11 over 30 steps)
    sub, _, step = _closed_system(24, mu_e=1.0, d_e=0.05, alpha=2.0)
    state = _seed_state(sub, sigma=0.1, amplitude=1.0, ion_factor=1.02)
    q0 = total_charge(sub, state)
    ne0 = float(sub.local_mesh.areas @ state.n_e.values[:sub.n_own])
    clips = 0
    for _ in range(30):
        state, c = step(state)
        clips += c
    ne1 = float(sub.local_mesh.areas @ state.n_e.values[:sub.n_own])
    assert ne1 > ne0  # ionization grew the electron population
    assert clips == 0
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
    sc = StreamerConfig(mu_e=1.0, d_e=0.05, alpha=1.5, seed_center=(0.4, 0.5),
                        seed_sigma=0.1, potential_bc=potential_bc)
    cfg = RunConfig(mesh_n=12, steps=6, physics="streamer", streamer=sc)
    mesh = structured_triangulation(12)
    sub = single_subdomain(mesh)
    pin = 0 if potential_bc is ALL_NEUMANN else None
    problem = assemble_system(mesh, build_diamonds(mesh), node_weights(mesh),
                              potential_bc, pin_cell=pin)
    hook = _Streamer(sub, cfg, None)
    factors = factorize(problem.matrix)
    state = hook.initial(cfg)
    for _ in range(6):
        state, _ = coupled_step(state, hook, problem, factors)

    for k in (1, 3):
        rep = run_simulation(replace(cfg, k=k))
        for name, f in (("n_e", state.n_e), ("n_i", state.n_i),
                        ("potential", state.v_pot)):
            assert np.array_equal(rep.final_fields[name], f.values), (k, name)


def test_a_run_seeds_the_ions_at_their_own_amplitude():
    # a 0-step run returns the hook's seed: the electrons at
    # seed_amplitude, the ions at ion_amplitude, at every rank count
    sc = StreamerConfig(seed_center=(0.4, 0.5), seed_sigma=0.1,
                        ion_amplitude=1.5, potential_bc=PLATES)
    sub = single_subdomain(structured_triangulation(12))
    want = {"n_e": gaussian_seed(sub, sc.seed_center, sc.seed_sigma, 1.0),
            "n_i": gaussian_seed(sub, sc.seed_center, sc.seed_sigma, 1.5)}
    for k in (1, 2):
        rep = run_simulation(RunConfig(mesh_n=12, k=k, steps=0,
                                       physics="streamer", streamer=sc))
        for name, seed in want.items():
            assert np.array_equal(rep.final_fields[name], seed), (k, name)


def test_bc_section_sets_the_electrons_dirichlet_faces(tmp_path):
    # [bc] is the one boundary record of the transported field: in a
    # streamer run its Dirichlet labels pin the electrons' faces
    p = tmp_path / "run.ini"
    p.write_text("[run]\nphysics = streamer\n\n[bc]\nleft = dirichlet 0.2\n")
    cfg = load_config(p)
    sub = single_subdomain(structured_triangulation(4))
    hook = _Streamer(sub, cfg, None)
    lm = sub.local_mesh
    left = np.array([lab == "left" for lab in lm.face_labels])
    assert left.any()
    assert (hook.stencil.kind[left] == BC_DIRICHLET).all()
    assert not (hook.stencil.kind[~left] == BC_DIRICHLET).any()
    assert not (hook.potential.kind == BC_DIRICHLET).any()
