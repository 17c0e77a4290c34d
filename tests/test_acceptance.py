"""End-to-end acceptance checks: one test per shipped guarantee.

Each test enforces the tolerance the package promises and the wall-clock
budget the check is expected to fit in; measured values are printed so a
failure (or a run with -s) shows the actual numbers.
"""

import math
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from trifvm.cli import main as cli_main
from trifvm.config import RunConfig, StreamerConfig, TransportConfig
from trifvm.direct_solver import dense_lu_oracle, factorize, solve
from trifvm.errors import SingularMatrix
from trifvm.mesh import build_diamonds, node_weights, structured_triangulation
from trifvm.partition import (build_dual_graph, edge_cut, partition,
                              partition_metrics, single_subdomain)
from trifvm.poisson import assemble_rhs, assemble_system, csr_from_coo
from trifvm.runtime import run_simulation, streamer_step
from trifvm.streamer import (StreamerCoefficients, StreamerState, build_system,
                             gaussian_seed, total_charge)
from trifvm.transport import (FaceVelocity, Field, apply_boundary_conditions,
                              classify_faces, convective_residual,
                              diamond_stencil, diffusive_residual,
                              dirichlet_data, explicit_step,
                              face_gradients, neumann_faces, stable_dt)

from conftest import (ALL_NEUMANN, TIMING_ROWS, dirichlet_bc, irregular_mesh,
                      random_spd_like, write_timing_table)

PLATES = {"left": ("dirichlet", 1.0), "right": ("dirichlet", 0.0),
          "top": ("neumann",), "bottom": ("neumann",)}


@contextmanager
def _budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    print(f"  [{elapsed:.2f} s of {seconds:.0f} s budget]")
    assert elapsed < seconds


def _csr_matvec(mat, x):
    out = np.empty(mat.n)
    for i in range(mat.n):
        sl = slice(mat.indptr[i], mat.indptr[i + 1])
        out[i] = mat.data[sl] @ x[mat.indices[sl]]
    return out


def _hand_seconds(text):
    h, m, s = (int(tok) for tok in re.findall(r"\d+", text))
    return h * 3600 + m * 60 + s


def test_scaling_pipeline_matches_hand_computation(tmp_path):
    """Eleven-row timing table -> speedup/efficiency for all four phases."""
    with _budget(1.0):
        src = write_timing_table(tmp_path / "timings.csv")
        out = tmp_path / "report.csv"
        assert cli_main(["scaling", str(src), "--base", "1",
                         "--out", str(out)]) == 0
        table = np.genfromtxt(out, delimiter=",", names=True)
        rows = {int(r["cores"]): r for r in table}

        hand = {c: {"total": _hand_seconds(tot), "convection": _hand_seconds(cv),
                    "diffusion": _hand_seconds(df),
                    "linear_solver": _hand_seconds(sol)}
                for c, tot, cv, df, sol in TIMING_ROWS}
        for cores, times in hand.items():
            for phase, t in times.items():
                sp = hand[1][phase] / t
                assert rows[cores][f"{phase}_speedup"] == \
                    pytest.approx(sp, rel=1e-12)
                assert rows[cores][f"{phase}_efficiency"] == \
                    pytest.approx(100.0 * sp / cores, rel=1e-12)

        sp64 = float(rows[64]["total_speedup"])
        sp1024 = float(rows[1024]["total_speedup"])
        sol1024 = float(rows[1024]["linear_solver_speedup"])
        print(f"  measured: total sp(64)={sp64:.4f} sp(1024)={sp1024:.4f} "
              f"solver sp(1024)={sol1024:.4f}")
        assert sp64 == pytest.approx(48.6, abs=0.1)
        assert sp1024 == pytest.approx(572.3, abs=0.1)
        assert sol1024 == pytest.approx(602.0, abs=1.0)


def test_rank_count_invariance_of_diffused_gaussian():
    """Gaussian diffused 50 steps on the 32-mesh: 1, 2, 4, 8 ranks agree."""
    with _budget(30.0):
        def cfg(k):
            return RunConfig(mesh_n=32, k=k, steps=50, physics="transport",
                             transport=TransportConfig(
                                 velocity=(0.0, 0.0), diffusion=0.1,
                                 init="gaussian", center=(0.5, 0.5),
                                 sigma=0.1, amplitude=1.0))
        base = run_simulation(cfg(1)).final_fields["u"]
        scale = float(np.abs(base).max())
        worst = 0.0
        for k in (2, 4, 8):
            u = run_simulation(cfg(k)).final_fields["u"]
            worst = max(worst, float(np.abs(u - base).max()) / scale)
        print(f"  measured: worst relative deviation {worst:.3e}")
        assert worst <= 1e-12


def test_poisson_manufactured_solution_order_and_residual():
    """sin(pi x) sin(pi y) Dirichlet problem: order from 16 -> 32 cells/side."""
    with _budget(60.0):
        errs, resids = {}, {}
        for n in (16, 32):
            mesh = structured_triangulation(n)
            dia, w = build_diamonds(mesh), node_weights(mesh)
            bc = dirichlet_bc(0.0)
            problem = assemble_system(mesh, dia, w, bc)
            x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
            src = 2.0 * math.pi ** 2 * np.sin(math.pi * x) * np.sin(math.pi * y)
            b = assemble_rhs(mesh, src, bc, problem=problem)
            u = solve(factorize(problem.matrix), b)
            exact = np.sin(math.pi * x) * np.sin(math.pi * y)
            errs[n] = float(np.abs(u - exact).max())
            resids[n] = float(np.abs(_csr_matvec(problem.matrix, u) - b).max()
                              / np.abs(b).max())
        order = math.log2(errs[16] / errs[32])
        print(f"  measured: L-inf {errs[16]:.6e} -> {errs[32]:.6e}, "
              f"order {order:.3f}, residuals {resids[16]:.2e} {resids[32]:.2e}")
        assert order >= 0.9
        assert resids[16] <= 1e-10 and resids[32] <= 1e-10


def test_streamer_run_factorizes_once_and_solves_every_step():
    """100 coupled steps reuse one numeric factorization for 100 solves."""
    with _budget(60.0):
        cfg = RunConfig(mesh_n=16, k=2, steps=100, physics="streamer",
                        streamer=StreamerConfig(model="linear", mu_e=1.0,
                                                d_e=0.05, alpha=0.5,
                                                seed_center=(0.5, 0.5),
                                                seed_sigma=0.1,
                                                seed_amplitude=1.0))
        rep = run_simulation(cfg)
        print(f"  measured: {rep.num_factorizations} factorization(s), "
              f"{rep.num_solves} solves over {rep.steps} steps")
        assert rep.steps == 100
        assert rep.num_factorizations == 1
        assert rep.num_solves == 100


def test_sparse_solver_matches_dense_oracle_on_seeded_systems():
    """50 seeded sparse systems up to n = 200 against the dense LU oracle."""
    with _budget(10.0):
        worst = 0.0
        for trial in range(50):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(5, 201))
            rows, cols, vals = random_spd_like(rng, n)
            mat = csr_from_coo(n, rows, cols, vals)
            dense = np.zeros((n, n))
            np.add.at(dense, (rows.astype(int), cols.astype(int)), vals)
            b = rng.standard_normal(n)
            x = solve(factorize(mat), b)
            ref = dense_lu_oracle(dense, b)
            worst = max(worst, float(np.abs(x - ref).max()
                                     / max(1.0, np.abs(ref).max())))
        print(f"  measured: worst relative deviation {worst:.3e}")
        assert worst <= 1e-10

        singular = csr_from_coo(3, [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 1, 2],
                                [1.0, 2.0, 1.0, 2.0, 1.0, 1.0])
        with pytest.raises(SingularMatrix):
            factorize(singular)


def _closed_box_mass_drift(sub, dia, w):
    """Largest per-step change of the cell-measure-weighted sum over 50
    pure-diffusion steps in a closed (all-Neumann) box."""
    lm = sub.local_mesh
    sten_n = diamond_stencil(lm, ALL_NEUMANN, dia, w)
    data_n = dirichlet_data(lm, ALL_NEUMANN, sten_n.kind)
    d2 = (lm.centroids[:, 0] - 0.5) ** 2 + (lm.centroids[:, 1] - 0.5) ** 2
    u = Field(np.exp(-d2 / (2.0 * 0.1 ** 2)))
    dt = stable_dt(sub, FaceVelocity.zero(sub), 0.1)
    mass = float(lm.areas @ u.values)
    step_drift = 0.0
    for _ in range(50):
        diss = diffusive_residual(sub, u, sten_n, data_n,
                                  apply_boundary_conditions(u, sten_n.neumann,
                                                            data_n.face), 0.1)
        u = explicit_step(sub, u, np.zeros_like(diss), diss, dt)
        now = float(lm.areas @ u.values)
        step_drift = max(step_drift, abs(now - mass))
        mass = now
    return step_drift


def _upwind_overshoot(sub):
    """How far 200 pure upwind convection steps leave the initial bounds."""
    lm = sub.local_mesh
    kind_n = classify_faces(lm, ALL_NEUMANN)
    dirich_n = dirichlet_data(lm, ALL_NEUMANN, kind_n).face
    d2 = (lm.centroids[:, 0] - 0.5) ** 2 + (lm.centroids[:, 1] - 0.5) ** 2
    u = Field(np.exp(-d2 / (2.0 * 0.1 ** 2)))
    lo, hi = float(u.values.min()), float(u.values.max())
    vel = FaceVelocity.uniform(sub, 1.0, 0.4)
    dt = stable_dt(sub, vel, 0.0)
    overshoot = 0.0
    for _ in range(200):
        bvals = apply_boundary_conditions(u, neumann_faces(lm, kind_n), dirich_n)
        conv = convective_residual(sub, u, vel, bvals)
        u = explicit_step(sub, u, conv, np.zeros_like(conv), dt)
        overshoot = max(overshoot, lo - float(u.values.min()),
                        float(u.values.max()) - hi)
    return overshoot


def test_transport_conservation_max_principle_and_exact_gradients(sub16,
                                                                  geom16):
    """Zero-flux mass conservation, upwind bounds, affine-field gradients."""
    with _budget(30.0):
        dia, w = geom16
        lm = sub16.local_mesh
        step_drift = _closed_box_mass_drift(sub16, dia, w)
        overshoot = _upwind_overshoot(sub16)

        # diamond gradient reproduces an affine field on every face
        a, b, c = 0.7, -1.3, 2.1
        lin = lambda x, y: a + b * x + c * y
        ulin = Field(lin(lm.centroids[:, 0], lm.centroids[:, 1]))
        bc = dirichlet_bc(lin)
        sten = diamond_stencil(lm, bc, dia, w)
        grad = face_gradients(sub16, sten, ulin, dirichlet_data(lm, bc, sten.kind))
        grad_err = max(float(np.abs(grad[:, 0] - b).max()),
                       float(np.abs(grad[:, 1] - c).max()))

        print(f"  measured: mass drift/step {step_drift:.3e}, "
              f"bound overshoot {overshoot:.3e}, gradient error {grad_err:.3e}")
        assert step_drift <= 1e-12
        assert overshoot <= 1e-12
        assert grad_err <= 1e-12


def test_transport_conservation_and_upwind_bounds_on_irregular_meshes():
    """The same drift and overshoot bounds on seeded irregular meshes."""
    with _budget(30.0):
        for n, seed in ((16, 1), (16, 2), (32, 1)):
            sub = single_subdomain(irregular_mesh(n, seed))
            lm = sub.local_mesh
            w = node_weights(lm)
            step_drift = _closed_box_mass_drift(sub, build_diamonds(lm), w)
            overshoot = _upwind_overshoot(sub)
            print(f"  measured: n={n} seed={seed} mass drift/step "
                  f"{step_drift:.3e}, bound overshoot {overshoot:.3e}")
            assert step_drift <= 1e-12
            assert overshoot <= 1e-12


def _partition_quality(g, k, rng_seed):
    """(imbalance, edge cut, best cut of 100 random balanced partitions)."""
    pm = partition(g, k)
    metrics = partition_metrics(g, pm)
    rng = np.random.default_rng(rng_seed)
    best_random = min(
        edge_cut(g, type(pm)(part=rng.permutation(np.arange(g.n) % k), k=k))
        for _ in range(100))
    return metrics["imbalance"], metrics["edge_cut"], best_random


def test_partition_balance_and_edge_cut_beat_random():
    """4- and 8-way splits of the 16- and 32-meshes: balanced, low cut."""
    with _budget(10.0):
        for n in (16, 32):
            g = build_dual_graph(structured_triangulation(n))
            for k in (4, 8):
                imbalance, cut, best_random = _partition_quality(
                    g, k, 1000 * n + k)
                print(f"  measured: n={n} k={k} imbalance {imbalance:.3f} "
                      f"cut {cut} (best random {best_random})")
                assert imbalance <= 1.10
                assert cut < best_random


def test_partition_balance_and_edge_cut_beat_random_on_irregular_meshes():
    """The same bounds on seeded irregular meshes of both sizes."""
    with _budget(20.0):
        for n in (16, 32):
            for seed in (1, 2):
                g = build_dual_graph(irregular_mesh(n, seed))
                for k in (4, 8):
                    imbalance, cut, best_random = _partition_quality(
                        g, k, 1000 * n + 10 * seed + k)
                    print(f"  measured: n={n} seed={seed} k={k} imbalance "
                          f"{imbalance:.3f} cut {cut} (best random "
                          f"{best_random})")
                    assert imbalance <= 1.10
                    assert cut < best_random


def test_charge_conservation_and_vacuum_potential():
    """Closed-box charge difference frozen; neutral gas sees the vacuum field."""
    with _budget(60.0):
        # (a) resolved seed far from the walls, 100 coupled steps
        mesh = structured_triangulation(64)
        sub = single_subdomain(mesh)
        problem = assemble_system(mesh, sub.diamonds, sub.weights, ALL_NEUMANN,
                                  pin_cell=0)
        sys = build_system(sub, ALL_NEUMANN, ALL_NEUMANN,
                           problem=problem, factors=factorize(problem.matrix))
        ne = gaussian_seed(sub, (0.5, 0.5), 0.06, 1.0)
        state = StreamerState(n_e=Field(ne.copy(), "n_e"),
                              n_i=Field(1.02 * ne, "n_i"),
                              v_pot=Field(np.zeros_like(ne), "potential"))
        coeffs = StreamerCoefficients(mu_e=1.0, d_e=0.05, alpha=2.0)
        q0 = total_charge(sub, state)
        for _ in range(100):
            state = streamer_step(state, coeffs, sys)
        drift = abs(total_charge(sub, state) - q0)
        print(f"  measured: charge drift {drift:.3e}, clips {state.clips}")
        assert drift <= 1e-10

        # (b) n_i == n_e exactly: the solved potential IS the zero-source
        # solve, same doubles, here nontrivial thanks to the plate lift
        mesh = structured_triangulation(16)
        sub = single_subdomain(mesh)
        problem = assemble_system(mesh, sub.diamonds, sub.weights, PLATES)
        sys = build_system(sub, ALL_NEUMANN, PLATES,
                           problem=problem, factors=factorize(problem.matrix))
        ne = gaussian_seed(sub, (0.5, 0.5), 0.1, 1.0)
        neutral = StreamerState(n_e=Field(ne.copy(), "n_e"),
                                n_i=Field(ne.copy(), "n_i"),
                                v_pot=Field(np.zeros_like(ne), "potential"))
        after = streamer_step(neutral, coeffs, sys, dt=1e-6)
        vac = solve(sys.factors,
                    assemble_rhs(sub.local_mesh, np.zeros(sub.n_own), PLATES,
                                 problem=sys.problem))
        assert float(np.abs(vac).max()) > 0.5  # the lift actually did work
        assert np.array_equal(after.v_pot.values[:sub.n_own], vac)
