"""Threaded rank harness: halo exchange, collectives, timers, failure paths."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from trifvm.config import RunConfig, StreamerConfig, TransportConfig
from trifvm.errors import ConfigError, SimulationError
from trifvm.runtime import PHASES, run_simulation, write_report

from conftest import irregular_mesh_file

GAUSS = dict(init="gaussian", center=(0.5, 0.5), sigma=0.1, amplitude=1.0)


def _diffusion_cfg(k, n=16, steps=20, **kw):
    return RunConfig(mesh_n=n, k=k, steps=steps, physics="transport",
                     transport=TransportConfig(velocity=(1.0, 0.5),
                                               diffusion=0.05, **GAUSS), **kw)


def _streamer_cfg(k, n=16, steps=10, **kw):
    return RunConfig(mesh_n=n, k=k, steps=steps, physics="streamer",
                     streamer=StreamerConfig(model="linear", mu_e=1.0,
                                             d_e=0.05, alpha=0.5,
                                             seed_center=(0.5, 0.5),
                                             seed_sigma=0.1,
                                             seed_amplitude=1.0), **kw)


def test_rank_count_invariance_is_bitwise(tmp_path):
    for mesh_path in (None, irregular_mesh_file(tmp_path / "m.txt", 16, 5)):
        base = None
        for k in (1, 2, 4):
            rep = run_simulation(_diffusion_cfg(k, mesh_path=mesh_path))
            u = rep.final_fields["u"]
            if base is None:
                base = u
            else:
                assert np.array_equal(u, base)


def test_rank_count_invariance_streamer(tmp_path):
    for mesh_path in (None, irregular_mesh_file(tmp_path / "m.txt", 16, 6)):
        base = None
        for k in (1, 3):
            rep = run_simulation(_streamer_cfg(k, steps=5,
                                               mesh_path=mesh_path))
            if base is None:
                base = rep.final_fields
            else:
                for name in ("n_e", "n_i", "potential"):
                    assert np.array_equal(rep.final_fields[name], base[name])


def test_factor_once_counters():
    rep = run_simulation(_streamer_cfg(2, steps=7))
    assert rep.num_assemblies == 1
    assert rep.num_factorizations == 1
    assert rep.num_solves == 7


def test_transport_runs_no_solver():
    rep = run_simulation(_diffusion_cfg(2, steps=5))
    assert rep.num_factorizations == 0
    assert rep.num_solves == 0
    assert rep.phase_seconds["linear_solver"] == 0.0
    assert rep.phase_seconds["convection"] > 0.0
    assert rep.phase_seconds["diffusion"] > 0.0
    assert rep.phase_seconds["total"] > 0.0


def test_zero_steps_zero_phase_timers():
    rep = run_simulation(_diffusion_cfg(2, steps=0))
    for phase in ("convection", "diffusion", "linear_solver"):
        assert rep.phase_seconds[phase] == 0.0
    assert rep.steps == 0


def test_fixed_dt_is_respected():
    rep = run_simulation(_diffusion_cfg(1, steps=3, dt=1e-4))
    assert rep.dt_min == rep.dt_max == 1e-4


def test_no_motion_raises_simulation_error():
    cfg = RunConfig(mesh_n=8, k=2, steps=3, physics="transport",
                    transport=TransportConfig(velocity=(0.0, 0.0),
                                              diffusion=0.0))
    with pytest.raises(SimulationError) as exc:
        run_simulation(cfg)
    assert exc.value.step == 0
    assert exc.value.rank in (0, 1)


def test_unknown_bc_label_rejected_before_spawn():
    cfg = _diffusion_cfg(2)
    cfg.transport.bc = dict(cfg.transport.bc, sideways=("neumann",))
    with pytest.raises(ConfigError):
        run_simulation(cfg)


def test_report_files(tmp_path):
    rep = run_simulation(_diffusion_cfg(2, steps=4, out_dir=str(tmp_path),
                                        output_every=2, name="case"))
    csv_path, json_path = write_report(rep, tmp_path)
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "phase,seconds"
    assert [ln.split(",")[0] for ln in lines[1:]] == list(PHASES)
    summary = json.load(open(json_path))
    assert summary["steps"] == 4 and summary["k"] == 2
    assert summary["cells"] == 2 * 16 * 16
    # initial frame + one every 2 steps
    assert len(rep.outputs) == 3
    for name in rep.outputs:
        assert os.path.exists(os.path.join(tmp_path, name))


def test_mesh_file_input(tmp_path):
    from trifvm.mesh import save_mesh, structured_triangulation
    p = tmp_path / "m.txt"
    save_mesh(structured_triangulation(8), p)
    cfg = _diffusion_cfg(2, steps=3)
    cfg.mesh_path = str(p)
    rep = run_simulation(cfg)
    assert rep.n_cells == 2 * 8 * 8


def test_streamer_all_neumann_pins_automatically():
    # closed box with no Dirichlet side anywhere must still be solvable
    rep = run_simulation(_streamer_cfg(1, steps=2))
    assert rep.num_solves == 2


def test_host_report_matches_single_rank_fields():
    r1 = run_simulation(_diffusion_cfg(1, steps=10))
    r4 = run_simulation(_diffusion_cfg(4, steps=10))
    assert r1.n_cells == r4.n_cells
    assert np.array_equal(r1.final_fields["u"], r4.final_fields["u"])
    assert r1.dt_min == r4.dt_min  # allreduce-min is exact, not approximate


def test_non_finite_fields_end_the_run(tmp_path):
    # dt far above the diffusive bound: the field overflows within a few
    # dozen steps, and the run must stop there instead of finishing on NaN
    with pytest.raises(SimulationError) as exc:
        run_simulation(RunConfig(mesh_n=16, k=2, steps=200, dt=0.5))
    assert exc.value.phase == "update"
    assert exc.value.rank in (0, 1)
    assert 0 <= exc.value.step < 200
    assert "not finite" in str(exc.value)

    from trifvm.cli import main
    ini = tmp_path / "blowup.ini"
    ini.write_text("[run]\nmesh_n = 16\nk = 2\nsteps = 200\ndt = 0.5\n")
    assert main(["run", "--config", str(ini), "--out", str(tmp_path)]) == 3


def test_rank_failure_names_rank_step_phase_and_joins_every_rank(monkeypatch):
    import threading

    from trifvm import runtime
    real = runtime.convective_residual
    calls = {"n": 0}

    def failing(*args, **kwargs):
        if threading.current_thread().name == "rank-1":
            calls["n"] += 1
            if calls["n"] == 4:  # the convection phase of step 3
                raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "convective_residual", failing)
    with pytest.raises(SimulationError) as exc:
        run_simulation(_diffusion_cfg(2, steps=10, timeout_s=5.0))
    assert (exc.value.rank, exc.value.step, exc.value.phase) == \
        (1, 3, "convection")
    assert not [t for t in threading.enumerate()
                if t.name.startswith("rank-") and t.is_alive()]


def test_silent_rank_times_out_and_joins_every_rank(monkeypatch):
    # rank 1 never sends its halo: rank 0 gives up after timeout_s, and the
    # run names rank 0, the step and the phase instead of hanging.  Rank 1's
    # own wait (in the dt reduction) starts after rank 0's and may notice
    # its expiry first; the blame must not follow that race
    import threading

    from trifvm import runtime
    real = runtime._Fabric.send

    def drop_rank1_halo(self, lane, src, dst, payload):
        if not (lane == "halo" and src == 1):
            real(self, lane, src, dst, payload)

    monkeypatch.setattr(runtime._Fabric, "send", drop_rank1_halo)
    for _ in range(10):
        with pytest.raises(SimulationError) as exc:
            run_simulation(_diffusion_cfg(2, steps=5, timeout_s=0.2))
        assert (exc.value.rank, exc.value.step, exc.value.phase) == \
            (0, 0, "exchange")
        assert "no message from rank 1" in str(exc.value)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("rank-") and t.is_alive()]


def test_runs_never_import_scipy(tmp_path):
    # scipy is not a dependency: a transport run from a mesh file and a
    # streamer run (assembly, factorization, solves) must not load it
    mesh_path = irregular_mesh_file(tmp_path / "m.txt", 8, 1)
    code = (
        "import sys\n"
        "from trifvm.config import RunConfig\n"
        "from trifvm.runtime import run_simulation\n"
        f"run_simulation(RunConfig(mesh_path={mesh_path!r}, k=2, steps=2))\n"
        "run_simulation(RunConfig(mesh_n=8, k=2, steps=2, "
        "physics='streamer'))\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
