"""Rank harness: the pipe fabric, halo exchange, collectives, timers and
failure paths.  Ranks 1..k-1 run as forked processes, so what a test counts
in them reaches it through a file or the report, and every failure-path
test checks that no child is left."""

import json
import os
import select
import signal
import subprocess
import sys
import time

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
    # V = (1, 0.5): Dirichlet inflow on the left and bottom, outflow on top
    inflow = {"left": ("dirichlet", 1.0),
              "bottom": ("dirichlet", lambda x, y: 0.5 + x),
              "top": ("dirichlet", 0.0), "right": ("neumann",)}
    mesh_file = irregular_mesh_file(tmp_path / "m.txt", 16, 5)
    for mesh_path, bc in ((None, None), (mesh_file, None), (None, inflow),
                          (mesh_file, inflow)):
        base = None
        for k in (1, 2, 4):
            cfg = _diffusion_cfg(k, mesh_path=mesh_path)
            cfg.transport.bc = bc or cfg.transport.bc
            rep = run_simulation(cfg)
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


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("make_cfg", [_diffusion_cfg, _streamer_cfg],
                         ids=["transport", "streamer"])
def test_geometry_built_once_per_run(monkeypatch, tmp_path, make_cfg, k):
    # the host builds the global diamonds and node weights once; every rank
    # reads its subdomain's slice of them and builds none.  The calls go to
    # a file, so that a forked rank's calls are counted too
    from trifvm import partition, runtime, streamer

    log = tmp_path / "calls.txt"
    log.touch()
    for name in ("build_diamonds", "node_weights"):
        def counted(*args, _fn=getattr(runtime, name), _name=name, **kw):
            with open(log, "a") as fh:
                fh.write(_name + "\n")
            return _fn(*args, **kw)
        for module in (runtime, streamer, partition):
            monkeypatch.setattr(module, name, counted)
    run_simulation(make_cfg(k, steps=2))
    calls = log.read_text().split()
    assert sorted(calls) == ["build_diamonds", "node_weights"]


def test_constant_table_reproduces_linear_model(tmp_path):
    # a table whose columns are the linear model's constants (mu_e = 1,
    # D_e = 0.1, alpha = 1) takes the table branch and lands on its bits
    table = tmp_path / "coefficients.txt"
    table.write_text("0.0 1.0 0.1 1.0\n1e6 1.0 0.1 1.0\n")
    plates = {"left": ("dirichlet", 1.0), "right": ("dirichlet", 0.0),
              "top": ("neumann",), "bottom": ("neumann",)}
    for k in (1, 2):
        final = {}
        for model in ("linear", "table"):
            sc = StreamerConfig(model=model, table_path=str(table),
                                potential_bc=plates)
            final[model] = run_simulation(RunConfig(
                mesh_n=12, k=k, steps=5, physics="streamer",
                streamer=sc)).final_fields
        for name in ("n_e", "n_i", "potential"):
            assert np.array_equal(final["table"][name],
                                  final["linear"][name]), (k, name)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    _assert_no_child_left()


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
        _assert_no_child_left()


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


def test_clip_count_sums_every_rank():
    # the children's clips reach the report through their last message
    base = run_simulation(_streamer_cfg(1)).clip_count
    assert base > 0
    for k in (2, 3):
        assert run_simulation(_streamer_cfg(k)).clip_count == base


@pytest.mark.parametrize("k", [2, 3])
def test_fabric_moves_mebibyte_arrays_both_ways_in_order(k):
    # every rank sends three 1 MiB arrays to every other before it receives
    # any: each link carries 48 times its 64 KiB pipe buffer, and no send
    # may block on it
    from trifvm import runtime

    def payload(src, dst, i):
        return np.arange(1 << 17, dtype=np.float64) + (100 * src + 10 * dst + i)

    def exchange(fabric, rank):
        peers = [r for r in range(k) if r != rank]
        for dst in peers:
            for i in range(3):
                fabric.send("halo", rank, dst, payload(rank, dst, i))
        ok = all(fabric.recv("halo", src, rank).tobytes()
                 == payload(src, rank, i).tobytes()
                 for src in peers for i in range(3))
        fabric.drain()
        return ok

    fabric = runtime._Fabric(20.0, [("halo", s, d) for s in range(k)
                                    for d in range(k) if s != d])
    children = {}
    try:
        for rank in range(1, k):
            pid = os.fork()
            if pid == 0:
                try:
                    fabric.keep(rank)
                    os._exit(0 if exchange(fabric, rank) else 2)
                finally:
                    os._exit(1)
            children[rank] = pid
        fabric.keep(0)
        assert exchange(fabric, 0)
        codes = {r: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for r, pid in children.items()}
        children.clear()
        assert codes == {r: 0 for r in range(1, k)}
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        fabric.close()
    _assert_no_child_left()


def test_sends_to_an_exited_rank_end_long_before_the_timeout():
    # rank 1 exits unread once rank 0's first bytes reach it, while 3 MiB
    # wait for it: rank 0's sends or its drain hit the broken pipe
    from trifvm import runtime
    from trifvm.errors import Timeout

    fabric = runtime._Fabric(20.0, [("halo", 0, 1), ("halo", 1, 0)])
    pid = os.fork()
    if pid == 0:
        try:
            fabric.keep(1)
            select.select([fabric.reader[("halo", 0, 1)]], [], [], 20.0)
        finally:
            os._exit(0)
    try:
        fabric.keep(0)
        t0 = time.monotonic()
        with pytest.raises(Timeout, match="rank 0: rank 1 is gone"):
            for _ in range(3):
                fabric.send("halo", 0, 1, np.zeros(1 << 17))
            fabric.drain()
        assert time.monotonic() - t0 < 5.0
    finally:
        os.waitpid(pid, 0)
        fabric.close()
    _assert_no_child_left()


@pytest.mark.parametrize("k, pipes", [(1, 0), (2, 6)])
def test_a_run_opens_one_pipe_per_link_and_no_other(monkeypatch, k, pipes):
    # k = 2: a halo link each way, a collective link each way, the start
    # link to rank 1 and its report link back
    from trifvm import runtime
    real, made = os.pipe, []

    def pipe():
        made.append(real())
        return made[-1]

    monkeypatch.setattr(runtime.os, "pipe", pipe)
    run_simulation(_diffusion_cfg(k, steps=2))
    assert len(made) == pipes


def test_no_rank_outlives_its_host(tmp_path):
    # the host process is killed mid-run: each child reads EOF on its links
    # from the host, or a broken pipe on its links to it, and exits
    if not os.path.isdir("/proc/self"):
        pytest.skip("no /proc to read a process's state from")
    pids = tmp_path / "pids.txt"
    code = (
        "import os\n"
        "from trifvm.config import RunConfig\n"
        "from trifvm.runtime import run_simulation\n"
        "real = os.fork\n"
        "def fork():\n"
        "    pid = real()\n"
        "    if pid:\n"
        f"        with open({str(pids)!r}, 'a') as fh:\n"
        "            fh.write(f'{pid}\\n')\n"
        "    return pid\n"
        "os.fork = fork\n"
        "run_simulation(RunConfig(mesh_n=16, k=3, steps=10**7, "
        "timeout_s=600.0))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    host = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        t0 = time.monotonic()
        while not (pids.exists() and len(pids.read_text().split()) == 2):
            assert host.poll() is None, "the run ended before it forked"
            assert time.monotonic() - t0 < 60.0, "no children within 60 s"
            time.sleep(0.01)
    finally:
        host.kill()
        host.wait()

    def alive(pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rpartition(")")[2].split()[0] != "Z"
        except FileNotFoundError:
            return False

    children = [int(p) for p in pids.read_text().split()]
    t0 = time.monotonic()
    while any(map(alive, children)) and time.monotonic() - t0 < 5.0:
        time.sleep(0.01)
    left = [pid for pid in children if alive(pid)]
    for pid in left:   # not reparented to this process: kill, not reap
        os.kill(pid, signal.SIGKILL)
    assert not left


def test_dead_rank_ends_the_run_long_before_its_timeout(monkeypatch):
    # rank 1 leaves without a word at step 2: the host reads EOF on its
    # link instead of waiting out timeout_s, and the run names rank 1
    import threading

    from trifvm import runtime
    real = runtime.convective_residual
    calls = {"n": 0}

    def dying(*args, **kwargs):
        if threading.current_thread().name == "rank-1":
            calls["n"] += 1
            if calls["n"] == 3:  # the convection phase of step 2
                os._exit(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "convective_residual", dying)
    t0 = time.monotonic()
    with pytest.raises(SimulationError) as exc:
        run_simulation(_diffusion_cfg(2, steps=10, timeout_s=30.0))
    assert time.monotonic() - t0 < 10.0
    assert exc.value.rank == 1
    assert "exited with code 1" in str(exc.value)
    _assert_no_child_left()


def test_wrapper_records_of_every_rank_reach_the_caller(monkeypatch):
    # a tracer that wraps a function records into lists in the caller's
    # process; each child sends what it appended, so every rank shows up
    import functools
    import threading

    from trifvm import runtime
    seen = []
    real = runtime.halo_exchange

    @functools.wraps(real)
    def traced(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "halo_exchange", traced)
    caller = threading.current_thread().name
    run_simulation(_diffusion_cfg(3, steps=7))
    assert sorted(seen) == sorted(["rank-0", "rank-1", "rank-2"] * 7)
    assert threading.current_thread().name == caller
    _assert_no_child_left()


def test_a_childs_foreign_error_keeps_its_type_name(monkeypatch):
    import threading

    from trifvm import runtime
    real = runtime.diffusive_residual

    def failing(*args, **kwargs):
        if threading.current_thread().name == "rank-1":
            raise KeyError("stencil")
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "diffusive_residual", failing)
    with pytest.raises(SimulationError, match="KeyError: 'stencil'") as exc:
        run_simulation(_diffusion_cfg(2, steps=3, timeout_s=5.0))
    assert (exc.value.rank, exc.value.phase) == (1, "diffusion")
    _assert_no_child_left()


def test_interrupt_on_the_host_ends_the_run_and_every_child(monkeypatch):
    import threading

    from trifvm import runtime
    real = runtime.explicit_step
    calls = {"n": 0}

    def interrupted(*args, **kwargs):
        if threading.current_thread().name == "rank-0":
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(runtime, "explicit_step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_simulation(_diffusion_cfg(3, steps=10, timeout_s=30.0))
    _assert_no_child_left()


def test_links_past_fd_1024_still_wait():
    # select() cannot watch a descriptor of 1024 or more; the waits poll
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft < 1200 and (hard != resource.RLIM_INFINITY and hard < 1200):
        pytest.skip("the open-file limit is below 1200")
    if soft < 1200:
        resource.setrlimit(resource.RLIMIT_NOFILE, (1200, hard))
    filler = []
    try:
        while not filler or filler[-1] < 1030:
            filler.append(os.open(os.devnull, os.O_RDONLY))
        base = run_simulation(_diffusion_cfg(1, steps=5)).final_fields["u"]
        rep = run_simulation(_diffusion_cfg(2, steps=5))
        assert np.array_equal(rep.final_fields["u"], base)
    finally:
        for fd in filler:
            os.close(fd)
        if soft < 1200:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    _assert_no_child_left()


def test_too_many_links_for_the_open_file_limit_is_a_config_error(
        monkeypatch):
    import errno

    from trifvm import runtime
    real, made = os.pipe, []

    def pipe():
        if len(made) == 5:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        made.append(real())
        return made[-1]

    monkeypatch.setattr(runtime.os, "pipe", pipe)
    with pytest.raises(ConfigError, match="open files"):
        run_simulation(_diffusion_cfg(4, steps=2))
    for r, w in made:  # every pipe made before the failure is closed
        for fd in (r, w):
            with pytest.raises(OSError):
                os.fstat(fd)
    _assert_no_child_left()
