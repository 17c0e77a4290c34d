"""The benchmark's own tests.

Every workload runs at a small size with all of its checks, through the
command line, traced and untraced; each check is then shown to reject a
result perturbed on purpose.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import checks, meshgen, run, tracing, workloads
from trifvm.errors import TriFvmError
from trifvm.mesh import load_mesh, structured_triangulation

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
NAMES = tuple(workloads.WORKLOADS)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _record(workload, trace):
    path = os.path.join(ROOT, "perfbench", "results",
                        f"{workload}_seed3_trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# the command, end to end

def test_spec_names_every_workload_and_metric():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert tuple(w["name"] for w in spec["workloads"]) == NAMES
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "step_ms", "peak_rss_mb"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER) + [
        "trace.traced_step_ms", "trace.untraced_step_ms",
        "trace.overhead_pct"]


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    host = json.loads(proc.stdout.strip().splitlines()[-2][len("# host "):])
    assert host["trifvm_lines"] > 0 and host["probe_before_s"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_layers_that_add_up(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

    for layers in _record(workload, 1)["layers"]:
        host = layers["host_threads"][0]
        setup = sum(sum(layers["setup_by_thread_s"][t].values())
                    for t in layers["host_threads"])
        step = sum(layers["step_by_thread_ms"][host].values())
        # the host's spans lie inside the times measured on its clock ...
        assert 0 <= setup <= layers["setup.traced_s"]
        assert 0 < step <= layers["step.traced_ms"]
        # ... cover most of them, so a missed layer would show ...
        assert layers["step.unaccounted_ms"] < 0.25 * layers["step.traced_ms"]
        assert layers["setup.unaccounted_s"] < 0.25 * layers["setup.traced_s"]
        # ... and add up to them with the unaccounted remainders
        assert setup + layers["setup.unaccounted_s"] == \
            pytest.approx(layers["setup.traced_s"], rel=1e-9)
        assert step + layers["step.unaccounted_ms"] == \
            pytest.approx(layers["step.traced_ms"], rel=1e-9)
        # the slowest rank spends at least the host's time in each layer
        for k, v in layers["step_by_thread_ms"][host].items():
            assert layers[k] >= v
        assert layers["direct_solver.fill_nnz"] > 0 or \
            workload == "transport_irregular"

    with open(os.path.join(ROOT, "perfbench", "results",
                           f"{workload}_trace.json")) as fh:
        events = json.load(fh)["traceEvents"]
    tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
    spans = [e for e in events if e["ph"] == "X"]
    if workload == "poisson_irregular":
        assert tracks == {"MainThread"}
    else:
        assert {"MainThread", "rank-0", "rank-1"} <= tracks
    assert spans and all(e["dur"] >= 0 for e in spans)


def test_coupled_run_writes_the_three_phase_table():
    assert _run("coupled_plates", 0).returncode == 0
    results = os.path.join(ROOT, "perfbench", "results")
    with open(os.path.join(results, "coupled_plates_phases.csv")) as fh:
        rows = fh.read().split()
    assert rows[0] == "cores,total,convection,diffusion,linear_solver"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2"]
    with open(os.path.join(results, "coupled_plates_scaling.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[:2] == ["cores", "sp_ideal"] and "total_speedup" in header


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coupled_plates",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --------------------------------------------------------------------------
# inputs

def test_irregular_mesh_is_seeded_and_read_back_exactly(tmp_path):
    pts, tris, bnd = meshgen.irregular_grid(6, seed=5)
    again = meshgen.irregular_grid(6, seed=5)
    other = meshgen.irregular_grid(6, seed=6)
    assert np.array_equal(pts, again[0]) and np.array_equal(tris, again[1])
    assert not np.array_equal(pts, other[0])
    path = tmp_path / "m.txt"
    meshgen.write_mesh_file(path, pts, tris, bnd)
    m = load_mesh(path)
    assert np.array_equal(m.points, pts)
    assert np.array_equal(m.areas, meshgen.areas(pts, tris))
    assert np.allclose(m.centroids, meshgen.centroids(pts, tris),
                       rtol=0, atol=1e-15)
    assert sorted(set(m.face_labels) - {"interior"}) == \
        ["bottom", "left", "right", "top"]


def test_structured_grid_matches_the_program_layout():
    pts, tris, _ = meshgen.structured_grid(5)
    m = structured_triangulation(5)
    assert np.array_equal(m.triangles, tris)
    assert np.allclose(m.points, pts, rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# each check rejects a perturbed result

def _bump(fields, name, cell, delta):
    out = {k: v.copy() for k, v in fields.items()}
    out[name][cell] += delta
    return out


@pytest.fixture(scope="module")
def coupled(tmp_path_factory):
    wl = workloads.CoupledPlates(2, workloads.SMALL,
                                 str(tmp_path_factory.mktemp("coupled")))
    rep, _, calls = wl.execute(20)
    ref, _, ref_calls = wl.execute(20, k=1, frames=False)
    return wl, rep, ref, calls, ref_calls


def test_coupled_checks_pass_and_reject_perturbations(coupled):
    wl, rep, ref, calls, ref_calls = coupled
    steps = 20
    assert calls == {"assemble_system": 1, "factorize": 1, "solve": steps}
    assert wl.check(ref, steps, None, ref_calls) == []
    assert wl.check(rep, steps, ref.final_fields, calls) == []

    def flagged(counted=calls, **changes):
        return wl.check(dataclasses.replace(rep, **changes), steps,
                        ref.final_fields, counted)

    f = rep.final_fields
    peak = int(np.argmax(f["n_e"]))
    assert flagged(final_fields=_bump(f, "n_e", peak, 1e-6))
    assert flagged(final_fields=_bump(f, "potential", 0, 1e-6))
    low = int(np.argmin(f["n_e"]))
    assert any("n_e: 1 negative" in p for p in flagged(
        final_fields=_bump(f, "n_e", low, -f["n_e"][low] - 1e-6)))
    ion_seed = checks.gaussian(wl.xy, wl.center, wl.sigma, wl.amplitude)
    assert any("n_i" in p and "below" in p for p in flagged(
        final_fields=_bump(f, "n_i", peak,
                           ion_seed[peak] - f["n_i"][peak] - 1e-6)))
    assert any("non-finite" in p for p in flagged(
        final_fields=_bump(f, "n_i", 0, np.nan)))
    assert any("factorizations" in p for p in flagged(num_factorizations=2))
    assert any("solves" in p for p in flagged(num_solves=steps - 1))
    assert any("factorize calls = 2" in p for p in
               flagged(dict(calls, factorize=2)))
    assert any("solve calls" in p for p in
               flagged(dict(calls, solve=steps - 1)))


@pytest.fixture(scope="module")
def transport(tmp_path_factory):
    wl = workloads.TransportIrregular(2, workloads.SMALL,
                                      str(tmp_path_factory.mktemp("tr")))
    rep, _, calls = wl.execute(20)
    ref, _, ref_calls = wl.execute(20, k=1, frames=False)
    return wl, rep, ref, calls, ref_calls


def test_transport_checks_pass_and_reject_perturbations(transport):
    wl, rep, ref, calls, ref_calls = transport
    steps = 20
    assert set(calls.values()) == {0}
    assert wl.check(ref, steps, None, ref_calls) == []
    assert wl.check(rep, steps, ref.final_fields, calls) == []
    assert any("solve called 1 times" in p for p in wl.check(
        rep, steps, ref.final_fields, dict(calls, solve=1)))

    def flagged(fields):
        return wl.check(dataclasses.replace(rep, final_fields=fields), steps,
                        ref.final_fields, calls)

    u = rep.final_fields["u"]
    peak = int(np.argmax(u))
    problems = flagged(_bump(rep.final_fields, "u", peak, 1e-6))
    assert any("k = 1" in p for p in problems)
    assert any("weighted sum" in p for p in problems)
    over = flagged(_bump(rep.final_fields, "u", peak, 1.0 - u[peak] + 1e-6))
    assert any("leaves the initial" in p for p in over)
    t = steps * rep.dt_min
    tol = checks.upwind_error_scale(wl.sigma, 1.0, workloads.SPEED, wl.h, t)
    assert any("max error" in p for p in
               flagged(_bump(rep.final_fields, "u", peak, -2.0 * tol)))

    out = workloads.Outcome()
    wl.after(out, [rep], ref, steps)
    assert out.problems == []
    wl.after(out, [dataclasses.replace(
        rep, final_fields=_bump(rep.final_fields, "u", peak, 1e-6))], ref,
        steps)
    assert any("differs from the final field" in p for p in out.problems)


@pytest.fixture(scope="module")
def poisson_case(tmp_path_factory):
    wl = workloads.PoissonIrregular(2, workloads.SMALL,
                                    str(tmp_path_factory.mktemp("po")))
    sys_, _ = wl.setup()
    src = wl.sources(3)
    xs, bs, _, _ = wl.solve_round(sys_, src)
    return wl, sys_, src, xs, bs


def test_poisson_residual_check_rejects_an_altered_rhs(poisson_case):
    wl, sys_, _, xs, bs = poisson_case
    a = sys_.problem.matrix
    for x, b in zip(xs, bs):
        assert checks.residual(a, x, b, "solve") == []
        altered = b.copy()
        altered[len(b) // 2] += 1e-6 * np.max(np.abs(b))
        assert checks.residual(a, x, altered, "solve")
        assert checks.residual(a, _bump({"x": x}, "x", 0, 1e-6)["x"], b,
                               "solve")


def test_poisson_rhs_check_rejects_a_perturbed_rhs(poisson_case):
    wl, sys_, src, _, bs = poisson_case
    lift = wl.solve_round(sys_, np.zeros((1, len(src[0]))))[1][0]
    for s, b in zip(src, bs):
        assert wl.rhs_check(b, lift, s, "solve") == []
        assert wl.rhs_check(_bump({"b": b}, "b", 1, 1e-6)["b"], lift, s,
                            "solve")


def test_own_matvec_matches_a_dense_product(poisson_case):
    _, sys_, _, xs, _ = poisson_case
    a = sys_.problem.matrix
    dense = np.zeros((a.n, a.n))
    for i in range(a.n):
        for p in range(a.indptr[i], a.indptr[i + 1]):
            dense[i, a.indices[p]] += a.data[p]
    assert np.allclose(checks.csr_matvec(a.indptr, a.indices, a.data, xs[0]),
                       dense @ xs[0], rtol=1e-14, atol=1e-14)


def test_poisson_affine_check_rejects_a_perturbed_cell(poisson_case):
    wl, sys_, _, _, _ = poisson_case
    x, exact = wl.affine_solve(sys_)
    assert wl.affine_check(x, exact) == []
    assert wl.affine_check(_bump({"x": x}, "x", 3, 1e-6)["x"], exact)


# --------------------------------------------------------------------------
# a failing program gives a result line, not a traceback

def _fail(*args, **kwargs):
    raise TriFvmError("broken on purpose")


@pytest.mark.parametrize("child_fails", [False, True])
def test_failed_simulation_rounds_are_counted(monkeypatch, tmp_path,
                                             child_fails):
    wl = workloads.CoupledPlates(2, workloads.SMALL, str(tmp_path))
    # the fresh process runs a stand-in for run.py that fails or reports
    script = tmp_path / "bench" / "run.py"
    script.parent.mkdir()
    child = {"setup_s": 0.1, "loop_s": 0.01, "steps": wl.child_steps(),
             "dt": 1e-3, "peak_rss_mb": 50.0}
    script.write_text('import sys; sys.exit("broken on purpose")'
                      if child_fails else f"print('{json.dumps(child)}')")
    monkeypatch.setattr(workloads, "RUN_PY", str(script))
    monkeypatch.setattr(workloads, "run_simulation", _fail)
    out = wl.measure(0.05, trace=False)
    succeeded = 0 if child_fails else wl.child_steps()
    assert out.failed == out.attempted - succeeded > 0 and out.errors
    line = run.result(out, trace=False)
    assert line == {"correct": False, "attempted": out.attempted,
                    "failed": out.failed, "metrics": {}}


def test_failed_poisson_setup_is_counted(monkeypatch, tmp_path):
    wl = workloads.PoissonIrregular(2, workloads.SMALL, str(tmp_path))
    monkeypatch.setattr(workloads.direct_solver, "factorize", _fail)
    out = wl.measure(0.05, trace=True)
    assert out.attempted == out.failed > 0
    assert out.errors == ["set-up: broken on purpose"]
    assert run.result(out, trace=True)["metrics"] == {}


# --------------------------------------------------------------------------
# tracing

def test_self_time_excludes_nested_spans_and_names_are_restored():
    mod = types.ModuleType("fake")

    def inner():
        sum(range(20000))

    def outer():
        sum(range(20000))
        mod.inner()

    mod.inner, mod.outer = inner, outer
    tracer = tracing.Tracer()
    tracer.patch(mod, "inner", "a.inner_s")
    tracer.patch(mod, "outer", "a.outer_s")
    mod.outer()
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    spans = {s[1]: s for s in tracer.spans}
    o, i = spans["fake.outer"], spans["fake.inner"]
    assert o[3] <= i[3] <= i[4] <= o[4]
    assert o[5] == pytest.approx((o[4] - o[3]) - (i[4] - i[3]), abs=1e-12)
    assert i[5] == pytest.approx(i[4] - i[3], abs=1e-12)
