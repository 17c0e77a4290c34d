"""The three workloads: inputs made from a seed, timed rounds, checks.

The program is used as a library through its public functions, unchanged.

* coupled_plates: `run_simulation` of the streamer between two plates on
  the structured grid, k = 2 thread ranks, CFL-adaptive dt, no frames.
* transport_irregular: `run_simulation` of an advected and diffused
  Gaussian on a seeded irregular mesh read from a mesh file, k = 2, with a
  VTK frame every `frame_every` steps.
* poisson_irregular: the all-Dirichlet Poisson operator of a seeded
  irregular mesh, factored once, then a stream of seeded charge
  right-hand sides, on one thread.

A run executes the workload once in fresh processes (set-up time, peak
memory and, for the simulations, the step cost that sizes the rounds),
times rounds in its own process with the reference run or the fresh
processes between them, then checks every output.  See README.md for the
make-up of each workload.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from trifvm import cli, direct_solver, mesh as trimesh, poisson, runtime
from trifvm.config import RunConfig, StreamerConfig, TransportConfig
from trifvm.errors import TriFvmError
from trifvm.runtime import run_simulation

from . import checks, meshgen, tracing

RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

K = 2                 # thread ranks of the two simulation workloads
ROUNDS = 3            # timed run_simulation calls per untraced run
TRACED_PAIRS = 2      # untraced + traced call pairs per traced run
POISSON_CHILDREN = 2  # fresh processes that set the Poisson system up

PLATES = {"left": ("dirichlet", 1.0), "right": ("dirichlet", 0.0),
          "top": ("neumann",), "bottom": ("neumann",)}
BOX = {"left": ("dirichlet", 1.0), "right": ("dirichlet", 0.0),
       "top": ("dirichlet", 0.5), "bottom": ("dirichlet", 0.5)}

SPEED = 0.4           # transport: |velocity|
DIFFUSION = 0.002     # transport: D
SIGMA = 0.06          # transport: width of the initial Gaussian
# The diamond diffusion is not monotone on a distorted mesh, so the far
# Gaussian tail (about 1e-35 at the start) may dip below its initial
# minimum by round-off sized amounts; a bound violation must exceed this.
BOUNDS_TOL = 1e-8
# the calls a simulation makes into the Poisson solver, counted in every run
SOLVER_CALLS = ("assemble_system", "factorize", "solve")


@dataclass(frozen=True)
class Sizes:
    coupled_n: int = 32
    transport_n: int = 128
    poisson_n: int = 32
    frame_every: int = 50
    coupled_child_steps: int = 60
    solves_per_round: int = 50
    child_solves: int = 10


FULL = Sizes()
SMALL = Sizes(coupled_n=8, transport_n=48, poisson_n=8,
              frame_every=5, coupled_child_steps=10, solves_per_round=10,
              child_solves=4)


@dataclass
class Outcome:
    """What one run measured and found."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)   # failed checks
    errors: list = field(default_factory=list)     # failed operations
    setup_s: list = field(default_factory=list)
    loops: list = field(default_factory=list)         # (seconds, steps)
    traced_loops: list = field(default_factory=list)  # (seconds, steps)
    rss_mb: list = field(default_factory=list)
    layers: list = field(default_factory=list)     # per traced execution
    notes: dict = field(default_factory=dict)


def mean_step_ms(loops: list) -> float:
    """Milliseconds per step over all (seconds, steps) rounds."""
    return 1e3 * sum(s for s, _ in loops) / sum(n for _, n in loops)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spawn_child(wl, steps: int, out: Outcome) -> dict | None:
    """Execute the workload once in a fresh process; its JSON summary, or
    None when it failed, which counts its steps as failed in `out`."""
    cmd = [sys.executable, RUN_PY, "--child", "--workload", wl.name,
           "--seed", str(wl.seed), "--steps", str(steps)]
    if wl.sizes == SMALL:
        cmd.append("--small")
    out.attempted += steps
    try:
        proc = subprocess.run(cmd, cwd=os.path.dirname(os.path.dirname(
            RUN_PY)), capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        error = "timed out"
    else:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        error = f"exited {proc.returncode}: {last[0]}"
    out.failed += steps
    out.errors.append(f"fresh process: {error}")
    return None


@contextlib.contextmanager
def counting_calls(module, names):
    """Count the calls of each module.<name> made while inside."""
    calls = dict.fromkeys(names, 0)
    saved = {name: getattr(module, name) for name in names}
    lock = threading.Lock()

    def counted(name, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name, fn in saved.items():
        setattr(module, name, counted(name, fn))
    try:
        yield calls
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, out_dir: str,
                 write_inputs: bool = True):
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir

    def _mesh_file(self, n: int, write: bool) -> str:
        pts, tris, bnd = meshgen.irregular_grid(n, self.seed)
        self.xy = meshgen.centroids(pts, tris)
        self.areas = meshgen.areas(pts, tris)
        edges = pts[tris] - pts[np.roll(tris, -1, axis=1)]
        self.h = float(np.hypot(edges[..., 0], edges[..., 1]).max())
        path = os.path.join(self.out_dir,
                            f"mesh_{self.name}_n{n}_seed{self.seed}.txt")
        if write:
            meshgen.write_mesh_file(path, pts, tris, bnd)
        return path


# --------------------------------------------------------------------------
# run_simulation workloads

class _Simulation(Workload):
    final_gathers = 1   # fields the program gathers after its loop
    step_unit = 10      # rounds run a multiple of this many steps
    # Longest simulated time of a round.  The checks hold for any number of
    # steps up to it, however fast the program gets: past it the transport
    # Gaussian would start to leave through the walls.
    max_time = 0.05

    def config(self, steps: int, k: int, frames: bool) -> RunConfig:
        raise NotImplementedError

    def check(self, rep, steps: int, reference, calls: dict) -> list:
        raise NotImplementedError

    def execute(self, steps: int, k: int = K, frames: bool = True,
                tracer: tracing.Tracer | None = None):
        """One `run_simulation`: its report, its wall time, and how often
        it called the Poisson assembly and the direct solver."""
        cfg = self.config(steps, k, frames)
        with counting_calls(runtime, SOLVER_CALLS) as calls, \
                tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            rep = run_simulation(cfg)
            t1 = time.perf_counter()
        if tracer is not None:
            tracer.mark("run_simulation", t0, t1)
        return rep, t1 - t0, calls

    def child_steps(self) -> int:
        return self.step_unit

    def child(self, steps: int) -> dict:
        rep, wall, _ = self.execute(steps)
        loop = rep.phase_seconds["total"]
        return {"setup_s": wall - loop, "loop_s": loop, "steps": steps,
                "dt": rep.dt_max, "peak_rss_mb": peak_rss_mb()}

    def measure(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        first = spawn_child(self, self.child_steps(), out)
        if first is None:
            return out
        out.setup_s.append(first["setup_s"])
        out.rss_mb.append(first["peak_rss_mb"])
        # equal rounds that fill `seconds`: at least ROUNDS of them (pairs
        # when traced), more when max_time caps their length
        per_step = first["loop_s"] / first["steps"]
        unit = self.step_unit
        rounds = 2 * TRACED_PAIRS if trace else ROUNDS
        steps = unit * max(1, min(round(seconds / rounds / per_step / unit),
                                  int(self.max_time / first["dt"] / unit)))
        more = round(seconds / (steps * per_step))
        rounds = max(rounds, more + more % 2 if trace else more)
        out.notes["steps_per_round"] = steps

        reports, reference = [], None
        for i in range(rounds):
            if i == 1:  # between timed rounds, to spread them in time
                reference = self.reference(out, steps)
            tracer = tracing.Tracer() if trace and i % 2 else None
            out.attempted += steps
            try:
                rep, wall, calls = self.execute(steps, tracer=tracer)
            except TriFvmError as exc:
                out.failed += steps
                out.errors.append(f"round {i}: {exc}")
                continue
            loop = rep.phase_seconds["total"]
            if tracer is None:
                out.setup_s.append(wall - loop)
                out.loops.append((loop, steps))
            else:
                out.traced_loops.append((loop, steps))
                windows = tracing.loop_windows(tracer, self.final_gathers,
                                               loop)
                out.layers.append(tracing.summarize(
                    tracer, windows, wall - loop, 1e3 * loop / steps, steps))
                tracing.write_chrome_trace(tracer, os.path.join(
                    self.out_dir, f"{self.name}_trace.json"))
            reports.append((i, rep, calls))

        fields = None if reference is None else reference.final_fields
        for i, rep, calls in reports:
            out.problems += [f"round {i}: {p}" for p in
                             self.check(rep, steps, fields, calls)]
        if reports and reference is not None:
            self.after(out, [rep for _, rep, _ in reports], reference, steps)
        return out

    def reference(self, out: Outcome, steps: int):
        """The checked k = 1 run that the rounds are compared with, or None
        when it failed."""
        out.attempted += steps
        try:
            rep, _, calls = self.execute(steps, k=1, frames=False)
        except TriFvmError as exc:
            out.failed += steps
            out.errors.append(f"k = 1 run: {exc} (rounds not compared)")
            return None
        out.problems += [f"k = 1 run: {p}"
                         for p in self.check(rep, steps, None, calls)]
        return rep

    def after(self, out: Outcome, reports: list, reference, steps: int):
        """Checks and outputs that need every round."""


class CoupledPlates(_Simulation):
    name = "coupled_plates"
    final_gathers = 3   # n_e, n_i, potential
    max_time = 0.2      # the seed drifts 0.2 of the 0.4 to the left plate

    def __init__(self, seed, sizes, out_dir, write_inputs=True):
        super().__init__(seed, sizes, out_dir)
        rng = np.random.default_rng([seed, 1])
        self.center = (0.5 + rng.uniform(-0.1, 0.1),
                       0.5 + rng.uniform(-0.1, 0.1))
        self.sigma = float(rng.uniform(0.08, 0.12))
        self.amplitude = float(rng.uniform(0.5, 1.5))
        pts, tris, _ = meshgen.structured_grid(sizes.coupled_n)
        self.xy = meshgen.centroids(pts, tris)

    def child_steps(self) -> int:
        return self.sizes.coupled_child_steps

    def config(self, steps, k, frames):
        return RunConfig(
            mesh_n=self.sizes.coupled_n, k=k, steps=steps, physics="streamer",
            streamer=StreamerConfig(seed_center=self.center,
                                    seed_sigma=self.sigma,
                                    seed_amplitude=self.amplitude,
                                    potential_bc=dict(PLATES)))

    def check(self, rep, steps, reference, calls):
        f = rep.final_fields
        problems = checks.counters(rep, calls, steps) + checks.finite(f)
        problems += checks.nonnegative("n_e", f["n_e"])
        ion_seed = checks.gaussian(self.xy, self.center, self.sigma,
                                   self.amplitude)
        problems += checks.not_below("n_i", f["n_i"], ion_seed)
        if reference is not None:
            problems += checks.same_fields(f, reference, "k = 2 vs k = 1")
        return problems

    def after(self, out, reports, reference, steps):
        """The paper's three-phase table at k = 1 and k = 2, and its
        scaling report from `trifvm scaling`."""
        k2 = sorted(reports, key=lambda r: r.phase_seconds["total"])
        rows = [(1, reference.phase_seconds),
                (K, k2[len(k2) // 2].phase_seconds)]
        table = os.path.join(self.out_dir, f"{self.name}_phases.csv")
        report = os.path.join(self.out_dir, f"{self.name}_scaling.csv")
        phases = ("total", "convection", "diffusion", "linear_solver")
        with open(table, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("cores",) + phases)
            for cores, ph in rows:
                w.writerow([cores] + [repr(ph[p]) for p in phases])
        with open(os.path.join(self.out_dir, f"{self.name}_scaling.txt"),
                  "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(["scaling", table, "--base", "1",
                             "--out", report])
        if code != 0:
            out.problems.append(f"trifvm scaling exited {code}")
            return
        with open(report, newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        want = rows[0][1]["total"] / rows[1][1]["total"]
        if not math.isclose(float(last["total_speedup"]), want,
                            rel_tol=1e-12):
            out.problems.append(f"trifvm scaling: total speedup "
                                f"{last['total_speedup']} != {want!r}")
        out.notes["phases_k1"] = rows[0][1]
        out.notes["phases_k2"] = rows[1][1]


class TransportIrregular(_Simulation):
    name = "transport_irregular"

    def __init__(self, seed, sizes, out_dir, write_inputs=True):
        super().__init__(seed, sizes, out_dir)
        self.step_unit = sizes.frame_every
        self.mesh_path = self._mesh_file(sizes.transport_n, write_inputs)
        rng = np.random.default_rng([seed, 2])
        angle = rng.uniform(0.0, 2.0 * math.pi)
        self.velocity = (SPEED * math.cos(angle), SPEED * math.sin(angle))
        self.center = tuple(0.5 + rng.uniform(-0.03, 0.03, size=2))
        self.sigma = SIGMA
        self.frames_dir = os.path.join(out_dir, "frames", self.name)

    def config(self, steps, k, frames):
        return RunConfig(
            mesh_path=self.mesh_path, k=k, steps=steps,
            output_every=self.sizes.frame_every if frames else 0,
            out_dir=self.frames_dir if frames else None, name="u",
            transport=TransportConfig(velocity=self.velocity,
                                      diffusion=DIFFUSION, sigma=self.sigma,
                                      center=self.center))

    def check(self, rep, steps, reference, calls):
        u = rep.final_fields["u"]
        problems = [f"{n} called {c} times" for n, c in calls.items() if c]
        problems += checks.finite(rep.final_fields)
        u0 = checks.gaussian(self.xy, self.center, self.sigma, 1.0)
        problems += checks.within("u", u, float(u0.min()), float(u0.max()),
                                  BOUNDS_TOL)
        problems += checks.conserved("u", self.areas, u, u0)
        t = steps * rep.dt_min
        exact = checks.moving_gaussian(self.xy, self.center, self.sigma, 1.0,
                                       self.velocity, DIFFUSION, t)
        tol = checks.upwind_error_scale(self.sigma, 1.0, SPEED, self.h, t)
        problems += checks.close_to("u", u, exact, tol)
        if reference is not None:
            problems += checks.same_fields(rep.final_fields, reference,
                                           "k = 2 vs k = 1")
        return problems

    def after(self, out, reports, reference, steps):
        rep = reports[-1]
        frames = steps // self.sizes.frame_every + 1
        if len(rep.outputs) != frames:
            out.problems.append(f"{len(rep.outputs)} frames, expected "
                                f"{frames}")
        else:
            out.problems += checks.frame_matches(rep.outputs[-1], "u",
                                                 rep.final_fields["u"])


# --------------------------------------------------------------------------
# direct Poisson solves

@dataclass
class _PoissonSystem:
    mesh: object
    diamonds: object
    weights: object
    problem: object
    factors: object


class PoissonIrregular(Workload):
    name = "poisson_irregular"

    def __init__(self, seed, sizes, out_dir, write_inputs=True):
        super().__init__(seed, sizes, out_dir)
        self.mesh_path = self._mesh_file(sizes.poisson_n, write_inputs)
        self.rng = np.random.default_rng([seed, 3])
        a, b, c = np.random.default_rng([seed, 4]).uniform(-1.0, 1.0, 3)
        self.affine = lambda x, y: a + b * x + c * y  # noqa: E731

    def setup(self, tracer=None):
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            m = trimesh.load_mesh(self.mesh_path)
            d = trimesh.build_diamonds(m)
            w = trimesh.node_weights(m)
            prob = poisson.assemble_system(m, d, w, BOX)
            lu = direct_solver.factorize(prob.matrix)
            t1 = time.perf_counter()
        if tracer is not None:
            tracer.mark("setup", t0, t1)
        return _PoissonSystem(m, d, w, prob, lu), t1 - t0

    def sources(self, count: int) -> np.ndarray:
        """Charge densities: three seeded Gaussian blobs each."""
        out = np.zeros((count, len(self.xy)))
        for row in out:
            for q, cx, cy, s in zip(self.rng.uniform(-50.0, 50.0, 3),
                                    self.rng.uniform(0.2, 0.8, 3),
                                    self.rng.uniform(0.2, 0.8, 3),
                                    self.rng.uniform(0.05, 0.15, 3)):
                row += checks.gaussian(self.xy, (cx, cy), s, q)
        return out

    def solve_round(self, sys_: _PoissonSystem, sources: np.ndarray,
                    tracer=None):
        xs = np.empty_like(sources)
        bs = np.empty_like(sources)
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            for j, s in enumerate(sources):
                bs[j] = poisson.assemble_rhs(sys_.mesh, s, BOX,
                                             problem=sys_.problem)
                xs[j] = direct_solver.solve(sys_.factors, bs[j])
            t1 = time.perf_counter()
        if tracer is not None:
            tracer.mark("solves", t0, t1)
        return xs, bs, t0, t1

    def child(self, steps: int) -> dict:
        sys_, setup = self.setup()
        _, _, t0, t1 = self.solve_round(sys_, self.sources(steps))
        return {"setup_s": setup, "loop_s": t1 - t0, "steps": steps,
                "peak_rss_mb": peak_rss_mb()}

    def measure(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        tracer = tracing.Tracer() if trace else None
        try:
            sys_, setup = self.setup(tracer)
        except TriFvmError as exc:
            out.attempted = out.failed = self.sizes.solves_per_round
            out.errors.append(f"set-up: {exc}")
            return out
        out.setup_s.append(setup)
        zero = np.zeros(len(self.xy))
        lift = poisson.assemble_rhs(sys_.mesh, zero, BOX, problem=sys_.problem)

        per_round = self.sizes.solves_per_round
        windows, i = [], 0
        # the fresh processes split the timed rounds into equal stretches,
        # so that a run's rounds span more of the host's slow speed drifts
        stretches = 1 if trace else POISSON_CHILDREN + 1
        for stretch in range(stretches):
            child = spawn_child(self, self.sizes.child_solves, out) \
                if stretch else None
            if child is not None:
                out.setup_s.append(child["setup_s"])
                out.rss_mb.append(child["peak_rss_mb"])
            start = time.perf_counter()
            while i < 2 or time.perf_counter() - start < seconds / stretches:
                i = self._round(i, sys_, lift, tracer if trace and i % 2
                                else None, out, windows)
        try:
            out.problems += self.affine_check(*self.affine_solve(sys_))
        except TriFvmError as exc:
            out.problems.append(f"affine solve: {exc}")
        out.notes["solves_per_round"] = per_round
        if trace and windows:
            out.layers.append(tracing.summarize(
                tracer, {"MainThread": windows}, setup,
                mean_step_ms(out.traced_loops),
                sum(n for _, n in out.traced_loops)))
            tracing.write_chrome_trace(tracer, os.path.join(
                self.out_dir, f"{self.name}_trace.json"))
        return out

    def _round(self, i: int, sys_: _PoissonSystem, lift: np.ndarray, tracer,
               out: Outcome, windows: list) -> int:
        """Time round i of fresh right-hand sides, then check every solve."""
        per_round = self.sizes.solves_per_round
        src = self.sources(per_round)
        out.attempted += per_round
        try:
            xs, bs, t0, t1 = self.solve_round(sys_, src, tracer)
        except TriFvmError as exc:
            out.failed += per_round
            out.errors.append(f"round {i}: {exc}")
            return i + 1
        if tracer is not None:
            windows.append((t0, t1))
            out.traced_loops.append((t1 - t0, per_round))
        else:
            out.loops.append((t1 - t0, per_round))
        for j in range(per_round):
            what = f"round {i} solve {j}"
            out.problems += checks.residual(sys_.problem.matrix, xs[j], bs[j],
                                            what)
            out.problems += self.rhs_check(bs[j], lift, src[j], what)
        return i + 1

    def rhs_check(self, b: np.ndarray, lift: np.ndarray, source: np.ndarray,
                  what: str) -> list:
        """b minus the Dirichlet lift is the cell area times the source."""
        want = self.areas * source
        return checks.close_to(f"{what}: rhs - lift vs area * source",
                               b - lift, want,
                               1e-12 * float(np.max(np.abs(want))))

    def affine_solve(self, sys_: _PoissonSystem):
        """Zero-source solve with affine Dirichlet data, by the factors of
        the workload's matrix; (solution, affine field at the centroids).
        Affine data must leave the matrix as it is."""
        bc = {side: ("dirichlet", self.affine) for side in BOX}
        prob = poisson.assemble_system(sys_.mesh, sys_.diamonds,
                                       sys_.weights, bc)
        a, b = prob.matrix, sys_.problem.matrix
        if not (np.array_equal(a.indptr, b.indptr)
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.data, b.data)):
            raise RuntimeError("affine Dirichlet data changed the matrix")
        rhs = poisson.assemble_rhs(sys_.mesh, np.zeros(len(self.xy)), bc,
                                   problem=prob)
        x = direct_solver.solve(sys_.factors, rhs)
        return x, self.affine(self.xy[:, 0], self.xy[:, 1])

    @staticmethod
    def affine_check(x: np.ndarray, exact: np.ndarray) -> list:
        """The solve reproduces the affine field at the centroids."""
        return checks.close_to("affine solve", x, exact,
                               1e-10 * float(np.max(np.abs(exact))))


WORKLOADS = {w.name: w for w in (CoupledPlates, TransportIrregular,
                                 PoissonIrregular)}
