"""Multi-rank execution: rank lifecycle, deterministic halo exchange, host
gather / solve / scatter, and the one explicit step loop of every run.

Ranks are in-process workers (one thread each) with fully private state;
every cross-rank interaction flows through ordered message links keyed by
(lane, source, destination), so the communication pattern is exactly what a
message-passing backend would see and no worker ever reads another's memory.
The host (rank 0) owns the global mesh, the factor-once linear system, and
all file output.

Both physics run one step, `_step`: the streamer's coupling (charge source,
host solve with the run's factors, potential to every rank), the halo
exchange, the fluxes and CFL bound, the dt reduction, the convective and
diffusive residuals, the update, and a check that every own value is still
finite.  The hooks `_Transport` and `_Streamer` hold only what differs;
`streamer_step` is `_step` on a one-rank context, which sends no messages.
"""

from __future__ import annotations

import csv
import json
import os
import queue
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import streamer as discharge
from .config import RunConfig, load_coefficient_table
from .direct_solver import LuFactors, factorize, solve
from .errors import ConfigError, SimulationError, Timeout, ZeroDt
from .mesh import (INTERIOR, Mesh, build_diamonds, load_mesh, node_weights,
                   structured_triangulation)
from .partition import (Subdomain, build_dual_graph, build_subdomains,
                        partition)
# not called here: bound so that perfbench's tracer can patch it by name
from .partition import single_subdomain  # noqa: F401
from .poisson import PoissonProblem, assemble_rhs, assemble_system
from .scaling import PHASES
from .streamer import (FluxContext, StreamerCoefficients, StreamerState,
                       StreamerSystem)
from .transport import (Field, FaceVelocity, Fluxes,
                        apply_boundary_conditions, convective_residual,
                        diamond_stencil, diffusive_residual, dirichlet_data,
                        explicit_step, stable_dt)
from .vtk_io import write_vtk

_POLL = 0.02  # seconds between abort checks while blocked on a link


class _Fabric:
    """Every message link of one run plus the shared failure switchboard."""

    def __init__(self, timeout: float):
        self.timeout = timeout
        self.links: dict[tuple, queue.SimpleQueue] = {}
        self.abort = threading.Event()
        self.failures: list[tuple] = []  # (rank, step, phase, exception)

    def add_link(self, lane: str, src: int, dst: int):
        self.links[(lane, src, dst)] = queue.SimpleQueue()

    def send(self, lane: str, src: int, dst: int, payload):
        self.links[(lane, src, dst)].put(payload)

    def recv(self, lane: str, src: int, dst: int):
        q = self.links[(lane, src, dst)]
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                return q.get(timeout=_POLL)
            except queue.Empty:
                # own deadline first: a peer that gave up later must not
                # hide that this wait expired earlier
                if time.monotonic() > deadline:
                    self.abort.set()
                    raise Timeout(f"rank {dst}: no message from rank {src} "
                                  f"within {self.timeout}s", rank=dst,
                                  deadline=deadline)
                if self.abort.is_set():
                    raise Timeout(f"rank {dst}: peer failed while waiting on "
                                  f"rank {src}", rank=dst)


@dataclass
class RankContext:
    rank: int
    k: int
    sub: Subdomain
    fabric: _Fabric | None      # None in streamer_step: k = 1 sends nothing
    # host-only global knowledge (None elsewhere)
    mesh: Mesh | None = None
    all_own_l2g: list | None = None
    all_full_l2g: list | None = None
    problem: PoissonProblem | None = None   # streamer runs only
    factors: LuFactors | None = None

    @property
    def is_host(self) -> bool:
        return self.rank == 0


def halo_exchange(ctx: RankContext, f: Field) -> Field:
    """Refresh every halo slot from its owner; post all sends, then drain.

    Collective: every rank must call it the same number of times.  k = 1 (or
    an isolated rank) degenerates to clearing the staleness flag.
    """
    links = ctx.sub.neighbor_links
    for r in ctx.sub.neighbors:
        ctx.fabric.send("halo", ctx.rank, r, f.values[links[r][0]])
    for r in ctx.sub.neighbors:
        f.values[links[r][1]] = ctx.fabric.recv("halo", r, ctx.rank)
    f.halo_stale = False
    return f


def gather_rhs(ctx: RankContext, own_values: np.ndarray):
    """Collect per-own-cell values into one global-cell-order vector.

    Returns the assembled vector on the host and None on every other rank.
    """
    if not ctx.is_host:
        ctx.fabric.send("coll", ctx.rank, 0, own_values)
        return None
    out = np.empty(ctx.mesh.n_cells)
    out[ctx.all_own_l2g[0]] = own_values
    for r in range(1, ctx.k):
        out[ctx.all_own_l2g[r]] = ctx.fabric.recv("coll", r, 0)
    return out


def broadcast_solution(ctx: RankContext, x, quantity: str = "potential",
                       t: float = 0.0) -> Field:
    """Scatter own + halo slices of a host vector to every rank.

    Only each rank's own and halo entries travel (not the full vector);
    halo slots arrive current, so no follow-up exchange is needed.
    """
    if ctx.is_host:
        for r in range(1, ctx.k):
            ctx.fabric.send("coll", 0, r, x[ctx.all_full_l2g[r]])
        local = x[ctx.sub.cells_l2g]
    else:
        local = ctx.fabric.recv("coll", 0, ctx.rank)
    return Field(values=local, quantity=quantity, time=t, halo_stale=False)


def allreduce_min(ctx: RankContext, value: float) -> float:
    """Exact min across ranks (host-rooted reduce + broadcast)."""
    if ctx.is_host:
        m = value
        for r in range(1, ctx.k):
            m = min(m, ctx.fabric.recv("coll", r, 0))
        for r in range(1, ctx.k):
            ctx.fabric.send("coll", 0, r, m)
        return m
    ctx.fabric.send("coll", ctx.rank, 0, value)
    return ctx.fabric.recv("coll", 0, ctx.rank)


@dataclass
class SimulationReport:
    steps: int
    k: int
    n_cells: int
    dt_min: float
    dt_max: float
    phase_seconds: dict
    num_assemblies: int
    num_factorizations: int
    num_solves: int
    clip_count: int
    final_fields: dict
    outputs: list
    solver: dict | None = None   # streamer runs: the factor's statistics


@dataclass
class _RankResult:
    """One rank's record: where it is while running, what it found after."""

    timers: dict
    step: int = -1
    phase: str = "spawn"
    clips: int = 0
    dt_min: float = float("inf")
    dt_max: float = 0.0
    solves: int = 0
    final_fields: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)


def _initial_transport_field(cfg: RunConfig, sub: Subdomain) -> Field:
    tc = cfg.transport
    if tc.init == "constant":
        vals = np.full(sub.n_local, float(tc.constant))
    elif tc.init == "gaussian":
        vals = discharge.gaussian_seed(sub, tc.center, tc.sigma, tc.amplitude)
    else:
        raise ConfigError(f"unknown transport init '{tc.init}'")
    return Field(values=vals, quantity="u", time=0.0, halo_stale=False)


def _gather_fields(ctx: RankContext, fields: dict) -> dict:
    """Own-cell values of every field in global order, on the host only."""
    gathered = {}
    for name in sorted(fields):
        g = gather_rhs(ctx, fields[name].values[:ctx.sub.n_own])
        if ctx.is_host:
            gathered[name] = g
    return gathered


def _emit_output(ctx: RankContext, cfg: RunConfig, fields: dict,
                 index: int, res: _RankResult) -> None:
    """Gather own-cell values per quantity; the host writes one VTK file."""
    gathered = _gather_fields(ctx, fields)
    if ctx.is_host:
        path = os.path.join(cfg.out_dir, f"{cfg.name}_{index:04d}.vtk")
        write_vtk(path, ctx.mesh, gathered,
                  title=f"{cfg.name} step output {index}")
        res.outputs.append(path)


def _resolve_dt(ctx: RankContext, dt_fixed: float | None,
                dt_local: float) -> float:
    if dt_fixed is not None:
        return dt_fixed
    dt = allreduce_min(ctx, dt_local)
    if not np.isfinite(dt):
        raise ZeroDt("no finite stability bound (V = 0 and D = 0); "
                     "set dt in the config")
    return dt


class _Transport:
    """Advection-diffusion of one scalar u under a uniform velocity."""

    couple = None               # no field solve before the exchange
    transported = "u"
    flux_phase = "fluxes"       # boundary values only: no timer
    solves = 0

    def __init__(self, sub: Subdomain, cfg: RunConfig):
        tc = cfg.transport
        lm = sub.local_mesh
        self.sub = sub
        self.stencil = diamond_stencil(lm, tc.bc, sub.diamonds, sub.weights)
        self.data = dirichlet_data(lm, tc.bc, self.stencil.kind)
        self.vel = FaceVelocity.uniform(sub, *tc.velocity)
        self.dcoef = tc.diffusion
        # the bound never reads the field: one evaluation serves every step
        self.dt_stable = stable_dt(sub, self.vel, self.dcoef, cfg.cfl)

    @staticmethod
    def fields(u: Field) -> dict:
        return {"u": u}

    def fluxes(self, u: Field) -> Fluxes:
        bvals = apply_boundary_conditions(u, self.stencil.neumann,
                                          self.data.face)
        return Fluxes(self.vel, bvals, self.dcoef, self.dt_stable)

    def update(self, u: Field, fl: Fluxes, dt: float, conv, diss):
        return explicit_step(self.sub, u, conv, diss, dt), 0


class _Streamer:
    """Electron drift-diffusion and ionization, coupled to the potential
    through one host solve per step."""

    transported = "n_e"         # ion halos are never read (no stencil)
    flux_phase = "diffusion"    # the field's diamond gradient counts there

    def __init__(self, coeffs: StreamerCoefficients, sysctx: StreamerSystem):
        self.coeffs = coeffs
        self.sys = sysctx
        self.stencil = sysctx.species
        self.data = sysctx.species_data
        self.solves = 0

    def couple(self, ctx: RankContext, state: StreamerState) -> StreamerState:
        """Charge source -> host RHS and solve -> potential on every rank."""
        g = gather_rhs(ctx, discharge.charge_source(state, self.coeffs,
                                                    ctx.sub))
        x = None
        if ctx.is_host:
            b = assemble_rhs(ctx.mesh, g, self.sys.potential_bc,
                             problem=ctx.problem)
            x = solve(ctx.factors, b)
            self.solves += 1
        return replace(state, v_pot=broadcast_solution(ctx, x, "potential",
                                                       state.time))

    @staticmethod
    def fields(state: StreamerState) -> dict:
        return {"n_e": state.n_e, "n_i": state.n_i, "potential": state.v_pot}

    def fluxes(self, state: StreamerState) -> FluxContext:
        return discharge.prepare_fluxes(state, self.coeffs, self.sys)

    def update(self, state: StreamerState, fc: FluxContext, dt: float, conv,
               diss):
        n_e, n_i, clip = discharge.apply_update(state, self.sys, fc, dt, conv,
                                                diss)
        return replace(state, n_e=n_e, n_i=n_i,
                       clips=state.clips + clip), clip


@contextmanager
def _timed(res: _RankResult, phase: str):
    """Mark the rank's phase; add the block's time to that phase's timer."""
    res.phase = phase
    t0 = time.perf_counter()
    yield
    if phase in res.timers:
        res.timers[phase] += time.perf_counter() - t0


def _step(ctx: RankContext, phys, state, dt_fixed: float | None,
          res: _RankResult):
    """One explicit step of either physics on one rank; returns the state.

    Collective: every rank runs it the same number of times.  Raises
    SimulationError when an own value of a field is no longer finite.
    """
    sub = ctx.sub
    if phys.couple is not None:
        with _timed(res, "linear_solver"):
            state = phys.couple(ctx, state)
    res.phase = "exchange"
    u = halo_exchange(ctx, phys.fields(state)[phys.transported])
    with _timed(res, phys.flux_phase):
        fl = phys.fluxes(state)
    res.phase = "stability"
    dt = _resolve_dt(ctx, dt_fixed, fl.dt_stable)
    with _timed(res, "convection"):
        conv = convective_residual(sub, u, fl.vel, fl.bvals)
    with _timed(res, "diffusion"):
        diss = diffusive_residual(sub, u, phys.stencil, phys.data, fl.bvals,
                                  fl.diffusion)
    res.phase = "update"
    state, clips = phys.update(state, fl, dt, conv, diss)
    for name, f in phys.fields(state).items():
        bad = np.count_nonzero(~np.isfinite(f.values[:sub.n_own]))
        if bad:
            raise SimulationError(f"'{name}' is not finite on {bad} of "
                                  f"{sub.n_own} own cells")
    res.dt_min, res.dt_max = min(res.dt_min, dt), max(res.dt_max, dt)
    res.clips += clips
    return state


def _physics(ctx: RankContext, cfg: RunConfig):
    """This rank's physics hook and its initial state."""
    sub = ctx.sub
    if cfg.physics != "streamer":
        return _Transport(sub, cfg), _initial_transport_field(cfg, sub)
    sc = cfg.streamer
    coeffs = _build_coefficients(sc)
    sysctx = discharge.build_system(sub, sc.species_bc, sc.potential_bc,
                                    cfl=cfg.cfl)
    ion_amp = sc.seed_amplitude if sc.ion_amplitude is None else sc.ion_amplitude
    state = StreamerState(
        n_e=Field(discharge.gaussian_seed(sub, sc.seed_center, sc.seed_sigma,
                                          sc.seed_amplitude), "n_e"),
        n_i=Field(discharge.gaussian_seed(sub, sc.seed_center, sc.seed_sigma,
                                          ion_amp), "n_i"),
        v_pot=Field(np.zeros(sub.n_local), "potential"))
    return _Streamer(coeffs, sysctx), state


def _rank_loop(ctx: RankContext, cfg: RunConfig, res: _RankResult) -> None:
    res.phase = "setup"
    phys, state = _physics(ctx, cfg)
    if cfg.out_dir:
        _emit_output(ctx, cfg, phys.fields(state), 0, res)

    t_loop = time.perf_counter()
    for step in range(cfg.steps):
        res.step = step
        state = _step(ctx, phys, state, cfg.dt, res)
        if cfg.out_dir and cfg.output_every and (step + 1) % cfg.output_every == 0:
            res.phase = "output"
            _emit_output(ctx, cfg, phys.fields(state),
                         (step + 1) // cfg.output_every, res)
    res.timers["total"] = time.perf_counter() - t_loop
    res.solves = phys.solves

    res.phase = "final gather"
    res.final_fields = _gather_fields(ctx, phys.fields(state))


def streamer_step(state: StreamerState, coeffs: StreamerCoefficients,
                  sys: StreamerSystem, dt: float | None = None) -> StreamerState:
    """One coupled cycle on a single rank: solve V, E, fluxes, update.

    This is `_step`, the step of every run, on a one-rank context whose
    collectives send no messages.  dt = None takes the CFL bound of the
    freshly computed drift field.
    """
    if sys.problem is None or sys.factors is None:
        raise ConfigError("streamer_step needs an assembled + factored system")
    sub = sys.sub
    ctx = RankContext(rank=0, k=1, sub=sub, fabric=None, mesh=sub.local_mesh,
                      all_own_l2g=[sub.cells_l2g[:sub.n_own]],
                      all_full_l2g=[sub.cells_l2g], problem=sys.problem,
                      factors=sys.factors)
    return _step(ctx, _Streamer(coeffs, sys), state, dt, _RankResult(timers={}))


def _build_coefficients(sc) -> StreamerCoefficients:
    table = None
    if sc.model == "table":
        table = load_coefficient_table(sc.table_path)
    return StreamerCoefficients(
        eps=sc.eps, q_e=sc.q_e, model=sc.model, mu_e=sc.mu_e, d_e=sc.d_e,
        alpha=sc.alpha, table=table)


def _worker_shell(ctx: RankContext, cfg: RunConfig, res: _RankResult) -> None:
    try:
        _rank_loop(ctx, cfg, res)
    except BaseException as exc:  # noqa: BLE001 - must reach the driver
        ctx.fabric.failures.append((ctx.rank, res.step, res.phase, exc))
        ctx.fabric.abort.set()


def _check_bc_labels(mesh: Mesh, cfg: RunConfig) -> None:
    labels = {lab for lab in mesh.face_labels if lab != INTERIOR}
    dicts = [("bc", cfg.transport.bc)] if cfg.physics == "transport" else \
        [("bc", cfg.streamer.species_bc),
         ("potential_bc", cfg.streamer.potential_bc)]
    for name, bc in dicts:
        missing = labels - set(bc)
        if missing:
            raise ConfigError(f"[{name}] missing labels: {sorted(missing)}")
        extra = set(bc) - labels
        if extra:
            raise ConfigError(f"[{name}] labels not on this mesh: "
                              f"{sorted(extra)}")


def _load_global_mesh(cfg: RunConfig) -> Mesh:
    if cfg.mesh_path is not None:
        return load_mesh(cfg.mesh_path)
    return structured_triangulation(cfg.mesh_n)


def run_simulation(cfg: RunConfig) -> SimulationReport:
    """Execute the full coupled loop over cfg.k in-process ranks.

    The host reads and splits the mesh, builds its diamonds and node
    weights, and assembles + factorizes the potential matrix, each exactly
    once (they depend only on the mesh), before the ranks start; each rank
    reads its slice of the geometry and each step reuses the factors.  A
    fixed config gives bit-identical fields and output files for a fixed k.
    """
    cfg.validate()
    mesh = _load_global_mesh(cfg)
    _check_bc_labels(mesh, cfg)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)

    # the run's one geometry build: every subdomain gets its slice
    diamonds, weights = build_diamonds(mesh), node_weights(mesh)
    subs = build_subdomains(mesh, partition(build_dual_graph(mesh), cfg.k),
                            diamonds, weights)

    num_assemblies = num_factorizations = 0
    problem = factors = solver = None
    if cfg.physics == "streamer":
        sc = cfg.streamer
        pin = sc.pin_cell
        if pin is None and all(v[0] == "neumann"
                               for v in sc.potential_bc.values()):
            pin = 0  # all-Neumann potential: fix the gauge once
        problem = assemble_system(mesh, diamonds, weights, sc.potential_bc,
                                  pin_cell=pin)
        num_assemblies += 1
        factors = factorize(problem.matrix)
        num_factorizations += 1
        solver = {"fill": factors.fill_nnz,
                  "offdiag_pivots": factors.offdiag_pivots,
                  "levels": factors.levels,
                  "check_residual": factors.check_residual}

    fabric = _Fabric(timeout=cfg.timeout_s)
    for sub in subs:
        for r in sub.neighbors:
            fabric.add_link("halo", sub.rank, r)
    for r in range(1, cfg.k):
        fabric.add_link("coll", 0, r)
        fabric.add_link("coll", r, 0)

    all_own = [s.cells_l2g[:s.n_own] for s in subs]
    all_full = [s.cells_l2g for s in subs]
    results = [_RankResult(timers={p: 0.0 for p in PHASES}) for _ in subs]
    ctxs = [RankContext(rank=s.rank, k=cfg.k, sub=s, fabric=fabric,
                        mesh=mesh if s.rank == 0 else None,
                        all_own_l2g=all_own if s.rank == 0 else None,
                        all_full_l2g=all_full if s.rank == 0 else None,
                        problem=problem if s.rank == 0 else None,
                        factors=factors if s.rank == 0 else None)
            for s in subs]

    threads = [threading.Thread(target=_worker_shell,
                                args=(ctx, cfg, results[ctx.rank]),
                                name=f"rank-{ctx.rank}") for ctx in ctxs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=cfg.timeout_s + 30.0)
    if any(t.is_alive() for t in threads):
        fabric.abort.set()
        raise SimulationError("a rank is hung; aborting", phase="join")

    if fabric.failures:
        # a rank's own error, else the wait whose deadline expired first
        root = next((f for f in fabric.failures
                     if not isinstance(f[3], Timeout)), None) or min(
            fabric.failures, key=lambda f: f[3].deadline or float("inf"))
        rank, step, phase, exc = root
        raise SimulationError(
            f"rank {rank} failed at step {step} in phase '{phase}': {exc}",
            step=step, rank=rank, phase=phase) from exc

    host = results[0]
    return SimulationReport(
        steps=cfg.steps, k=cfg.k, n_cells=mesh.n_cells,
        dt_min=host.dt_min if cfg.steps else 0.0,
        dt_max=host.dt_max if cfg.steps else 0.0,
        phase_seconds=dict(host.timers) if cfg.steps
        else {p: 0.0 for p in PHASES},
        num_assemblies=num_assemblies,
        num_factorizations=num_factorizations,
        num_solves=host.solves,
        clip_count=sum(r.clips for r in results),
        final_fields=host.final_fields,
        outputs=host.outputs, solver=solver)


def write_report(report: SimulationReport, out_dir) -> tuple[str, str]:
    """Emit timings.csv (phase,seconds) and run_summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "timings.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["phase", "seconds"])
        for phase in PHASES:
            w.writerow([phase, "%.17g" % report.phase_seconds[phase]])
    summary = {
        "steps": report.steps, "k": report.k, "cells": report.n_cells,
        "dt_min": report.dt_min, "dt_max": report.dt_max,
        "assemblies": report.num_assemblies,
        "factorizations": report.num_factorizations,
        "solves": report.num_solves, "clips": report.clip_count,
        "outputs": [os.path.basename(p) for p in report.outputs],
    }
    if report.solver is not None:
        summary["solver"] = report.solver
    json_path = os.path.join(out_dir, "run_summary.json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
