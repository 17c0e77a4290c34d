"""Multi-rank execution: rank lifecycle, deterministic halo exchange, host
gather / solve / scatter, and the one explicit step loop of every run.

Rank 0, the host, runs on the caller's thread, named `rank-0` for the run;
every other rank runs in a process of its own, forked once the subdomains
exist, on a thread named `rank-r`.  Every cross-rank interaction flows
through an ordered message link, one pipe per (lane, source, destination),
so no rank reads another's memory, and a rank that fails or dies reaches
its peers as EOF on these links.  The host owns the global mesh, the
factor-once linear system, and all file output.

Both physics run one step, `_step`: the streamer's coupling (charge source,
host solve with the run's factors, potential to every rank), the halo
exchange, the fluxes and CFL bound, the dt reduction, the convective and
diffusive residuals, the update, and a check that every own value is still
finite.  The hooks `_Transport` and `_Streamer` hold only what differs,
and each is its rank's one record of its physics: built from the subdomain
and the config, it holds the BC layouts (`RunConfig.bc` for the field it
transports) and builds the initial state; the streamer's also holds its
coefficient record, `cfg.streamer` and the table the host loaded before
the mesh.  The transport cases of `verification` run `_step` on
`_one_rank`'s context, which sends no messages.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
import types
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace

import numpy as np

from . import streamer as discharge
from .config import RunConfig, load_coefficient_table
from .direct_solver import LuFactors, factorize, solve
from .errors import (ConfigError, NumericError, SimulationError, Timeout,
                     TriFvmError)
from .mesh import (INTERIOR, Mesh, build_diamonds, load_mesh, node_weights,
                   structured_triangulation)
from .partition import (Subdomain, build_dual_graph, build_subdomains,
                        partition)
# not called here: bound so that perfbench's tracer can patch it by name
from .partition import single_subdomain  # noqa: F401
from .poisson import PoissonProblem, assemble_rhs, assemble_system
from .scaling import PHASES
from .streamer import FluxContext, StreamerState
from .transport import (Field, FaceVelocity, Fluxes,
                        apply_boundary_conditions, convective_residual,
                        diamond_stencil, diffusive_residual, explicit_step,
                        stable_dt)
from .vtk_io import write_vtk

_HEAD = struct.Struct("<Q")   # a message: its pickle's length, then the pickle
_SPIN = 0.002                 # seconds a wait polls its link before it sleeps


class _Fabric:
    """Every message link of one run, one non-blocking pipe each.  A send
    never blocks: what a full pipe cannot take waits in the link's outbox,
    which every wait writes on.  A failure travels as EOF or a broken pipe:
    a failed rank closes every end but its `done` ones (`stop`), and a dead
    process's ends close with it."""

    def __init__(self, timeout: float, links):
        self.timeout = timeout
        self.pipes, self.fds = {}, set()
        try:
            for key in links:
                self.pipes[key] = os.pipe()
                self.fds.update(self.pipes[key])
        except OSError as exc:   # EMFILE: more links than open files
            self.close()
            raise ConfigError(f"{len(links)} message links need "
                              f"{2 * len(links)} open files: "
                              f"{exc.strerror}") from None
        for r, w in self.pipes.values():
            os.set_blocking(r, False)
            os.set_blocking(w, False)

    def keep(self, rank: int) -> None:
        """Close the pipe ends that `rank`'s process does not use, so that a
        peer that exits shows up as EOF."""
        self.rank = rank
        self.reader = {k: r for k, (r, _) in self.pipes.items() if k[2] == rank}
        self.writer = {k: w for k, (_, w) in self.pipes.items() if k[1] == rank}
        self.inbox = {k: bytearray() for k in self.reader}
        self.outbox = {k: bytearray() for k in self.writer}
        self.close(keep={*self.reader.values(), *self.writer.values()})

    def stop(self) -> None:
        """Close every end but the `done` lane's and drop the other outboxes:
        each peer of a failed rank reads EOF or gets a broken pipe."""
        self.reader = {k: r for k, r in self.reader.items() if k[0] == "done"}
        self.writer = {k: w for k, w in self.writer.items() if k[0] == "done"}
        self.outbox = {k: self.outbox[k] for k in self.writer}
        self.close(keep={*self.reader.values(), *self.writer.values()})

    def close(self, keep=frozenset()) -> None:
        for fd in self.fds - keep:
            os.close(fd)
        self.fds &= keep

    def send(self, lane: str, src: int, dst: int, payload):
        self.post(lane, src, dst, payload)
        self._flush((lane, src, dst))

    def post(self, lane: str, src: int, dst: int, payload):
        """Queue the payload on its link; the sender's next wait writes it."""
        body = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        self.outbox[(lane, src, dst)] += _HEAD.pack(len(body)) + body

    def _flush(self, key, deadline=math.inf, peer=None) -> None:
        """Write as much of the link's outbox as its pipe takes now."""
        out = self.outbox[key]
        try:
            while out:
                del out[:os.write(self.writer[key], out)]
        except BlockingIOError:
            pass
        except BrokenPipeError:
            raise self._timeout(deadline, peer, gone=key[2]) from None

    def recv(self, lane: str, src: int, dst: int, timeout=None):
        """The next payload on the link.  Raises Timeout after `timeout`
        seconds (default: the run's), or at EOF: its writer has stopped."""
        key = (lane, src, dst)
        deadline = time.monotonic() + (timeout or self.timeout)
        fd, buf = self.reader[key], self.inbox[key]
        while True:
            if len(buf) >= _HEAD.size:
                end = _HEAD.size + _HEAD.unpack_from(buf)[0]
                if len(buf) >= end:
                    payload = pickle.loads(buf[_HEAD.size:end])
                    del buf[:end]
                    return payload
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                self._wait(fd, deadline, f"rank {src}")
                continue
            if not chunk:
                raise self._timeout(deadline, f"rank {src}", gone=src)
            buf += chunk

    def drain(self) -> None:
        """Block until every outbox is written: a child's last sends."""
        self._wait(None, time.monotonic() + self.timeout,
                   "the readers of its sends")

    def _timeout(self, deadline: float, peer: str, gone=None) -> Timeout:
        """A wait's Timeout: its expiry once `deadline` has passed (a peer
        that gave up later must not hide it), else that rank `gone` left."""
        if gone is None or time.monotonic() > deadline:
            return Timeout(f"rank {self.rank}: no message from {peer} "
                           f"within {self.timeout}s", deadline=deadline)
        return Timeout(f"rank {self.rank}: rank {gone} is gone")

    def _wait(self, fd, deadline: float, peer: str) -> None:
        """Write the outboxes until `fd` can be read (fd None: until they
        are empty).  The first _SPIN seconds poll and yield the core in
        between, since an idle core wakes slowly."""
        spin = time.monotonic() + _SPIN
        while True:
            full = {self.writer[k]: k for k, out in self.outbox.items() if out}
            if fd is None and not full:
                return
            now = time.monotonic()
            if now > deadline:
                raise self._timeout(deadline, peer)
            # poll, not select: no fd number limit
            poll = select.poll()
            if fd is not None:
                poll.register(fd, select.POLLIN)
            for w in full:
                poll.register(w, select.POLLOUT)
            ready = dict(poll.poll(0 if now < spin else
                                   1e3 * min(deadline - now, 1.0)))
            for w in full.keys() & ready.keys():
                self._flush(full[w], deadline, peer)
            if fd in ready:
                return
            if now < spin:
                os.sched_yield()


@dataclass
class RankContext:
    rank: int
    k: int
    sub: Subdomain
    fabric: _Fabric | None      # None in _one_rank: k = 1 sends nothing
    # host-only global knowledge (None elsewhere)
    mesh: Mesh | None = None
    all_own_l2g: list | None = None
    all_full_l2g: list | None = None
    problem: PoissonProblem | None = None   # streamer runs only
    factors: LuFactors | None = None

    @property
    def is_host(self) -> bool:
        return self.rank == 0


def _one_rank(sub: Subdomain) -> RankContext:
    """The context of a lone rank holding the whole mesh in `sub`."""
    return RankContext(rank=0, k=1, sub=sub, fabric=None, mesh=sub.local_mesh,
                       all_own_l2g=[sub.cells_l2g[:sub.n_own]],
                       all_full_l2g=[sub.cells_l2g])


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


def broadcast_solution(ctx: RankContext, x) -> Field:
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
    return Field(local)


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
    failure: tuple | None = None    # (rank, step, phase, exception)


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
        raise NumericError("no finite stability bound (V = 0 and D = 0); "
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
        self.sub = sub
        self.stencil = diamond_stencil(sub.local_mesh, cfg.bc)
        self.vel = FaceVelocity.uniform(sub, *tc.velocity)
        self.dcoef = tc.diffusion
        # the bound never reads the field: one evaluation serves every step
        self.dt_stable = stable_dt(sub, self.vel, self.dcoef, cfg.cfl)

    def initial(self, cfg: RunConfig) -> Field:
        tc = cfg.transport
        if tc.init == "constant":
            return Field(np.full(self.sub.n_local, float(tc.constant)))
        return Field(discharge.gaussian_seed(self.sub, tc.center, tc.sigma,
                                             tc.amplitude))

    @staticmethod
    def fields(u: Field) -> dict:
        return {"u": u}

    def fluxes(self, u: Field) -> Fluxes:
        return Fluxes(self.vel, apply_boundary_conditions(u, self.stencil),
                      self.dcoef, self.dt_stable)

    def update(self, u: Field, fl: Fluxes, dt: float, conv, diss):
        return explicit_step(self.sub, u, conv, diss, dt), 0


class _Streamer:
    """Electron drift-diffusion and ionization, coupled to the potential
    through one host solve per step."""

    transported = "n_e"         # ion halos are never read (no stencil)
    flux_phase = "diffusion"    # the field's diamond gradient counts there

    def __init__(self, sub: Subdomain, cfg: RunConfig,
                 table: np.ndarray | None):
        self.sub, self.sc, self.table, self.cfl = \
            sub, cfg.streamer, table, cfg.cfl
        self.stencil = diamond_stencil(sub.local_mesh, cfg.bc)
        self.potential = diamond_stencil(sub.local_mesh, self.sc.potential_bc)
        self.solves = 0

    def initial(self, cfg: RunConfig) -> StreamerState:
        """Both species from one Gaussian, the ions at `ion_amplitude` when
        it is set; the potential is zero until the first solve."""
        sc = cfg.streamer
        ions = sc.seed_amplitude if sc.ion_amplitude is None \
            else sc.ion_amplitude
        n_e, n_i = (Field(discharge.gaussian_seed(
            self.sub, sc.seed_center, sc.seed_sigma, amp))
            for amp in (sc.seed_amplitude, ions))
        return StreamerState(n_e, n_i, Field(np.zeros(self.sub.n_local)))

    def couple(self, ctx: RankContext, state: StreamerState) -> StreamerState:
        """Charge source -> host RHS and solve -> potential on every rank."""
        g = gather_rhs(ctx, discharge.charge_source(state, self.sc, ctx.sub))
        x = None
        if ctx.is_host:
            x = solve(ctx.factors,
                      assemble_rhs(ctx.mesh, g, None, problem=ctx.problem))
            self.solves += 1
        return replace(state, v_pot=broadcast_solution(ctx, x))

    @staticmethod
    def fields(state: StreamerState) -> dict:
        return {"n_e": state.n_e, "n_i": state.n_i, "potential": state.v_pot}

    def fluxes(self, state: StreamerState) -> FluxContext:
        return discharge.prepare_fluxes(self.sub, state, self.sc, self.table,
                                        self.potential, self.stencil, self.cfl)

    def update(self, state: StreamerState, fc: FluxContext, dt: float, conv,
               diss):
        n_e, n_i, clip = discharge.apply_update(self.sub, state, fc, dt, conv,
                                                diss)
        return replace(state, n_e=n_e, n_i=n_i), clip


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
        diss = diffusive_residual(sub, u, phys.stencil, fl.bvals,
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


def _rank_loop(ctx: RankContext, cfg: RunConfig, res: _RankResult,
               table: np.ndarray | None, looped=None) -> None:
    res.phase = "setup"
    phys = _Streamer(ctx.sub, cfg, table) if cfg.physics == "streamer" \
        else _Transport(ctx.sub, cfg)
    state = phys.initial(cfg)
    # the children set up while the host factorizes, and start the loop
    # once the host is in its first wait: every deadline of theirs falls
    # after the host's first one
    if ctx.is_host:
        for r in range(1, ctx.k):
            ctx.fabric.post("go", 0, r, None)
    else:
        ctx.fabric.recv("go", 0, ctx.rank, timeout=math.inf)
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
    if looped is not None:   # a child's records, ahead of its last sends
        looped()

    res.phase = "final gather"
    res.final_fields = _gather_fields(ctx, phys.fields(state))
    ctx.fabric.drain()   # a child must not exit on unsent messages


def _wrapper_lists() -> dict:
    """Each list that a wrapper over a function of this package closes over,
    by its `id`.  A tracer or profiler that replaces a function by a
    `functools.wraps` wrapper records into such lists.  The host collects
    them once, before it forks, so a child's lists are the same objects
    under the same ids: a child sends what it appended by id, and the host
    appends that to its own, so instrumentation in the caller's process
    sees every rank.
    """
    found = {}
    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] != __package__:
            continue
        for fn in list(vars(mod).values()):
            if isinstance(fn, types.FunctionType) and \
                    hasattr(fn, "__wrapped__"):
                for cell in fn.__closure__ or ():
                    try:
                        v = cell.cell_contents
                    except ValueError:   # an empty cell
                        continue
                    if type(v) is list:
                        found[id(v)] = v
    return found


def _child(fabric: _Fabric, sub: Subdomain, cfg: RunConfig,
           table: np.ndarray | None, lists: dict) -> None:
    """A forked rank's life: its loop, then its clips, any failure and what
    it added to the wrapper `lists` (the loop's part ahead of the final
    gather) to the parent, then `os._exit` (no atexit handler, no stdio
    flush)."""
    threading.current_thread().name = f"rank-{sub.rank}"
    fabric.keep(sub.rank)
    marks = {i: len(v) for i, v in lists.items()}

    def added() -> dict:
        """What the wrappers appended since the last call, by list id."""
        out = {i: v[marks[i]:] for i, v in lists.items() if len(v) > marks[i]}
        marks.update((i, len(v)) for i, v in lists.items())
        return out

    # the loop's records leave while the host ends its last step
    looped = (lambda: fabric.send("done", sub.rank, 0, added())) \
        if lists else None
    res = _RankResult(timers={})
    try:
        _rank_loop(RankContext(rank=sub.rank, k=cfg.k, sub=sub, fabric=fabric),
                   cfg, res, table, looped)
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        res.failure = (sub.rank, res.step, res.phase, exc)
        fabric.stop()
    if res.failure and not isinstance(res.failure[3], TriFvmError):
        # only this package's errors are known to survive a pickle
        exc = res.failure[3]
        res.failure = res.failure[:3] + (
            RuntimeError(f"{type(exc).__name__}: {exc}"),)
    fabric.send("done", sub.rank, 0, (res.clips, res.failure, added()))
    fabric.drain()
    os._exit(0)


def _check_bc_labels(mesh: Mesh, cfg: RunConfig) -> None:
    """A label a BC section names must be on the mesh's boundary; one that
    it does not name is Neumann (`transport.classify_faces`)."""
    labels = {lab for lab in mesh.face_labels if lab != INTERIOR}
    dicts = [("bc", cfg.bc)] if cfg.physics == "transport" else \
        [("bc", cfg.bc), ("potential_bc", cfg.streamer.potential_bc)]
    for name, bc in dicts:
        extra = set(bc) - labels
        if extra:
            raise ConfigError(f"[{name}] labels not on this mesh: "
                              f"{sorted(extra)}")


def _load_global_mesh(cfg: RunConfig) -> Mesh:
    if cfg.mesh_path is not None:
        return load_mesh(cfg.mesh_path)
    return structured_triangulation(cfg.mesh_n)


def run_simulation(cfg: RunConfig) -> SimulationReport:
    """Execute the full coupled loop over cfg.k ranks.

    The host reads and splits the mesh and builds its diamonds and node
    weights, each exactly once; then ranks 1..k-1 fork, each with its
    subdomain's slice of the geometry, while the host assembles and
    factorizes the potential matrix once (it depends only on the mesh) for
    every step to reuse.  Returns or raises only once every child is reaped.
    A fixed config gives bit-identical fields and output files for a fixed k.
    """
    cfg.validate()
    # read once, before the mesh, so a bad table is a config error
    table = (load_coefficient_table(cfg.streamer.table_path)
             if cfg.physics == "streamer" and cfg.streamer.model == "table"
             else None)
    mesh = _load_global_mesh(cfg)
    _check_bc_labels(mesh, cfg)
    pin = cfg.streamer.pin_cell
    if pin is not None and pin >= mesh.n_cells:   # validate: pin >= 0
        raise ConfigError(f"[streamer] pin_cell = {pin} is not a cell of "
                          f"this mesh (0 to {mesh.n_cells - 1})")
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)

    # the run's one geometry build: every subdomain gets its slice
    diamonds, weights = build_diamonds(mesh), node_weights(mesh)
    subs = build_subdomains(mesh, partition(build_dual_graph(mesh), cfg.k),
                            diamonds, weights)

    links = [("halo", s.rank, r) for s in subs for r in s.neighbors]
    for r in range(1, cfg.k):
        links += [(lane, 0, r) for lane in ("coll", "go")]
        links += [(lane, r, 0) for lane in ("coll", "done")]
    fabric = _Fabric(cfg.timeout_s, links)
    host = _RankResult(timers={p: 0.0 for p in PHASES})
    children, reports = {}, {}
    lists = _wrapper_lists() if cfg.k > 1 else {}
    try:
        for sub in subs[1:]:
            pid = os.fork()
            if pid == 0:
                try:
                    _child(fabric, sub, cfg, table, lists)
                finally:
                    os._exit(1)
            children[sub.rank] = pid
        fabric.keep(0)

        num_assemblies = num_factorizations = 0
        problem = factors = solver = None
        if cfg.physics == "streamer":
            # read only when no face is Dirichlet: it fixes the gauge
            problem = assemble_system(mesh, diamonds, weights,
                                      cfg.streamer.potential_bc,
                                      pin_cell=0 if pin is None else pin)
            num_assemblies += 1
            factors = factorize(problem.matrix)
            num_factorizations += 1
            solver = {"fill": factors.fill_nnz,
                      "offdiag_pivots": factors.offdiag_pivots,
                      "levels": factors.levels,
                      "check_residual": factors.check_residual}

        ctx = RankContext(rank=0, k=cfg.k, sub=subs[0], fabric=fabric,
                          mesh=mesh,
                          all_own_l2g=[s.cells_l2g[:s.n_own] for s in subs],
                          all_full_l2g=[s.cells_l2g for s in subs],
                          problem=problem, factors=factors)
        # the caller's thread runs the host under the name `rank-0`
        me = threading.current_thread()
        caller, me.name = me.name, "rank-0"
        try:
            _rank_loop(ctx, cfg, host, table)
        except Exception as exc:   # a KeyboardInterrupt ends the run below
            host.failure = (0, host.step, host.phase, exc)
            fabric.stop()
        finally:
            me.name = caller
        for r in children:  # a failed rank reports too
            with suppress(Timeout):  # gone or silent: no report
                msgs = [fabric.recv("done", r, 0)]
                while isinstance(msgs[-1], dict):   # records, then the report
                    msgs.append(fabric.recv("done", r, 0))
                reports[r] = msgs.pop()
                for added in msgs + [reports[r][2]]:
                    for i, entries in added.items():
                        lists[i].extend(entries)
    finally:  # SIGKILL the children still running, then reap them all
        for pid in children.values():
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        codes = {r: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for r, pid in children.items()}
        fabric.close()

    for r in children.keys() - reports.keys():
        reports[r] = (0, (r, None, "exit", RuntimeError(
            f"exited with code {codes[r]} before its report")), {})
    failures = [f for f in [host.failure] + [rep[1] for rep in
                                             reports.values()] if f]
    if failures:
        # a rank's own error, else the wait whose deadline expired first
        root = next((f for f in failures
                     if not isinstance(f[3], Timeout)), None) or min(
            failures, key=lambda f: f[3].deadline or float("inf"))
        rank, step, phase, exc = root
        raise SimulationError(
            f"rank {rank} failed at step {step} in phase '{phase}': {exc}",
            step=step, rank=rank, phase=phase) from exc

    return SimulationReport(
        steps=cfg.steps, k=cfg.k, n_cells=mesh.n_cells,
        dt_min=host.dt_min if cfg.steps else 0.0,
        dt_max=host.dt_max if cfg.steps else 0.0,
        phase_seconds=dict(host.timers) if cfg.steps
        else {p: 0.0 for p in PHASES},
        num_assemblies=num_assemblies,
        num_factorizations=num_factorizations,
        num_solves=host.solves,
        clip_count=host.clips + sum(rep[0] for rep in reports.values()),
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
