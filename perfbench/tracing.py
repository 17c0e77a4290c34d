"""Spans around the calls into each trifvm layer, for the traced run.

A `Tracer` replaces a function's name in the module that calls it with a
wrapper that records (thread, name, layer, start, end, self time), and
counts what passes through: messages and bytes, fill and pivots, frame
sizes.  Self time is a span's duration minus the spans nested in it on the
same thread.  Nothing in trifvm changes; `restore` puts every name back.

`summarize` turns the spans of one traced execution into the per-layer
metrics, and `write_chrome_trace` writes them in Chrome Trace Event Format
(one track per thread), which Perfetto opens.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

import numpy as np

# layers whose time counts toward set-up (seconds) ...
SETUP_LAYERS = ("mesh.load_s", "mesh.build_s", "mesh.diamonds_s",
                "mesh.node_weights_s", "partition.split_s",
                "partition.subdomains_s", "poisson.assemble_s",
                "direct_solver.order_s", "direct_solver.factor_s")
# ... and those whose time counts toward a step (milliseconds per step)
STEP_LAYERS = ("direct_solver.solve_ms", "poisson.rhs_ms", "runtime.halo_ms",
               "runtime.allreduce_ms", "runtime.gather_ms",
               "runtime.broadcast_ms", "transport.bc_ms",
               "transport.convection_ms", "transport.diffusion_ms",
               "transport.update_ms", "transport.stable_dt_ms",
               "streamer.fluxes_ms", "streamer.update_ms", "vtk_io.frame_ms")
# counts taken once per set-up (last value) ...
SETUP_COUNTS = ("direct_solver.fill_nnz", "direct_solver.offdiag_pivots",
                "poisson.matrix_nnz", "partition.edge_cut",
                "partition.halo_cells")
# ... and counts summed over the steps
STEP_COUNTS = ("runtime.messages", "runtime.bytes", "streamer.clips",
               "vtk_io.frames", "vtk_io.bytes")

PER_LAYER = (SETUP_LAYERS + STEP_LAYERS + SETUP_COUNTS
             + ("runtime.messages_per_step", "runtime.bytes_per_step",
                "streamer.clips", "vtk_io.frame_bytes", "setup.step_layers_s",
                "setup.unaccounted_s", "step.unaccounted_ms"))


class Tracer:
    def __init__(self):
        self.spans: list = []   # (thread, name, layer, t0, t1, self_s)
        self.counts: list = []  # (thread, key, value, t0)
        self._tls = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn, count=None):
        spans, counts, stack_of = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                inner = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                thread = threading.current_thread().name
                spans.append((thread, name, layer, t0, t1, t1 - t0 - inner))
            if count is not None:
                for key, value in count(out, *args, **kwargs):
                    counts.append((thread, key, value, t0))
            return out
        return traced

    def patch(self, module, attr: str, layer: str, count=None) -> None:
        fn = getattr(module, attr)
        self._undo.append((module, attr, fn))
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, self.wrap(name, layer, fn, count))

    def mark(self, name: str, t0: float, t1: float) -> None:
        """A span of the benchmark's own, shown in the trace only."""
        self.spans.append((threading.current_thread().name, name,
                           "bench.round", t0, t1, 0.0))

    def restore(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# --------------------------------------------------------------------------
# what passes through the wrappers

def _factor_counts(lu, *args, **kwargs):
    yield "direct_solver.fill_nnz", int(lu.fill_nnz)
    yield "direct_solver.offdiag_pivots", int(
        np.count_nonzero(lu.pivot_rows != np.arange(lu.n)))


def _matrix_nnz(problem, *args, **kwargs):
    yield "poisson.matrix_nnz", int(len(problem.matrix.indices))


def _edge_cut(pm, graph, *args, **kwargs):
    heads = np.repeat(np.arange(graph.n), np.diff(graph.ptr))
    yield "partition.edge_cut", int(
        np.count_nonzero(pm.part[heads] != pm.part[graph.adj]) // 2)


def _halo_cells(subs, *args, **kwargs):
    yield "partition.halo_cells", int(sum(len(s.halo_cells) for s in subs))


def _messages(n: int, nbytes: int):
    yield "runtime.messages", n
    yield "runtime.bytes", nbytes


def _halo_traffic(out, ctx, f, *args, **kwargs):
    links = ctx.sub.neighbor_links
    return _messages(len(links), sum(int(s.size) for s, _ in links.values())
                     * f.values.itemsize)


def _gather_traffic(out, ctx, own_values, *args, **kwargs):
    if ctx.rank == 0:
        return _messages(0, 0)
    return _messages(1, int(np.asarray(own_values).nbytes))


def _broadcast_traffic(out, ctx, x, *args, **kwargs):
    if ctx.rank != 0:
        return _messages(0, 0)
    return _messages(ctx.k - 1, sum(int(len(ctx.all_full_l2g[r])) * 8
                                    for r in range(1, ctx.k)))


def _allreduce_traffic(out, ctx, value, *args, **kwargs):
    n = ctx.k - 1 if ctx.rank == 0 else 1
    return _messages(n, 8 * n)


def _clips(out, *args, **kwargs):
    yield "streamer.clips", int(out[2])


def _frame(out, path, *args, **kwargs):
    yield "vtk_io.frames", 1
    yield "vtk_io.bytes", os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point under the name its caller uses."""
    from trifvm import (direct_solver, mesh, partition, poisson, runtime,
                        streamer)

    p = tracer.patch
    for mod in (mesh, runtime):
        p(mod, "load_mesh", "mesh.load_s")
    p(mesh, "build_mesh", "mesh.build_s")
    p(runtime, "structured_triangulation", "mesh.build_s")
    for mod in (mesh, runtime, streamer):
        p(mod, "build_diamonds", "mesh.diamonds_s")
        p(mod, "node_weights", "mesh.node_weights_s")
    p(runtime, "build_dual_graph", "partition.split_s")
    p(runtime, "partition", "partition.split_s", _edge_cut)
    p(runtime, "build_subdomains", "partition.subdomains_s", _halo_cells)
    p(partition, "build_subdomains", "partition.subdomains_s")
    p(runtime, "single_subdomain", "partition.subdomains_s")
    for mod in (poisson, runtime):
        p(mod, "assemble_system", "poisson.assemble_s", _matrix_nnz)
        p(mod, "assemble_rhs", "poisson.rhs_ms")
    for mod in (direct_solver, runtime):
        p(mod, "factorize", "direct_solver.factor_s", _factor_counts)
        p(mod, "solve", "direct_solver.solve_ms")
    p(direct_solver, "rcm_order", "direct_solver.order_s")

    p(runtime, "halo_exchange", "runtime.halo_ms", _halo_traffic)
    p(runtime, "gather_rhs", "runtime.gather_ms", _gather_traffic)
    p(runtime, "broadcast_solution", "runtime.broadcast_ms",
      _broadcast_traffic)
    p(runtime, "allreduce_min", "runtime.allreduce_ms", _allreduce_traffic)
    for mod in (runtime, streamer):
        p(mod, "apply_boundary_conditions", "transport.bc_ms")
        p(mod, "stable_dt", "transport.stable_dt_ms")
        p(mod, "explicit_step", "transport.update_ms")
    p(runtime, "convective_residual", "transport.convection_ms")
    p(runtime, "diffusive_residual", "transport.diffusion_ms")
    p(streamer, "prepare_fluxes", "streamer.fluxes_ms")
    p(streamer, "apply_update", "streamer.update_ms", _clips)
    p(runtime, "write_vtk", "vtk_io.frame_ms", _frame)


# --------------------------------------------------------------------------
# from spans to metrics

def loop_windows(tracer: Tracer, final_gathers: int, loop_s: float) -> dict:
    """Step-loop interval of every rank thread of one `run_simulation`.

    A rank's loop ends where its final gather starts (its last
    `final_gathers` calls of gather_rhs); the host's loop started `loop_s`
    (the program's reported loop time) before its own end.
    """
    starts: dict = {}
    for thread, name, _, t0, _, _ in tracer.spans:
        if name == "runtime.gather_rhs" and thread.startswith("rank-"):
            starts.setdefault(thread, []).append(t0)
    ends = {t: sorted(v)[-final_gathers] for t, v in starts.items()}
    begin = ends["rank-0"] - loop_s
    return {t: [(begin, end)] for t, end in ends.items()}


def _inside(t: float, intervals) -> bool:
    return any(a <= t < b for a, b in intervals)


def summarize(tracer: Tracer, windows: dict, setup_s: float, step_ms: float,
              steps: int) -> dict:
    """Per-layer metrics of one traced execution.

    windows maps a thread to the intervals in which it runs steps; every
    other span is set-up.  A thread with no window (the caller's thread of a
    multi-rank run) adds its set-up time to that of the slowest rank.  Step
    figures are milliseconds per step on the rank that spends the most time
    in that layer; counts are summed over ranks.

    The two `unaccounted` figures come from the host's own spans (the
    caller's thread and rank 0, or the one thread of a run without ranks),
    whose clock the measured set-up and step times are: what those times
    leave after the host's layer figures.  Time no span covers on the host
    shows there as a positive gap.  (The slowest-rank figures cannot be
    used: one rank waits in a collective while another computes, so they
    overlap in time.)
    """
    setup: dict = {}   # thread -> layer -> seconds
    step: dict = {}
    for thread, _, layer, t0, _, self_s in tracer.spans:
        if layer.startswith("bench."):
            continue
        stepping = _inside(t0, windows.get(thread, ()))
        if not stepping and layer in STEP_LAYERS:
            layer = "setup.step_layers_s"
        book = (step if stepping else setup).setdefault(thread, {})
        book[layer] = book.get(layer, 0.0) + self_s

    def combined(book: dict, layer: str) -> float:
        ranked = [v.get(layer, 0.0) for t, v in book.items() if t in windows]
        rest = [v.get(layer, 0.0) for t, v in book.items()
                if t not in windows]
        return sum(rest) + max(ranked, default=0.0)

    setup_keys = SETUP_LAYERS + ("setup.step_layers_s",)
    out = {k: combined(setup, k) for k in setup_keys}
    for k in STEP_LAYERS:
        out[k] = 1e3 * combined(step, k) / steps

    host = "rank-0" if "rank-0" in windows else next(iter(windows))
    chain = [host] + sorted(t for t in setup if t not in windows)
    host_setup = sum(sum(setup.get(t, {}).values()) for t in chain)
    host_step = sum(step.get(host, {}).values())
    out["setup.unaccounted_s"] = setup_s - host_setup
    out["step.unaccounted_ms"] = step_ms - 1e3 * host_step / steps
    out["setup.traced_s"] = setup_s
    out["step.traced_ms"] = step_ms
    out["host_threads"] = chain
    # every thread's own figures, from which the host's add up
    out["setup_by_thread_s"] = {t: dict(sorted(book.items()))
                                for t, book in sorted(setup.items())}
    out["step_by_thread_ms"] = {
        t: {k: 1e3 * v / steps for k, v in sorted(book.items())}
        for t, book in sorted(step.items())}

    totals = {k: 0 for k in STEP_COUNTS}
    for k in SETUP_COUNTS:
        out[k] = 0
    for thread, key, value, t0 in tracer.counts:
        if key in SETUP_COUNTS:
            out[key] = value
        elif _inside(t0, windows.get(thread, ())):
            totals[key] += value
    out["runtime.messages_per_step"] = totals["runtime.messages"] / steps
    out["runtime.bytes_per_step"] = totals["runtime.bytes"] / steps
    out["streamer.clips"] = totals["streamer.clips"]
    out["vtk_io.frame_bytes"] = (totals["vtk_io.bytes"] / totals["vtk_io.frames"]
                                 if totals["vtk_io.frames"] else 0)
    return out


def write_chrome_trace(tracer: Tracer, path) -> None:
    """Chrome Trace Event Format JSON: one track per thread, times in us."""
    if not tracer.spans:
        return
    origin = min(s[3] for s in tracer.spans)
    threads = sorted({s[0] for s in tracer.spans},
                     key=lambda t: (t != "MainThread", t))
    tid = {t: i for i, t in enumerate(threads)}
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid[t],
               "args": {"name": t}} for t in threads]
    for thread, name, layer, t0, t1, self_s in sorted(tracer.spans,
                                                      key=lambda s: s[3]):
        events.append({"name": name, "cat": layer.split(".")[0], "ph": "X",
                       "pid": 1, "tid": tid[thread],
                       "ts": round((t0 - origin) * 1e6, 3),
                       "dur": round((t1 - t0) * 1e6, 3),
                       "args": {"layer": layer,
                                "self_us": round(self_s * 1e6, 3)}})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
