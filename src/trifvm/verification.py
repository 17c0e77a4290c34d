"""Manufactured-solution convergence studies.

Three cases, each with a closed-form reference:

  poisson_sine   -lap V = 2 pi^2 sin(pi x) sin(pi y), homogeneous Dirichlet;
                 exact V = sin(pi x) sin(pi y)
  advect_gauss   pure upwind advection of a Gaussian under uniform V;
                 exact solution is the translated Gaussian
  diffuse_gauss  pure diffusion of a Gaussian in a closed box; exact
                 (free-space) solution spreads the variance by 2 D t

Errors are reported per mesh size as L-inf and area-weighted L2 at cell
centroids, with observed order log2(e_h / e_{h/2}) between consecutive
sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direct_solver import factorize, solve
from .errors import UnknownCase
from .mesh import build_diamonds, node_weights, structured_triangulation
from .partition import single_subdomain
from .poisson import assemble_rhs, assemble_system
from .transport import (Field, FaceVelocity, apply_boundary_conditions,
                        convective_residual, diamond_stencil,
                        diffusive_residual, dirichlet_data, explicit_step,
                        stable_dt)

CASES = ("poisson_sine", "advect_gauss", "diffuse_gauss")


@dataclass
class ConvergenceRow:
    n: int
    linf: float
    l2: float
    order_linf: float | None = None
    order_l2: float | None = None


def _errors(mesh, u, exact) -> tuple[float, float]:
    diff = u - exact
    linf = float(np.abs(diff).max())
    l2 = float(math.sqrt(np.sum(mesh.areas * diff ** 2)))
    return linf, l2


def _case_poisson_sine(n: int) -> tuple[float, float]:
    mesh = structured_triangulation(n)
    bc = {lab: ("dirichlet", 0.0) for lab in ("left", "right", "top", "bottom")}
    diamonds = build_diamonds(mesh)
    weights = node_weights(mesh)
    problem = assemble_system(mesh, diamonds, weights, bc)
    cx, cy = mesh.centroids[:, 0], mesh.centroids[:, 1]
    src = 2.0 * np.pi ** 2 * np.sin(np.pi * cx) * np.sin(np.pi * cy)
    b = assemble_rhs(mesh, src, bc, problem=problem)
    x = solve(factorize(problem.matrix), b)
    return _errors(mesh, x, np.sin(np.pi * cx) * np.sin(np.pi * cy))


def _gaussian(c, center, sigma):
    r2 = (c[:, 0] - center[0]) ** 2 + (c[:, 1] - center[1]) ** 2
    return np.exp(-r2 / (2.0 * sigma ** 2))


def _march(sub, vel, dcoef, bc, u, t_end, cfl=0.4, bc_time=None):
    """Explicit march to exactly t_end; Dirichlet data may depend on time."""
    lm = sub.local_mesh
    st = diamond_stencil(lm, bc, sub.diamonds, sub.weights)
    data = dirichlet_data(lm, bc, st.kind)
    bound = stable_dt(sub, vel, dcoef, cfl)
    steps = max(1, int(math.ceil(t_end / bound)))
    dt = t_end / steps
    for s in range(steps):
        if bc_time is not None:  # fixed labels: only the data moves
            data = dirichlet_data(lm, bc_time(s * dt), st.kind)
        bvals = apply_boundary_conditions(u, st.neumann, data.face)
        conv = convective_residual(sub, u, vel, bvals)
        diss = diffusive_residual(sub, u, st, data, bvals, dcoef)
        u = explicit_step(sub, u, conv, diss, dt)
    return u


def _case_advect_gauss(n: int) -> tuple[float, float]:
    vx, vy = 1.0, 0.0
    sigma, start = 0.1, (0.3, 0.5)
    t_end = 0.4
    mesh = structured_triangulation(n)
    sub = single_subdomain(mesh)

    def exact_at(t):
        def g(x, y):
            dx = x - start[0] - vx * t
            dy = y - start[1] - vy * t
            return math.exp(-(dx * dx + dy * dy) / (2.0 * sigma ** 2))
        return g

    def bc_time(t):
        g = exact_at(t)
        return {lab: ("dirichlet", g) for lab in ("left", "right",
                                                  "top", "bottom")}

    u = Field(_gaussian(mesh.centroids, start, sigma), "u")
    u = _march(sub, FaceVelocity.uniform(sub, vx, vy), 0.0, bc_time(0.0), u,
               t_end, bc_time=bc_time)
    g = exact_at(t_end)
    exact = np.array([g(x, y) for x, y in mesh.centroids])
    return _errors(mesh, u.values, exact)


def _case_diffuse_gauss(n: int) -> tuple[float, float]:
    dcoef, sigma, center = 0.05, 0.1, (0.5, 0.5)
    t_end = 0.02
    mesh = structured_triangulation(n)
    sub = single_subdomain(mesh)
    bc = {lab: ("neumann",) for lab in ("left", "right", "top", "bottom")}
    u = Field(_gaussian(mesh.centroids, center, sigma), "u")
    u = _march(sub, FaceVelocity.zero(sub), dcoef, bc, u, t_end)
    # free-space spreading solution; wall truncation is ~exp(-0.5 (0.5/s)^2)
    s2 = sigma ** 2 + 2.0 * dcoef * t_end
    r2 = ((mesh.centroids[:, 0] - center[0]) ** 2
          + (mesh.centroids[:, 1] - center[1]) ** 2)
    exact = (sigma ** 2 / s2) * np.exp(-r2 / (2.0 * s2))
    return _errors(mesh, u.values, exact)


_RUNNERS = {
    "poisson_sine": _case_poisson_sine,
    "advect_gauss": _case_advect_gauss,
    "diffuse_gauss": _case_diffuse_gauss,
}


def run_case(case: str, sizes) -> list:
    """Error table for one manufactured case over the given mesh sizes."""
    runner = _RUNNERS.get(case)
    if runner is None:
        raise UnknownCase(f"unknown case '{case}'; choose from {CASES}")
    rows = []
    for n in sizes:
        linf, l2 = runner(int(n))
        row = ConvergenceRow(n=int(n), linf=linf, l2=l2)
        if rows:
            prev = rows[-1]
            row.order_linf = math.log2(prev.linf / linf)
            row.order_l2 = math.log2(prev.l2 / l2)
        rows.append(row)
    return rows
