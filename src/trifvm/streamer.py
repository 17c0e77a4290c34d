"""Electron / ion / potential coupling.

Electrons drift-diffuse in the electric field, ions sit still and grow by
ionization, and the potential comes from a factor-once direct solve of the
charge-driven Poisson equation.  Everything here is per-rank local given a
current (post-solve, post-exchange) state: the charge source, the fluxes and
CFL bound of that state, and the update.  The field E = -grad V is the
diamond gradient of `transport` on the potential's stencil, the one the
potential matrix expands.  The one step of the coupled cycle, with its solve
and collectives, is `runtime`'s; `runtime.streamer_step` runs that step on a
single rank.

Closed forms for the transport coefficients are not part of the problem
statement; two config-selected families are supported:

  linear  v_e = -mu_e E, D_e = const, S_e = alpha |v_e| n_e
  table   |E| -> (mu_e, D_e, alpha) piecewise-linear lookup

with dimensionless defaults mu_e = 1, D_e = 0.1, alpha = 1, eps = e = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .direct_solver import LuFactors
from .errors import ConfigError
# not called here: bound so that perfbench's tracer can patch them by name
from .mesh import build_diamonds, node_weights  # noqa: F401
from .partition import Subdomain
from .poisson import PoissonProblem
from .transport import (DiamondStencil, DirichletData, FaceVelocity, Field,
                        Fluxes, apply_boundary_conditions, diamond_stencil,
                        dirichlet_data, explicit_step, face_gradients,
                        stable_dt)


@dataclass
class StreamerCoefficients:
    """Dielectric constant, elementary charge, and the v_e/D_e/S_e family."""

    eps: float = 1.0
    q_e: float = 1.0
    model: str = "linear"
    mu_e: float = 1.0
    d_e: float = 0.1
    alpha: float = 1.0
    # table model: columns |E|, mu_e, D_e, alpha with |E| strictly ascending
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.model not in ("linear", "table"):
            raise ConfigError(f"unknown coefficient model '{self.model}'")
        if self.model == "table":
            t = np.asarray(self.table, dtype=np.float64)
            if t.ndim != 2 or t.shape[1] != 4 or t.shape[0] < 2:
                raise ConfigError("coefficient table must be (rows >= 2) x 4")
            if not np.all(np.diff(t[:, 0]) > 0):
                raise ConfigError("table |E| knots must be strictly ascending")
            if not np.all(np.isfinite(t)) or np.any(t[:, 2] < 0):
                raise ConfigError("table entries must be finite with D_e >= 0")
            self.table = t
        elif self.d_e < 0:
            raise ConfigError("D_e must be >= 0")

    def mobility(self, e_mag):
        if self.model == "linear":
            return self.mu_e
        return np.interp(e_mag, self.table[:, 0], self.table[:, 1])

    def diffusion(self, e_mag):
        if self.model == "linear":
            return self.d_e
        return np.interp(e_mag, self.table[:, 0], self.table[:, 2])

    def ionization(self, e_mag):
        if self.model == "linear":
            return self.alpha
        return np.interp(e_mag, self.table[:, 0], self.table[:, 3])


@dataclass
class StreamerState:
    n_e: Field
    n_i: Field
    v_pot: Field
    clips: int = 0                      # negative-density clip events so far

    @property
    def time(self) -> float:
        return self.n_e.time


@dataclass
class StreamerSystem:
    """Per-rank geometry + boundary context for the coupled cycle.

    One diamond stencil and its data for each BC layout, species and field.
    problem/factors are the assembled and factored potential system that
    `runtime.streamer_step` solves with; a multi-rank run keeps them on the
    host's rank context instead.  The flux pieces never touch them.
    """

    sub: Subdomain
    species: DiamondStencil
    species_data: DirichletData
    potential: DiamondStencil
    potential_data: DirichletData
    potential_bc: dict
    cfl: float = 0.4
    problem: PoissonProblem | None = None
    factors: LuFactors | None = None


def build_system(sub: Subdomain, species_bc: dict, potential_bc: dict,
                 cfl: float = 0.4, problem: PoissonProblem | None = None,
                 factors: LuFactors | None = None) -> StreamerSystem:
    """Both stencils on the subdomain's slice of the run's geometry."""
    lm = sub.local_mesh
    species = diamond_stencil(lm, species_bc, sub.diamonds, sub.weights)
    potential = diamond_stencil(lm, potential_bc, sub.diamonds, sub.weights)
    return StreamerSystem(
        sub=sub, species=species,
        species_data=dirichlet_data(lm, species_bc, species.kind),
        potential=potential,
        potential_data=dirichlet_data(lm, potential_bc, potential.kind),
        potential_bc=potential_bc, cfl=cfl, problem=problem, factors=factors)


def gaussian_seed(sub: Subdomain, center=(0.5, 0.5), sigma=0.1,
                  amplitude=1.0) -> np.ndarray:
    """Gaussian bump sampled at every local centroid (own + halo)."""
    if sigma <= 0:
        raise ConfigError("seed sigma must be positive")
    c = sub.local_mesh.centroids
    r2 = (c[:, 0] - center[0]) ** 2 + (c[:, 1] - center[1]) ** 2
    return amplitude * np.exp(-r2 / (2.0 * sigma ** 2))


def charge_source(state: StreamerState, coeffs: StreamerCoefficients,
                  sub: Subdomain) -> np.ndarray:
    """RHS of -lap V = (e/eps)(n_i - n_e), own cells only."""
    n = sub.n_own
    return (coeffs.q_e / coeffs.eps) * (state.n_i.values[:n]
                                        - state.n_e.values[:n])


@dataclass
class FluxContext(Fluxes):
    """Everything the explicit update needs, evaluated at the current state:
    the electron fluxes and their ionization source."""

    s_e: np.ndarray             # ionization rate per own cell


def prepare_fluxes(state: StreamerState, coeffs: StreamerCoefficients,
                   sys: StreamerSystem) -> FluxContext:
    """Field E = -grad V, drift velocity, coefficients, source, and CFL bound.

    Requires v_pot and n_e with fresh halo slots.  The 3-face means below
    use the canonical cell_faces order, so they are identical no matter how
    the mesh was partitioned.
    """
    sub = sys.sub
    lm = sub.local_mesh
    e_faces = -face_gradients(sub, sys.potential, state.v_pot,
                              sys.potential_data)
    e_mag = np.hypot(e_faces[:, 0], e_faces[:, 1])
    mu_f = coeffs.mobility(e_mag)
    vel = FaceVelocity.from_vectors(sub,
                                    -np.asarray(mu_f)[..., None] * e_faces)
    speed_f = np.asarray(mu_f) * e_mag
    d_f = coeffs.diffusion(e_mag)

    cf = lm.cell_faces[:sub.n_own]
    speed_cell = (speed_f[cf[:, 0]] + speed_f[cf[:, 1]]
                  + speed_f[cf[:, 2]]) / 3.0
    if coeffs.model == "linear":
        alpha_cell = coeffs.alpha
    else:
        e_cell = (e_mag[cf[:, 0]] + e_mag[cf[:, 1]] + e_mag[cf[:, 2]]) / 3.0
        alpha_cell = coeffs.ionization(e_cell)
    s_e = alpha_cell * speed_cell * state.n_e.values[:sub.n_own]

    bvals_ne = apply_boundary_conditions(state.n_e, sys.species.neumann,
                                         sys.species_data.face)
    dt = stable_dt(sub, vel, diffusion=d_f, cfl=sys.cfl)
    return FluxContext(vel=vel, bvals=bvals_ne, diffusion=d_f, dt_stable=dt,
                       s_e=s_e)


def apply_update(state: StreamerState, sys: StreamerSystem, fc: FluxContext,
                 dt: float, conv: np.ndarray, diss: np.ndarray):
    """Advance n_e (transport + source) and n_i (source only) by dt.

    Returns (n_e, n_i, clip_count).  Negative electron densities are clipped
    to zero and counted; under a CFL-respecting dt on smooth data the count
    stays zero.
    """
    sub = sys.sub
    n_e = explicit_step(sub, state.n_e, conv, diss, dt, source=fc.s_e)
    own = n_e.values[:sub.n_own]
    clip = int(np.count_nonzero(own < 0.0))
    if clip:
        np.maximum(own, 0.0, out=own)

    n_i = state.n_i.copy()
    n_i.values[:sub.n_own] += dt * fc.s_e
    n_i.time += dt
    n_i.halo_stale = sub.n_own < sub.n_local
    return n_e, n_i, clip


def total_charge(sub: Subdomain, state: StreamerState) -> float:
    """Area-weighted net charge sum(mu (n_i - n_e)) over own cells.

    The ionization source feeds both species identically, so with zero
    boundary flux this is conserved by every step.
    """
    n = sub.n_own
    mu = sub.local_mesh.areas[:n]
    return float(np.sum(mu * (state.n_i.values[:n] - state.n_e.values[:n])))
