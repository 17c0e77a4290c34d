"""Electron / ion / potential coupling.

Electrons drift-diffuse in the electric field, ions sit still and grow by
ionization, and the potential comes from a factor-once direct solve of the
charge-driven Poisson equation.  Everything here is per-rank local given a
current (post-solve, post-exchange) state: the charge source, the fluxes and
CFL bound of that state, and the update.  Each kernel takes the subdomain
and the BC layouts it reads.  The field E = -grad V is the diamond gradient
of `transport` on the potential's stencil, the one the potential matrix
expands.  The one step of the coupled cycle, with its solve and
collectives, is `runtime`'s, at every rank count; its hook `_Streamer`
builds the two layouts and the seed once per rank.

Closed forms for the transport coefficients are not part of the problem
statement; two config-selected families are supported:

  linear  v_e = -mu_e E, D_e = const, S_e = alpha |v_e| n_e
  table   |E| -> (mu_e, D_e, alpha) piecewise-linear lookup

with dimensionless defaults mu_e = 1, D_e = 0.1, alpha = 1, eps = e = 1.
The kernels read them from `config.StreamerConfig` and from the table
that `config.load_coefficient_table` read and checked (None for linear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import StreamerConfig
from .mesh import cell_sum
# not called here: bound so that perfbench's tracer can patch them by name
from .mesh import build_diamonds, node_weights  # noqa: F401
from .partition import Subdomain
from .transport import (DiamondStencil, FaceVelocity, Field, Fluxes,
                        apply_boundary_conditions, explicit_step,
                        face_gradients, stable_dt)


@dataclass
class StreamerState:
    n_e: Field
    n_i: Field
    v_pot: Field


def gaussian_seed(sub: Subdomain, center=(0.5, 0.5), sigma=0.1,
                  amplitude=1.0) -> np.ndarray:
    """Gaussian bump sampled at every local centroid (own + halo)."""
    c = sub.local_mesh.centroids
    r2 = (c[:, 0] - center[0]) ** 2 + (c[:, 1] - center[1]) ** 2
    return amplitude * np.exp(-r2 / (2.0 * sigma ** 2))


def charge_source(state: StreamerState, sc: StreamerConfig,
                  sub: Subdomain) -> np.ndarray:
    """RHS of -lap V = (e/eps)(n_i - n_e), own cells only."""
    n = sub.n_own
    return (sc.q_e / sc.eps) * (state.n_i.values[:n] - state.n_e.values[:n])


def coefficient(sc: StreamerConfig, table: np.ndarray | None, name: str,
                e_mag):
    """`name` (mu_e, d_e or alpha) at the field strengths e_mag: the linear
    model's constant when table is None, else the table's column for it,
    interpolated piecewise-linearly in |E| and clamped at the ends."""
    if table is None:
        return getattr(sc, name)
    column = 1 + ("mu_e", "d_e", "alpha").index(name)
    return np.interp(e_mag, table[:, 0], table[:, column])


@dataclass
class FluxContext(Fluxes):
    """Everything the explicit update needs, evaluated at the current state:
    the electron fluxes and their ionization source."""

    s_e: np.ndarray             # ionization rate per own cell


def prepare_fluxes(sub: Subdomain, state: StreamerState, sc: StreamerConfig,
                   table: np.ndarray | None, potential: DiamondStencil,
                   species: DiamondStencil, cfl: float) -> FluxContext:
    """Field E = -grad V, drift velocity, coefficients, source, and CFL bound.

    table is the loaded coefficient table, None for the linear model;
    potential and species are the two BC layouts on the subdomain.
    Requires v_pot and n_e with fresh halo slots.  The 3-face means are
    `mesh.cell_sum`s.
    """
    lm = sub.local_mesh
    e_faces = -face_gradients(sub, potential, state.v_pot)
    e_mag = np.hypot(e_faces[:, 0], e_faces[:, 1])
    mu_f = coefficient(sc, table, "mu_e", e_mag)
    vel = FaceVelocity.from_vectors(sub,
                                    -np.asarray(mu_f)[..., None] * e_faces)
    speed_f = np.asarray(mu_f) * e_mag
    d_f = coefficient(sc, table, "d_e", e_mag)
    speed_cell = cell_sum(lm, speed_f, signed=False) / 3.0
    e_cell = None if table is None \
        else cell_sum(lm, e_mag, signed=False) / 3.0
    s_e = coefficient(sc, table, "alpha", e_cell) * speed_cell \
        * state.n_e.values[:sub.n_own]

    bvals_ne = apply_boundary_conditions(state.n_e, species)
    dt = stable_dt(sub, vel, diffusion=d_f, cfl=cfl)
    return FluxContext(vel=vel, bvals=bvals_ne, diffusion=d_f, dt_stable=dt,
                       s_e=s_e)


def apply_update(sub: Subdomain, state: StreamerState, fc: FluxContext,
                 dt: float, conv: np.ndarray, diss: np.ndarray):
    """Advance n_e (transport + source) and n_i (source only) by dt.

    Returns (n_e, n_i, clip_count).  Negative electron densities are clipped
    to zero and counted; a CFL-respecting dt does not rule them out (the
    default model clips on the plates' structured n = 16 mesh).
    """
    n_e = explicit_step(sub, state.n_e, conv, diss, dt, source=fc.s_e)
    own = n_e.values[:sub.n_own]
    clip = int(np.count_nonzero(own < 0.0))
    if clip:
        np.maximum(own, 0.0, out=own)

    n_i = state.n_i.values.copy()
    n_i[:sub.n_own] += dt * fc.s_e
    return n_e, Field(n_i, halo_stale=sub.n_own < sub.n_local), clip
