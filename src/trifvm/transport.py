"""Explicit convection-diffusion kernels on a subdomain.

Per-cell update (forward Euler):

    u_i <- u_i - (dt / mu_i) * conv_i + (dt / mu_i) * diss_i + dt * source_i

where conv sums upwind convective fluxes u_f (V.n) |s| over the cell's
faces and diss sums diffusive fluxes D (grad u . n) |s| from the
diamond-cell gradient

    grad u = [ (u_right - u_left) n |s| + (u_A - u_B) n_lr |s_lr| ] / (2 area_D)

with node values u_A, u_B interpolated by the precomputed least-squares
weights.  All per-cell sums run in the cell's canonical 3-edge order and all
node stencils in ascending global id, so a partitioned run reproduces the
sequential arithmetic exactly.

Boundary handling: a Dirichlet face carries the prescribed value at its
midpoint (used both as the upwind inflow value and as the gradient's
right-side value); a homogeneous-Neumann face copies the inner value for
convection and contributes exactly zero diffusive flux.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ZeroDt
from .mesh import INTERIOR, DiamondCells, Mesh, NodeWeights
from .partition import Subdomain

BC_INTERIOR = 0
BC_DIRICHLET = 1
BC_NEUMANN = 2


@dataclass
class Field:
    """Cell-centered scalar on own + halo slots of a subdomain."""

    values: np.ndarray
    quantity: str = "u"
    time: float = 0.0
    halo_stale: bool = False

    def copy(self) -> "Field":
        return replace(self, values=self.values.copy())


@dataclass
class FaceVelocity:
    """Velocity sampled on faces, (n_faces, 2)."""

    vectors: np.ndarray

    @classmethod
    def uniform(cls, sub: Subdomain, vx: float, vy: float) -> "FaceVelocity":
        v = np.empty((sub.local_mesh.n_faces, 2))
        v[:, 0], v[:, 1] = vx, vy
        return cls(vectors=v)

    @classmethod
    def zero(cls, sub: Subdomain) -> "FaceVelocity":
        return cls(vectors=np.zeros((sub.local_mesh.n_faces, 2)))


@dataclass
class BoundaryValues:
    """Per-face boundary data produced by apply_boundary_conditions.

    kind: BC_* code per face; value: ghost value (Dirichlet data at the face
    midpoint, or the copied inner value on Neumann faces).  Fringe faces of a
    halo region are marked interior: they never feed an own-cell flux.
    node_idx/node_value: nodes lying on a Dirichlet boundary and the datum
    there; the diamond gradient pins these instead of interpolating, the same
    elimination the implicit assembly performs.
    """

    kind: np.ndarray
    value: np.ndarray
    node_idx: np.ndarray | None = None
    node_value: np.ndarray | None = None


@dataclass
class Fluxes:
    """The residuals' inputs at the current state, plus this rank's CFL
    bound (a step takes the minimum over ranks)."""

    vel: FaceVelocity
    bvals: BoundaryValues
    diffusion: object           # scalar or per-face array
    dt_stable: float


def classify_faces(lm: Mesh, bc: dict) -> np.ndarray:
    """Map face labels to BC codes. bc: {label: ('dirichlet', g) | ('neumann',)}."""
    kind = np.full(lm.n_faces, BC_INTERIOR, dtype=np.int8)
    for f, label in enumerate(lm.face_labels):
        if label == INTERIOR or lm.face_cells[f, 1] >= 0:
            continue
        spec = bc.get(label)
        if spec is None:
            if label == "halo":
                continue  # fringe face, owned by another rank
            raise KeyError(f"no boundary condition for label '{label}'")
        kind[f] = BC_DIRICHLET if spec[0] == "dirichlet" else BC_NEUMANN
    return kind


def dirichlet_values(lm: Mesh, bc: dict, kind: np.ndarray) -> np.ndarray:
    """Prescribed values at Dirichlet face midpoints (0 elsewhere)."""
    out = np.zeros(lm.n_faces)
    for f in np.flatnonzero(kind == BC_DIRICHLET):
        g = bc[lm.face_labels[f]][1]
        x, y = lm.face_midpoints[f]
        out[f] = g(x, y) if callable(g) else float(g)
    return out


def dirichlet_node_data(lm: Mesh, bc: dict, kind: np.ndarray):
    """Boundary datum at every node of a Dirichlet face, evaluated at the
    node's own coordinates (averaged where faces with different data meet)."""
    sums = np.zeros(lm.n_nodes)
    counts = np.zeros(lm.n_nodes, dtype=np.int64)
    for f in np.flatnonzero(kind == BC_DIRICHLET):
        g = bc[lm.face_labels[f]][1]
        for node in lm.face_nodes[f]:
            x, y = lm.points[node]
            sums[node] += g(x, y) if callable(g) else float(g)
            counts[node] += 1
    idx = np.flatnonzero(counts)
    return idx, sums[idx] / counts[idx]


def apply_boundary_conditions(sub: Subdomain, u: Field, kind: np.ndarray,
                              dirichlet: np.ndarray,
                              node_data=None) -> BoundaryValues:
    """Fill the ghost value of every boundary face for the current state."""
    lm = sub.local_mesh
    value = dirichlet.copy()
    neu = np.flatnonzero(kind == BC_NEUMANN)
    value[neu] = u.values[lm.face_cells[neu, 0]]
    node_idx, node_value = node_data if node_data is not None else (None, None)
    return BoundaryValues(kind=kind, value=value,
                          node_idx=node_idx, node_value=node_value)


def node_values(sub: Subdomain, u: Field, weights: NodeWeights) -> np.ndarray:
    """Interpolate cell values to nodes through the least-squares weights."""
    assert not u.halo_stale, "halo slots are stale; exchange before interpolating"
    out = np.zeros(sub.local_mesh.n_nodes)
    nodes = np.repeat(np.arange(sub.local_mesh.n_nodes), np.diff(weights.ptr))
    np.add.at(out, nodes, weights.weights * u.values[weights.cells])
    return out


def upwind_face_values(sub: Subdomain, u: Field, vel: FaceVelocity,
                       bvals: BoundaryValues) -> np.ndarray:
    """Donor-cell value per face: left cell when V.n >= 0, else the right
    cell (or the ghost value on boundary faces)."""
    assert not u.halo_stale, "halo slots are stale; exchange before upwinding"
    lm = sub.local_mesh
    vdotn = np.einsum("ij,ij->i", vel.vectors, lm.face_normals)
    left = lm.face_cells[:, 0]
    right = lm.face_cells[:, 1]
    downwind = np.where(right >= 0, u.values[np.maximum(right, 0)], bvals.value)
    return np.where(vdotn >= 0.0, u.values[left], downwind)


def face_gradients(sub: Subdomain, u: Field, u_node: np.ndarray,
                   diamonds: DiamondCells, bvals: BoundaryValues) -> np.ndarray:
    """Diamond-cell gradient on every face, (n_faces, 2)."""
    lm = sub.local_mesh
    if bvals.node_idx is not None and bvals.node_idx.size:
        u_node = u_node.copy()
        u_node[bvals.node_idx] = bvals.node_value
    left = lm.face_cells[:, 0]
    right = lm.face_cells[:, 1]
    u_left = u.values[left]
    u_right = np.where(right >= 0, u.values[np.maximum(right, 0)], bvals.value)
    ua = u_node[lm.face_nodes[:, 0]]
    ub = u_node[lm.face_nodes[:, 1]]
    n_sigma = lm.face_normals * lm.face_lengths[:, None]
    grad = (u_right - u_left)[:, None] * n_sigma \
        + (ua - ub)[:, None] * diamonds.lr_vec
    grad /= (2.0 * diamonds.area)[:, None]
    return grad


def _per_cell_sum(sub: Subdomain, face_contrib: np.ndarray) -> np.ndarray:
    """Signed sum of face contributions per own cell, canonical edge order."""
    lm = sub.local_mesh
    cf = lm.cell_faces[:sub.n_own]
    sg = lm.cell_face_signs[:sub.n_own]
    out = face_contrib[cf[:, 0]] * sg[:, 0]
    out = out + face_contrib[cf[:, 1]] * sg[:, 1]
    out = out + face_contrib[cf[:, 2]] * sg[:, 2]
    return out


def convective_residual(sub: Subdomain, u: Field, vel: FaceVelocity,
                        bvals: BoundaryValues) -> np.ndarray:
    u_face = upwind_face_values(sub, u, vel, bvals)
    vdotn = np.einsum("ij,ij->i", vel.vectors, sub.local_mesh.face_normals)
    flux = u_face * vdotn * sub.local_mesh.face_lengths
    return _per_cell_sum(sub, flux)


def diffusive_residual(sub: Subdomain, u: Field, weights: NodeWeights,
                       diamonds: DiamondCells, bvals: BoundaryValues,
                       diffusion=1.0) -> np.ndarray:
    """Sum of D (grad u . n) |s| over each own cell's faces.

    diffusion may be a scalar or a per-face array.  Neumann faces contribute
    exactly zero (the literal zero-gradient condition), which is what makes
    the closed-box invariant sum(mu u) exact.
    """
    lm = sub.local_mesh
    u_node = node_values(sub, u, weights)
    grad = face_gradients(sub, u, u_node, diamonds, bvals)
    flux = np.einsum("ij,ij->i", grad, lm.face_normals) * lm.face_lengths
    flux = flux * diffusion
    flux[bvals.kind == BC_NEUMANN] = 0.0
    return _per_cell_sum(sub, flux)


def explicit_step(sub: Subdomain, u: Field, conv: np.ndarray, diss: np.ndarray,
                  dt: float, source=None) -> Field:
    """Forward-Euler update of the own slots; halo slots go stale."""
    mu = sub.local_mesh.areas[:sub.n_own]
    new = u.values.copy()
    upd = u.values[:sub.n_own] + (dt / mu) * (diss - conv)
    if source is not None:
        upd = upd + dt * source
    new[:sub.n_own] = upd
    return Field(values=new, quantity=u.quantity, time=u.time + dt,
                 halo_stale=sub.n_own < len(new))


def stable_dt(sub: Subdomain, vel: FaceVelocity, diffusion=0.0,
              cfl: float = 0.4) -> float:
    """Largest stable time step on this rank's own cells.

        dt = cfl * min_i  mu_i / ( sum_f |V.n| |s|  +  2 sum_f D |s|^2 / mu_i )

    Returns +inf when nothing moves (V = 0 and D = 0).  The global step is
    the minimum over ranks; the runtime reduces it.
    """
    lm = sub.local_mesh
    vdotn = np.abs(np.einsum("ij,ij->i", vel.vectors, lm.face_normals))
    conv_f = vdotn * lm.face_lengths
    diff_f = 2.0 * np.asarray(diffusion) * lm.face_lengths ** 2

    cf = lm.cell_faces[:sub.n_own]
    mu = lm.areas[:sub.n_own]
    conv_sum = conv_f[cf[:, 0]] + conv_f[cf[:, 1]] + conv_f[cf[:, 2]]
    diff_sum = (diff_f[cf[:, 0]] + diff_f[cf[:, 1]] + diff_f[cf[:, 2]]) / mu
    denom = conv_sum + diff_sum
    if not denom.size or float(denom.max()) == 0.0:
        return float("inf")
    with np.errstate(divide="ignore"):
        dts = np.where(denom > 0.0, mu / denom, np.inf)
    dt = cfl * float(dts.min())
    if dt <= 0.0 or not np.isfinite(denom.max()):
        raise ZeroDt(f"stability limit collapsed (dt = {dt})")
    return dt
