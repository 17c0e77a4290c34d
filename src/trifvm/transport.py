"""Explicit convection-diffusion kernels on a subdomain.

Per-cell update (forward Euler):

    u_i <- u_i - (dt / mu_i) * conv_i + (dt / mu_i) * diss_i + dt * source_i

where conv sums upwind convective fluxes u_f (V.n) |s| over the cell's
faces and diss sums diffusive fluxes D (grad u . n) |s| from the
diamond-cell gradient

    grad u = [ (u_right - u_left) n |s| + (u_A - u_B) n_lr |s_lr| ] / (2 area_D)

with node values u_A, u_B interpolated by the precomputed least-squares
weights.  All per-cell sums are `mesh.cell_sum` and all node stencils run
in ascending global id, so a partitioned run reproduces the sequential
arithmetic exactly.

The stencil is defined once: with the face differences d_n = u_right - u_left
and d_t = u_A - u_B, the gradient is d_n g_n + d_t g_t and the flux
D (beta d_n + tau d_t), with the weights of `mesh.DiamondCells` and the
boundary layout of `DiamondStencil`.  The explicit diffusion, the field of
`streamer` and the matrix of `poisson` all read it.

Boundary handling: a Dirichlet face carries the prescribed value at its
midpoint (used both as the upwind inflow value and as the gradient's
right-side value), and the nodes of Dirichlet faces take the prescribed
value instead of the interpolated one; a homogeneous-Neumann face copies the
inner value for convection and contributes exactly zero diffusive flux.

What does not change between steps is built when its inputs are, so a step
only gathers, multiplies and sums:

* per mesh (`mesh._finalize_geometry`, `build_diamonds`, `node_weights`,
  built once per run and sliced per subdomain): each face's right cell (its
  left cell on the boundary), the boundary faces, the diamond-gradient
  weights, and the node of every interpolation-stencil entry;
* per velocity (`FaceVelocity.from_vectors`): V.n, the donor cell of every
  face and the boundary inflow faces.  A uniform velocity is sampled once
  per run; the streamer's drift once per step, for all three of its uses;
* per BC layout (`diamond_stencil`, the one place that reads a layout):
  face kinds, where a label the layout does not name is Neumann, the
  Neumann faces with their inner cells, and the Dirichlet data at face
  midpoints and pinned nodes;
* per step: the ghost array of `apply_boundary_conditions`, computed once
  and read by both residuals, then the residuals and the update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .mesh import Mesh, NodeWeights, cell_sum
from .partition import Subdomain

BC_INTERIOR = 0
BC_DIRICHLET = 1
BC_NEUMANN = 2


@dataclass
class Field:
    """Cell-centered scalar on own + halo slots of a subdomain."""

    values: np.ndarray
    halo_stale: bool = False


@dataclass
class FaceVelocity:
    """Velocity sampled on faces, with what the upwind kernels read of it.

    normal is V.n per face; donor is the cell whose value a face carries, the
    left cell when V.n >= 0, else the right one; inflow lists the boundary
    faces with V.n < 0, which carry the ghost value instead.
    """

    normal: np.ndarray
    donor: np.ndarray
    inflow: np.ndarray

    @classmethod
    def from_vectors(cls, sub: Subdomain,
                     vectors: np.ndarray) -> "FaceVelocity":
        lm = sub.local_mesh
        normal = np.einsum("ij,ij->i", vectors, lm.face_normals)
        ahead = normal >= 0.0
        bnd = lm.boundary_faces()
        return cls(normal=normal,
                   donor=np.where(ahead, lm.face_cells[:, 0], lm.face_right),
                   inflow=bnd[~ahead[bnd]])

    @classmethod
    def uniform(cls, sub: Subdomain, vx: float, vy: float) -> "FaceVelocity":
        v = np.empty((sub.local_mesh.n_faces, 2))
        v[:, 0], v[:, 1] = vx, vy
        return cls.from_vectors(sub, v)


@dataclass
class Fluxes:
    """The residuals' inputs at the current state, plus this rank's CFL
    bound (a step takes the minimum over ranks)."""

    vel: FaceVelocity
    bvals: np.ndarray           # ghost value per face
    diffusion: object           # scalar or per-face array
    dt_stable: float


def classify_faces(lm: Mesh, bc: dict) -> np.ndarray:
    """Map face labels to BC codes.  bc: {label: ('dirichlet', g) |
    ('neumann',)}; a label that bc does not name is homogeneous Neumann."""
    kind = np.full(lm.n_faces, BC_INTERIOR, dtype=np.int8)
    for f in lm.boundary_faces():
        dirichlet = bc.get(lm.face_labels[f], ("neumann",))[0] == "dirichlet"
        kind[f] = BC_DIRICHLET if dirichlet else BC_NEUMANN
    return kind


@dataclass
class DiamondStencil:
    """One BC layout on the faces of one mesh: what the diamond stencil
    reads besides the geometry of `mesh.DiamondCells`.  pinned: the nodes of
    Dirichlet faces, ascending; they take their datum node_data, not the
    interpolant.
    """

    kind: np.ndarray            # BC_* code per face
    neumann: np.ndarray         # Neumann faces: zero flux; their ghost
    neumann_cells: np.ndarray   # copies this inner cell
    face_data: np.ndarray       # Dirichlet datum at the midpoint, else 0
    pinned: np.ndarray
    node_data: np.ndarray


def diamond_stencil(lm: Mesh, bc: dict) -> DiamondStencil:
    """The layout of the boundary conditions bc on a mesh: bc evaluated at
    the Dirichlet face midpoints and at their nodes, each node at its own
    coordinates (averaged where faces with different data meet)."""
    kind = classify_faces(lm, bc)
    face = np.zeros(lm.n_faces)
    sums = np.zeros(lm.n_nodes)
    counts = np.zeros(lm.n_nodes, dtype=np.int64)
    for f in np.flatnonzero(kind == BC_DIRICHLET):
        g = bc[lm.face_labels[f]][1]
        at = g if callable(g) else (lambda x, y, c=float(g): c)
        face[f] = at(*lm.face_midpoints[f])
        for node in lm.face_nodes[f]:
            sums[node] += at(*lm.points[node])
            counts[node] += 1
    pinned = np.flatnonzero(counts)
    neumann = np.flatnonzero(kind == BC_NEUMANN)
    return DiamondStencil(kind, neumann, lm.face_cells[neumann, 0], face,
                          pinned, sums[pinned] / counts[pinned])


def apply_boundary_conditions(u: Field, st: DiamondStencil) -> np.ndarray:
    """Ghost value of every face for the current state: the Dirichlet datum
    at the midpoint, or the copied inner value on Neumann faces.  A
    subdomain's boundary faces are all domain boundary: its local mesh holds
    no face that lost its far cell (`partition.build_subdomains`).
    """
    value = st.face_data.copy()
    value[st.neumann] = u.values[st.neumann_cells]
    return value


def node_values(sub: Subdomain, u: Field, weights: NodeWeights) -> np.ndarray:
    """Interpolate cell values to nodes through the least-squares weights;
    each node sums its stencil in stored (ascending global id) order."""
    assert not u.halo_stale, "halo slots are stale; exchange before interpolating"
    return np.bincount(weights.node, weights.weights * u.values[weights.cells],
                       minlength=sub.local_mesh.n_nodes)


def face_differences(sub: Subdomain, st: DiamondStencil, u: Field,
                     bvals: np.ndarray):
    """(d_n, d_t) = (u_right - u_left, u_A - u_B) on every face.

    On a boundary face u_right is the ghost value bvals of
    apply_boundary_conditions; pinned nodes take their data.
    """
    lm = sub.local_mesh
    u_right = u.values[lm.face_right]
    bnd = lm.boundary_faces()
    u_right[bnd] = bvals[bnd]
    d_n = u_right - u.values[lm.face_cells[:, 0]]
    u_node = node_values(sub, u, sub.weights)
    u_node[st.pinned] = st.node_data
    d_t = u_node[lm.face_nodes[:, 0]] - u_node[lm.face_nodes[:, 1]]
    return d_n, d_t


def face_gradients(sub: Subdomain, st: DiamondStencil,
                   u: Field) -> np.ndarray:
    """Diamond-cell gradient on every face, (n_faces, 2)."""
    bvals = apply_boundary_conditions(u, st)
    d_n, d_t = face_differences(sub, st, u, bvals)
    return d_n[:, None] * sub.diamonds.g_n + d_t[:, None] * sub.diamonds.g_t


def upwind_face_values(sub: Subdomain, u: Field, vel: FaceVelocity,
                       bvals: np.ndarray) -> np.ndarray:
    """Donor-cell value per face: left cell when V.n >= 0, else the right
    cell (or the ghost value on boundary faces)."""
    assert not u.halo_stale, "halo slots are stale; exchange before upwinding"
    u_face = u.values[vel.donor]
    u_face[vel.inflow] = bvals[vel.inflow]
    return u_face


def convective_residual(sub: Subdomain, u: Field, vel: FaceVelocity,
                        bvals: np.ndarray) -> np.ndarray:
    u_face = upwind_face_values(sub, u, vel, bvals)
    flux = u_face * vel.normal * sub.local_mesh.face_lengths
    return cell_sum(sub.local_mesh, flux)


def diffusive_residual(sub: Subdomain, u: Field, st: DiamondStencil,
                       bvals: np.ndarray, diffusion=1.0) -> np.ndarray:
    """Sum of D (grad u . n) |s| over each own cell's faces.

    bvals is the ghost array of apply_boundary_conditions for u.  diffusion
    may be a scalar or a per-face array.  Neumann faces contribute
    exactly zero (the literal zero-gradient condition), which is what makes
    the closed-box invariant sum(mu u) exact.
    """
    d_n, d_t = face_differences(sub, st, u, bvals)
    flux = (sub.diamonds.beta * d_n + sub.diamonds.tau * d_t) * diffusion
    flux[st.neumann] = 0.0
    return cell_sum(sub.local_mesh, flux)


def explicit_step(sub: Subdomain, u: Field, conv: np.ndarray, diss: np.ndarray,
                  dt: float, source=None) -> Field:
    """Forward-Euler update of the own slots; halo slots go stale."""
    mu = sub.local_mesh.areas[:sub.n_own]
    new = u.values.copy()
    upd = u.values[:sub.n_own] + (dt / mu) * (diss - conv)
    if source is not None:
        upd = upd + dt * source
    new[:sub.n_own] = upd
    return Field(new, halo_stale=sub.n_own < len(new))


def stable_dt(sub: Subdomain, vel: FaceVelocity, diffusion=0.0,
              cfl: float = 0.4) -> float:
    """Largest stable time step on this rank's own cells.

        dt = cfl * min_i  mu_i / ( sum_f |V.n| |s|  +  2 sum_f D |s|^2 / mu_i )

    Returns +inf when nothing moves (V = 0 and D = 0).  The global step is
    the minimum over ranks; the runtime reduces it.
    """
    lm = sub.local_mesh
    conv_f = np.abs(vel.normal) * lm.face_lengths
    diff_f = 2.0 * np.asarray(diffusion) * lm.face_lengths ** 2
    mu = lm.areas[:sub.n_own]
    denom = cell_sum(lm, conv_f, signed=False) \
        + cell_sum(lm, diff_f, signed=False) / mu
    if not denom.size or float(denom.max()) == 0.0:
        return float("inf")
    with np.errstate(divide="ignore"):
        dts = np.where(denom > 0.0, mu / denom, np.inf)
    dt = cfl * float(dts.min())
    if dt <= 0.0 or not np.isfinite(denom.max()):
        raise NumericError(f"stability limit collapsed (dt = {dt})")
    return dt
