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

The stencil is defined once, in `DiamondStencil`: with the face differences
d_n = u_right - u_left and d_t = u_A - u_B, the flux is D (beta d_n + tau d_t).
The explicit diffusion, the field of `streamer` and the matrix of `poisson`
all read it.

Boundary handling: a Dirichlet face carries the prescribed value at its
midpoint (used both as the upwind inflow value and as the gradient's
right-side value), and the nodes of Dirichlet faces take the prescribed
value instead of the interpolated one; a homogeneous-Neumann face copies the
inner value for convection and contributes exactly zero diffusive flux.

What does not change between steps is built when its inputs are, so a step
only gathers, multiplies and sums:

* per mesh (`mesh._finalize_geometry`, `node_weights`): each face's right
  cell (its left cell on the boundary), the boundary faces, and the node of
  every interpolation-stencil entry;
* per velocity (`FaceVelocity.from_vectors`): V.n, the donor cell of every
  face and the boundary inflow faces.  A uniform velocity is sampled once
  per run; the streamer's drift once per step, for all three of its uses;
* per BC layout (`diamond_stencil`, `dirichlet_data`): face kinds, flux
  weights, pinned nodes, the Neumann faces with their inner cells, and the
  Dirichlet data;
* per step: the ghost array of `apply_boundary_conditions`, computed once
  and read by both residuals, then the residuals and the update.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ZeroDt
from .mesh import DiamondCells, Mesh, NodeWeights
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
    """Velocity sampled on faces, with what the upwind kernels read of it.

    normal is V.n per face; donor is the cell whose value a face carries, the
    left cell when V.n >= 0, else the right one; inflow lists the boundary
    faces with V.n < 0, which carry the ghost value instead.
    """

    vectors: np.ndarray         # (n_faces, 2)
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
        return cls(vectors=vectors, normal=normal,
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
    """Map face labels to BC codes. bc: {label: ('dirichlet', g) | ('neumann',)}."""
    kind = np.full(lm.n_faces, BC_INTERIOR, dtype=np.int8)
    for f in lm.boundary_faces():
        label = lm.face_labels[f]
        if label not in bc:
            raise KeyError(f"no boundary condition for label '{label}'")
        kind[f] = BC_DIRICHLET if bc[label][0] == "dirichlet" else BC_NEUMANN
    return kind


@dataclass
class DirichletData:
    """The data of one BC layout: the datum at every Dirichlet face midpoint
    (0 on other faces) and at every pinned node (see DiamondStencil)."""

    face: np.ndarray
    node: np.ndarray


def dirichlet_data(lm: Mesh, bc: dict, kind: np.ndarray) -> DirichletData:
    """Evaluate bc at the Dirichlet face midpoints and at their nodes, each
    node at its own coordinates (averaged where faces with different data
    meet), nodes ascending."""
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
    idx = np.flatnonzero(counts)
    return DirichletData(face=face, node=sums[idx] / counts[idx])


@dataclass
class NeumannFaces:
    """The homogeneous-Neumann faces of one BC layout and their inner cells."""

    faces: np.ndarray
    cells: np.ndarray


def neumann_faces(lm: Mesh, kind: np.ndarray) -> NeumannFaces:
    faces = np.flatnonzero(kind == BC_NEUMANN)
    return NeumannFaces(faces=faces, cells=lm.face_cells[faces, 0])


def apply_boundary_conditions(u: Field, neumann: NeumannFaces,
                              dirichlet: np.ndarray) -> np.ndarray:
    """Ghost value of every face for the current state: the Dirichlet datum
    at the midpoint, or the copied inner value on Neumann faces.  A
    subdomain's boundary faces are all domain boundary: its local mesh holds
    no face that lost its far cell (`partition.build_subdomains`).
    """
    value = dirichlet.copy()
    value[neumann.faces] = u.values[neumann.cells]
    return value


@dataclass
class DiamondStencil:
    """The diamond flux of every face of one mesh under one BC layout,
    D (grad u . n) |s| = D (beta d_n + tau d_t).  pinned: the nodes of
    Dirichlet faces, ascending; they take their datum, not the interpolant.
    """

    kind: np.ndarray            # BC_* code per face
    neumann: NeumannFaces       # ghosts copy their inner cell; zero flux
    beta: np.ndarray
    tau: np.ndarray
    pinned: np.ndarray
    diamonds: DiamondCells
    weights: NodeWeights


def _gradient_weights(lm: Mesh, diamonds: DiamondCells):
    """Weights of d_n and d_t in the diamond gradient, (n_faces, 2) each."""
    two_area = 2.0 * diamonds.area[:, None]
    return (lm.face_normals * lm.face_lengths[:, None] / two_area,
            diamonds.lr_vec / two_area)


def diamond_stencil(lm: Mesh, bc: dict, diamonds: DiamondCells,
                    weights: NodeWeights) -> DiamondStencil:
    """The diamond stencil of a mesh under the boundary conditions bc."""
    kind = classify_faces(lm, bc)
    n_sigma = lm.face_normals * lm.face_lengths[:, None]
    beta, tau = (np.einsum("ij,ij->i", g, n_sigma)
                 for g in _gradient_weights(lm, diamonds))
    return DiamondStencil(kind, neumann_faces(lm, kind), beta, tau,
                          np.unique(lm.face_nodes[kind == BC_DIRICHLET]),
                          diamonds, weights)


def node_values(sub: Subdomain, u: Field, weights: NodeWeights) -> np.ndarray:
    """Interpolate cell values to nodes through the least-squares weights;
    each node sums its stencil in stored (ascending global id) order."""
    assert not u.halo_stale, "halo slots are stale; exchange before interpolating"
    return np.bincount(weights.node, weights.weights * u.values[weights.cells],
                       minlength=sub.local_mesh.n_nodes)


def face_differences(sub: Subdomain, st: DiamondStencil, u: Field,
                     data: DirichletData, bvals: np.ndarray):
    """(d_n, d_t) = (u_right - u_left, u_A - u_B) on every face.

    On a boundary face u_right is the ghost value bvals of
    apply_boundary_conditions; pinned nodes take their data.
    """
    lm = sub.local_mesh
    u_right = u.values[lm.face_right]
    bnd = lm.boundary_faces()
    u_right[bnd] = bvals[bnd]
    d_n = u_right - u.values[lm.face_cells[:, 0]]
    u_node = node_values(sub, u, st.weights)
    u_node[st.pinned] = data.node
    d_t = u_node[lm.face_nodes[:, 0]] - u_node[lm.face_nodes[:, 1]]
    return d_n, d_t


def face_gradients(sub: Subdomain, st: DiamondStencil, u: Field,
                   data: DirichletData) -> np.ndarray:
    """Diamond-cell gradient on every face, (n_faces, 2)."""
    bvals = apply_boundary_conditions(u, st.neumann, data.face)
    d_n, d_t = face_differences(sub, st, u, data, bvals)
    g_n, g_t = _gradient_weights(sub.local_mesh, st.diamonds)
    return d_n[:, None] * g_n + d_t[:, None] * g_t


def upwind_face_values(sub: Subdomain, u: Field, vel: FaceVelocity,
                       bvals: np.ndarray) -> np.ndarray:
    """Donor-cell value per face: left cell when V.n >= 0, else the right
    cell (or the ghost value on boundary faces)."""
    assert not u.halo_stale, "halo slots are stale; exchange before upwinding"
    u_face = u.values[vel.donor]
    u_face[vel.inflow] = bvals[vel.inflow]
    return u_face


def _per_cell_sum(sub: Subdomain, face_contrib: np.ndarray) -> np.ndarray:
    """Signed sum of face contributions per own cell, canonical edge order."""
    lm = sub.local_mesh
    cf, sg = lm.cell_faces, lm.cell_face_signs
    out = face_contrib[cf[:, 0]] * sg[:, 0]
    out = out + face_contrib[cf[:, 1]] * sg[:, 1]
    out = out + face_contrib[cf[:, 2]] * sg[:, 2]
    return out


def convective_residual(sub: Subdomain, u: Field, vel: FaceVelocity,
                        bvals: np.ndarray) -> np.ndarray:
    u_face = upwind_face_values(sub, u, vel, bvals)
    flux = u_face * vel.normal * sub.local_mesh.face_lengths
    return _per_cell_sum(sub, flux)


def diffusive_residual(sub: Subdomain, u: Field, st: DiamondStencil,
                       data: DirichletData, bvals: np.ndarray,
                       diffusion=1.0) -> np.ndarray:
    """Sum of D (grad u . n) |s| over each own cell's faces.

    bvals is the ghost array of apply_boundary_conditions for u.  diffusion
    may be a scalar or a per-face array.  Neumann faces contribute
    exactly zero (the literal zero-gradient condition), which is what makes
    the closed-box invariant sum(mu u) exact.
    """
    d_n, d_t = face_differences(sub, st, u, data, bvals)
    flux = (st.beta * d_n + st.tau * d_t) * diffusion
    flux[st.neumann.faces] = 0.0
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
    conv_f = np.abs(vel.normal) * lm.face_lengths
    diff_f = 2.0 * np.asarray(diffusion) * lm.face_lengths ** 2

    cf = lm.cell_faces
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
