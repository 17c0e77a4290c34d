"""Mesh partitioning over the dual graph, plus subdomain construction.

The dual graph has one vertex per triangle and one edge per interior face
(degree <= 3).  Partitioning is recursive bisection by Cuthill-McKee
sweeps.  A sweep from the lowest (degree, id) cell ends at a far cell; a
second sweep from that cell orders the cells level by level, and the first
floor(n * floor(k/2) / k) of them take floor(k/2) of the k parts, the rest
the others, each half split again the same way.  Part sizes differ by at
most one, and a partition depends on (graph, k) alone.

The same sweep orders the direct solver (`direct_solver.dissection`): run
on the matrix graph, it sweeps the vertex sets of one depth of the nested
dissection side by side, and a middle level of each set's sweep, thinned,
is its separator; a leaf takes its sweep reversed.

Subdomains carry the rank's own cells plus a halo of every neighbor cell
sharing at least one node with an own cell.  That is deliberately wider than
face adjacency: node interpolation sums over all cells around a node, so
every cell of the stencil of a node of an own cell is own or halo.  The
local mesh holds only the faces a rank reads: the faces of its own cells,
whose far cell shares a node with an own cell and so is own or halo, and
the domain-boundary faces of its halo cells, whose Dirichlet nodes pin
nodes of own cells.  Each keeps its global cells, label and orientation
(left/right, endpoint order), so the local cell face signs are the global
ones and no face is flipped.

A subdomain carries its slice of the run's geometry, built once on the
global mesh: the diamonds of its local faces and the weights of the nodes
of its own cells (other local nodes get empty stencils).  A face of an own
cell has both endpoints on that cell, so own-cell fluxes read only these,
and a partitioned run matches the sequential one to the last bit.

Subdomains are built with array operations, no per-cell Python: a boolean
node mask per part marks the nodes of its own cells; the halo of rank r is
the cells outside r with a node in r's mask, and r sends to rank s the own
cells with a node in s's mask.  Local nodes are the sorted global nodes of
the local cells; local faces follow first appearance in the cells' face
lists; global-to-local maps are index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mesh import (DiamondCells, Mesh, NodeWeights, _finalize_geometry,
                   build_diamonds, node_weights)


@dataclass
class DualGraph:
    """CSR graph: triangles across interior faces, or a matrix pattern."""

    n: int
    ptr: np.ndarray        # (n + 1,)
    adj: np.ndarray        # neighbor ids, ascending per vertex


@dataclass
class PartitionMap:
    part: np.ndarray  # (n_cells,) rank per cell
    k: int


def graph_from_pairs(n: int, heads: np.ndarray, tails: np.ndarray) -> DualGraph:
    """CSR graph on n vertices, an edge per distinct (head, tail) pair, each
    vertex's neighbors ascending; undirected graphs pass both directions."""
    pairs = np.sort(heads * n + tails)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    ptr = np.searchsorted(pairs // n, np.arange(n + 1)).astype(np.int64)
    return DualGraph(n=n, ptr=ptr, adj=pairs % n)


def build_dual_graph(mesh: Mesh) -> DualGraph:
    inter = mesh.interior_faces()
    left = mesh.face_cells[inter, 0]
    right = mesh.face_cells[inter, 1]
    return graph_from_pairs(mesh.n_cells, np.concatenate([left, right]),
                            np.concatenate([right, left]))


def neighbors(graph: DualGraph, verts: np.ndarray):
    """The neighbors of each of `verts` (not empty), concatenated, and the
    end of each vertex's run in them."""
    lo = graph.ptr[verts]
    count = graph.ptr[verts + 1] - lo
    ends = np.cumsum(count)
    return graph.adj[np.arange(ends[-1]) + np.repeat(lo - ends + count,
                                                     count)], ends


def cuthill_mckee(graph: DualGraph, part: np.ndarray, starts: np.ndarray):
    """Cuthill-McKee sweeps of the vertex sets part == 0, 1, ..., side by
    side; vertices with part -1 are in none, and no edge may join two sets.

    Each set's sweep goes one BFS level at a time from its first vertex in
    `starts`.  When every set's component is done, each set goes on from
    its first vertex in `starts` not yet swept, until none is left.  A new
    level lists its vertices by (position of the earliest neighbor in the
    previous level, degree, id): the order a per-vertex queue that enqueues
    each vertex's unswept neighbors by (degree, id) produces.  Degrees count
    every neighbor.  An edge joins vertices of one level or of two adjacent
    ones, so each level separates those before it from those after it.

    Returns the swept vertices set by set, each set's in Cuthill-McKee
    order, and the level of each (the step of the sweeps that took it).
    """
    n = graph.n
    degree = np.diff(graph.ptr)
    span = int(degree.max(initial=0)) + 1
    free = part >= 0
    claim = np.full(n, len(graph.adj))   # a vertex's first entry in its step
    steps = []
    level = np.empty(0, dtype=np.int64)
    while True:
        if not level.size:
            more = starts[free[starts]]
            level = more[np.unique(part[more], return_index=True)[1]]
            if not level.size:
                break
        free[level] = False
        steps.append(level)
        nbrs, ends = neighbors(graph, level)
        at = np.flatnonzero(free[nbrs])
        nbrs = nbrs[at]
        np.minimum.at(claim, nbrs, at)
        nbrs = nbrs[claim[nbrs] == at]
        parent = np.searchsorted(ends, claim[nbrs], side="right")
        level = nbrs[np.argsort((parent * span + degree[nbrs]) * n + nbrs)]
    if not steps:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.concatenate(steps)
    depth = np.repeat(np.arange(len(steps)), [len(s) for s in steps])
    by_set = np.argsort(part[order], kind="stable")
    return order[by_set], depth[by_set]


def _bisect(graph: DualGraph, cells: np.ndarray, k: int, first: int,
            part: np.ndarray) -> None:
    """Give `cells` (ascending ids) parts first .. first + k - 1."""
    if k == 1:
        part[cells] = first
        return
    by_degree = cells[np.argsort(np.diff(graph.ptr)[cells], kind="stable")]
    one = np.full(graph.n, -1)
    one[cells] = 0
    far = cuthill_mckee(graph, one, by_degree)[0][-1]
    order = cuthill_mckee(graph, one, np.concatenate([[far], by_degree]))[0]
    half = k // 2
    cut = len(cells) * half // k
    _bisect(graph, np.sort(order[:cut]), half, first, part)
    _bisect(graph, np.sort(order[cut:]), k - half, first + half, part)


def partition(graph: DualGraph, k: int) -> PartitionMap:
    if k < 1 or k > graph.n:
        raise ConfigError(f"k = {k} outside 1..{graph.n}")
    part = np.empty(graph.n, dtype=np.int64)
    _bisect(graph, np.arange(graph.n), k, 0, part)
    return PartitionMap(part=part, k=k)


def partition_metrics(graph: DualGraph, pm: PartitionMap) -> dict:
    """{edge_cut, imbalance, halo_total}; halo counted on the dual graph."""
    sizes = np.bincount(pm.part, minlength=pm.k)
    imbalance = float(sizes.max() / (graph.n / pm.k))
    heads = np.repeat(np.arange(graph.n), np.diff(graph.ptr))
    cross = pm.part[heads] != pm.part[graph.adj]
    # distinct (part, foreign neighbor) pairs
    halo_total = len(np.unique(pm.part[heads[cross]] * graph.n
                               + graph.adj[cross]))
    return {"edge_cut": int(np.count_nonzero(cross)) // 2,
            "imbalance": imbalance,
            "halo_total": halo_total}


# --------------------------------------------------------------------------
# subdomains

@dataclass
class Subdomain:
    """One rank's slice of the mesh: own cells first, halo cells after.

    local_mesh has every local cell but only the faces its rank reads
    (module docstring): its cell_faces and cell_face_signs cover own cells.

    neighbor_links[r] = (send_own_local, recv_halo_local): local indices of
    own cells whose values rank r needs, and of the halo slots filled by
    rank r's values.  Both sides enumerate the same global cells in the same
    ascending global-id order, so exchanges need no runtime matching.
    """

    rank: int
    n_own: int
    halo_cells: np.ndarray      # global ids, ascending
    local_mesh: Mesh
    cells_l2g: np.ndarray       # global ids: own, then halo, each ascending
    face_l2g: np.ndarray
    neighbor_links: dict[int, tuple[np.ndarray, np.ndarray]]
    diamonds: DiamondCells      # this rank's slice of the run's geometry
    weights: NodeWeights

    @property
    def n_local(self) -> int:
        return len(self.cells_l2g)

    @property
    def neighbors(self) -> list[int]:
        return sorted(self.neighbor_links)


def _slice_weights(weights: NodeWeights, keep: np.ndarray,
                   nodes_l2g: np.ndarray, g2l: np.ndarray) -> NodeWeights:
    """The stencils of the nodes marked in keep, in local ids; empty elsewhere."""
    mask = keep[weights.node]
    node = np.searchsorted(nodes_l2g, weights.node[mask])
    ptr = np.searchsorted(node, np.arange(len(nodes_l2g) + 1))
    return NodeWeights(ptr=ptr, node=node, cells=g2l[weights.cells[mask]],
                       weights=weights.weights[mask])


def build_subdomains(mesh: Mesh, pm: PartitionMap, diamonds: DiamondCells,
                     weights: NodeWeights) -> list[Subdomain]:
    """Each part's subdomain, with its slice of the diamonds and weights."""
    tri = mesh.triangles
    touch = np.zeros((pm.k, mesh.n_nodes), dtype=bool)  # nodes of r's own cells
    touch[np.repeat(pm.part, 3), tri.ravel()] = True
    labels = np.asarray(mesh.face_labels, dtype=object)
    subs = []
    for r in range(pm.k):
        own = np.flatnonzero(pm.part == r)
        halo = np.flatnonzero(touch[r][tri].any(axis=1) & (pm.part != r))
        l2g = np.concatenate([own, halo])
        g2l = np.full(mesh.n_cells + 1, -1, dtype=np.int64)  # g2l[-1] stays -1
        g2l[l2g] = np.arange(len(l2g))
        nodes_l2g = np.unique(tri[l2g])

        # local faces: those of the own cells, then the domain-boundary
        # faces of the halo cells, in order of first appearance over the
        # local cells; each keeps its global cells and orientation
        seen = mesh.cell_faces[l2g].ravel()
        first = np.sort(np.unique(seen, return_index=True)[1])
        face_l2g = seen[first[(first < 3 * len(own))
                              | (mesh.face_cells[seen[first], 1] < 0)]]
        face_g2l = np.empty(mesh.n_faces, dtype=np.int64)
        face_g2l[face_l2g] = np.arange(len(face_l2g))
        lm = Mesh(points=mesh.points[nodes_l2g],
                  triangles=np.searchsorted(nodes_l2g, tri[l2g]),
                  face_nodes=np.searchsorted(nodes_l2g,
                                             mesh.face_nodes[face_l2g]),
                  face_cells=g2l[mesh.face_cells[face_l2g]],
                  face_labels=labels[face_l2g].tolist(),
                  cell_faces=face_g2l[mesh.cell_faces[own]],
                  cell_face_signs=mesh.cell_face_signs[own])
        _finalize_geometry(lm)

        links = {}
        for s in range(pm.k):
            recv = halo[pm.part[halo] == s]
            if s != r and recv.size:
                send = own[touch[s][tri[own]].any(axis=1)]
                links[s] = (g2l[send], g2l[recv])

        subs.append(Subdomain(rank=r, n_own=len(own), halo_cells=halo,
                              local_mesh=lm, cells_l2g=l2g, face_l2g=face_l2g,
                              neighbor_links=links,
                              diamonds=DiamondCells(
                                  *(a[face_l2g]
                                    for a in vars(diamonds).values())),
                              weights=_slice_weights(weights, touch[r],
                                                     nodes_l2g, g2l)))
    return subs


def single_subdomain(mesh: Mesh) -> Subdomain:
    """The k = 1 view of a mesh, with its geometry: everything own, no halo,
    no links."""
    pm = PartitionMap(part=np.zeros(mesh.n_cells, dtype=np.int64), k=1)
    return build_subdomains(mesh, pm, build_diamonds(mesh),
                            node_weights(mesh))[0]
