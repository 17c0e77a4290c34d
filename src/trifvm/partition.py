"""Mesh partitioning over the dual graph, plus subdomain construction.

The dual graph has one vertex per triangle and one edge per interior face
(degree <= 3).  Partitioning is greedy graph growing from k seeds spread by
a farthest-point sweep, followed by Kernighan-Lin style boundary refinement
that only accepts moves keeping the balance constraint.  Everything is
deterministic for a fixed (graph, k, seed); ties break toward the lowest
cell index.

Subdomains carry the rank's own cells plus a halo of every neighbor cell
sharing at least one node with an own cell.  That is deliberately wider than
face adjacency: node interpolation sums over all cells around a node, and
the partitioned run must reproduce the sequential one to the last bit.  The
local mesh keeps the global orientation (left/right, endpoint order) of
every face of an own cell; faces that lost their second cell at the fringe
are flipped toward the surviving halo cell and labeled so they are never
mistaken for domain boundary.

Subdomains are built with array operations, no per-cell Python: a boolean
node mask per part marks the nodes of its own cells; the halo of rank r is
the cells outside r with a node in r's mask, and r sends to rank s the own
cells with a node in s's mask.  Local nodes are the sorted global nodes of
the local cells; local faces follow first appearance in the cells' face
lists; global-to-local maps are index arrays.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidK
from .mesh import HALO_FRINGE, Mesh, _finalize_geometry


@dataclass
class DualGraph:
    """Adjacency of triangles across interior faces (CSR layout)."""

    n: int
    ptr: np.ndarray        # (n + 1,)
    adj: np.ndarray        # neighbor cell ids

    def neighbors(self, v: int) -> np.ndarray:
        return self.adj[self.ptr[v]:self.ptr[v + 1]]


@dataclass
class PartitionMap:
    part: np.ndarray  # (n_cells,) rank per cell
    k: int


def build_dual_graph(mesh: Mesh) -> DualGraph:
    inter = mesh.interior_faces()
    left = mesh.face_cells[inter, 0]
    right = mesh.face_cells[inter, 1]
    heads = np.concatenate([left, right])
    tails = np.concatenate([right, left])
    order = np.lexsort((tails, heads))
    heads, tails = heads[order], tails[order]
    ptr = np.zeros(mesh.n_cells + 1, dtype=np.int64)
    np.add.at(ptr, heads + 1, 1)
    np.cumsum(ptr, out=ptr)
    return DualGraph(n=mesh.n_cells, ptr=ptr, adj=tails)


def _bfs_farthest(graph: DualGraph, sources) -> int:
    """Vertex with maximal BFS distance from the source set (lowest id wins)."""
    dist = np.full(graph.n, -1, dtype=np.int64)
    q = deque()
    for s in sources:
        dist[s] = 0
        q.append(s)
    far, far_d = int(sources[0]), 0
    while q:
        v = q.popleft()
        for w in graph.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
                if dist[w] > far_d or (dist[w] == far_d and w < far):
                    far, far_d = int(w), int(dist[w])
    unreached = np.flatnonzero(dist < 0)
    if unreached.size:  # disconnected: jump components
        return int(unreached[0])
    return far


def _grow(graph: DualGraph, seeds: list[int]) -> np.ndarray:
    """Simultaneous BFS growth; the currently smallest part claims next."""
    k = len(seeds)
    part = np.full(graph.n, -1, dtype=np.int64)
    frontiers = [deque() for _ in range(k)]
    sizes = [0] * k
    for r, s in enumerate(seeds):
        part[s] = r
        sizes[r] += 1
        frontiers[r].append(s)
    assigned = k
    while assigned < graph.n:
        r = min(range(k), key=lambda i: (sizes[i], i))
        grabbed = False
        while frontiers[r]:
            v = frontiers[r].popleft()
            nxt = [int(w) for w in graph.neighbors(v) if part[w] < 0]
            if not nxt:
                continue
            nxt.sort()
            w = nxt[0]
            part[w] = r
            sizes[r] += 1
            frontiers[r].append(w)
            if len(nxt) > 1:
                frontiers[r].appendleft(v)  # v still has unclaimed neighbors
            grabbed = True
            break
        if not grabbed:
            # stalled part (walled in or disconnected graph): take the lowest
            # free vertex so every cell lands somewhere
            w = int(np.flatnonzero(part < 0)[0])
            part[w] = r
            sizes[r] += 1
            frontiers[r].append(w)
        assigned += 1
    return part


def _refine(graph: DualGraph, part: np.ndarray, k: int, max_passes: int = 20):
    """Boundary moves with positive edge-cut gain under a balance cap."""
    sizes = np.bincount(part, minlength=k)
    # balance cap: never let a move push a part past 110% of the mean,
    # rounded down so the ratio itself stays <= 1.10; always feasible
    cap = max(int(1.10 * graph.n / k), -(-graph.n // k))
    for _ in range(max_passes):
        moved = False
        for v in range(graph.n):
            home = part[v]
            if sizes[home] <= 1:
                continue
            counts = {}
            for w in graph.neighbors(v):
                counts[part[w]] = counts.get(part[w], 0) + 1
            external = [(p, c) for p, c in counts.items() if p != home]
            if not external:
                continue
            internal = counts.get(home, 0)
            best_gain, best_part = 0, -1
            for p, c in sorted(external):
                if sizes[p] + 1 > cap:
                    continue
                gain = c - internal
                better = gain > best_gain or (
                    gain == best_gain and best_part >= 0
                    and sizes[p] < sizes[best_part])
                if gain > 0 and (best_part < 0 or better):
                    best_gain, best_part = gain, p
            if best_part >= 0:
                sizes[home] -= 1
                sizes[best_part] += 1
                part[v] = best_part
                moved = True
        if not moved:
            break
    return part


def partition(graph: DualGraph, k: int, seed: int = 0) -> PartitionMap:
    if k < 1 or k > graph.n:
        raise InvalidK(f"k = {k} outside 1..{graph.n}")
    if k == 1:
        return PartitionMap(part=np.zeros(graph.n, dtype=np.int64), k=1)
    rng = random.Random(seed)
    seeds = [rng.randrange(graph.n)]
    while len(seeds) < k:
        cand = _bfs_farthest(graph, seeds)
        if cand in seeds:  # exhausted distances; fill with lowest free ids
            free = sorted(set(range(graph.n)) - set(seeds))
            seeds.extend(free[:k - len(seeds)])
            break
        seeds.append(cand)
    part = _grow(graph, seeds[:k])
    part = _refine(graph, part, k)
    sizes = np.bincount(part, minlength=k)
    if sizes.min() < 1:
        raise InvalidK("refinement emptied a part")  # should be unreachable
    return PartitionMap(part=part, k=k)


def edge_cut(graph: DualGraph, pm: PartitionMap) -> int:
    heads = np.repeat(np.arange(graph.n), np.diff(graph.ptr))
    cut2 = int(np.count_nonzero(pm.part[heads] != pm.part[graph.adj]))
    return cut2 // 2


def partition_metrics(graph: DualGraph, pm: PartitionMap) -> dict:
    """{edge_cut, imbalance, halo_total}; halo counted on the dual graph."""
    sizes = np.bincount(pm.part, minlength=pm.k)
    imbalance = float(sizes.max() / (graph.n / pm.k))
    heads = np.repeat(np.arange(graph.n), np.diff(graph.ptr))
    cross = pm.part[heads] != pm.part[graph.adj]
    # distinct (part, foreign neighbor) pairs
    halo_total = len(np.unique(pm.part[heads[cross]] * graph.n
                               + graph.adj[cross]))
    return {"edge_cut": edge_cut(graph, pm),
            "imbalance": imbalance,
            "halo_total": halo_total}


# --------------------------------------------------------------------------
# subdomains

@dataclass
class Subdomain:
    """One rank's slice of the mesh: own cells first, halo cells after.

    neighbor_links[r] = (send_own_local, recv_halo_local): local indices of
    own cells whose values rank r needs, and of the halo slots filled by
    rank r's values.  Both sides enumerate the same global cells in the same
    ascending global-id order, so exchanges need no runtime matching.
    """

    rank: int
    n_own: int
    own_cells: np.ndarray       # global ids, ascending
    halo_cells: np.ndarray      # global ids, ascending
    local_mesh: Mesh
    cells_l2g: np.ndarray       # (n_own + n_halo,)
    face_l2g: np.ndarray
    neighbor_links: dict[int, tuple[np.ndarray, np.ndarray]]

    @property
    def n_local(self) -> int:
        return len(self.cells_l2g)

    @property
    def neighbors(self) -> list[int]:
        return sorted(self.neighbor_links)


def build_subdomains(mesh: Mesh, pm: PartitionMap) -> list[Subdomain]:
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

        # local faces = every global face touching a local cell, one copy
        # each, in order of first appearance over the local cells
        seen = mesh.cell_faces[l2g].ravel()
        face_l2g = seen[np.sort(np.unique(seen, return_index=True)[1])]
        face_g2l = np.empty(mesh.n_faces, dtype=np.int64)
        face_g2l[face_l2g] = np.arange(len(face_l2g))
        ends = mesh.face_nodes[face_l2g]
        left, right = g2l[mesh.face_cells[face_l2g]].T
        # left side missing: flip toward the surviving halo cell
        kept = left >= 0
        f_nodes = np.searchsorted(nodes_l2g,
                                  np.where(kept[:, None], ends, ends[:, ::-1]))
        f_cells = np.where(kept[:, None], np.column_stack([left, right]),
                           np.column_stack([right, np.full_like(right, -1)]))
        cell_faces = face_g2l[mesh.cell_faces[l2g]]
        lm = Mesh(points=mesh.points[nodes_l2g],
                  triangles=np.searchsorted(nodes_l2g, tri[l2g]),
                  face_nodes=f_nodes,
                  face_cells=f_cells,
                  face_labels=np.where(kept, labels[face_l2g],
                                       HALO_FRINGE).tolist(),
                  cell_faces=cell_faces,
                  cell_face_signs=np.where(
                      f_cells[cell_faces, 0] == np.arange(len(l2g))[:, None],
                      1, -1).astype(np.int8))
        _finalize_geometry(lm)

        links = {}
        for s in range(pm.k):
            recv = halo[pm.part[halo] == s]
            if s != r and recv.size:
                send = own[touch[s][tri[own]].any(axis=1)]
                links[s] = (g2l[send], g2l[recv])

        subs.append(Subdomain(rank=r, n_own=len(own), own_cells=own,
                              halo_cells=halo, local_mesh=lm, cells_l2g=l2g,
                              face_l2g=face_l2g,
                              neighbor_links=links))
    return subs


def single_subdomain(mesh: Mesh) -> Subdomain:
    """The k = 1 view of a mesh: everything own, no halo, no links."""
    pm = PartitionMap(part=np.zeros(mesh.n_cells, dtype=np.int64), k=1)
    return build_subdomains(mesh, pm)[0]
