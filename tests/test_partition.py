"""Dual graph, recursive Cuthill-McKee bisection, subdomain extraction."""

import numpy as np
import pytest

from trifvm.errors import InvalidK
from trifvm.mesh import build_diamonds, node_weights, structured_triangulation
from trifvm.partition import (DualGraph, build_dual_graph, build_subdomains,
                              edge_cut, partition, partition_metrics,
                              single_subdomain)
from trifvm.transport import Field, node_values

from conftest import irregular_mesh


def _node_adjacency(mesh):
    incident = [[] for _ in range(mesh.points.shape[0])]
    for t, tri in enumerate(mesh.triangles):
        for v in tri:
            incident[v].append(t)
    return incident


def test_dual_graph_symmetric():
    m = structured_triangulation(4)
    g = build_dual_graph(m)
    assert g.n == m.triangles.shape[0]
    deg = np.diff(g.ptr)
    assert deg.max() <= 3 and deg.min() >= 1
    edges = {(i, int(j)) for i in range(g.n)
             for j in g.adj[g.ptr[i]:g.ptr[i + 1]]}
    assert all((j, i) in edges for i, j in edges)


def test_invalid_k_raises():
    g = build_dual_graph(structured_triangulation(4))
    for k in (0, -3, g.n + 1):
        with pytest.raises(InvalidK):
            partition(g, k)


def test_partition_covers_and_balances():
    m = structured_triangulation(16)
    g = build_dual_graph(m)
    for k in (2, 4, 8):
        pm = partition(g, k)
        sizes = np.bincount(pm.part, minlength=k)
        assert sizes.min() > 0
        metrics = partition_metrics(g, pm)
        assert metrics["imbalance"] <= 1.10
        assert metrics["edge_cut"] == edge_cut(g, pm)


def test_partition_beats_random_assignment():
    m = structured_triangulation(16)
    g = build_dual_graph(m)
    pm = partition(g, 4)
    ours = edge_cut(g, pm)
    rng = np.random.default_rng(0)
    best = min(edge_cut(g, type(pm)(part=rng.permutation(
        np.arange(g.n) % 4), k=4)) for _ in range(20))
    assert ours < best


def _side_by_side(a, b):
    """Two dual graphs as one disconnected graph, b's cells after a's."""
    return DualGraph(n=a.n + b.n,
                     ptr=np.concatenate([a.ptr, a.ptr[-1] + b.ptr[1:]]),
                     adj=np.concatenate([a.adj, a.n + b.adj]))


def test_partition_edge_cases_are_balanced_and_repeatable():
    # one cell per part, odd k on irregular meshes, two components
    single = build_dual_graph(irregular_mesh(4, 1))
    cases = [(single, single.n)]
    cases += [(build_dual_graph(irregular_mesh(n, seed)), k)
              for n, seed in ((8, 1), (9, 2)) for k in (3, 5, 7)]
    two = _side_by_side(build_dual_graph(irregular_mesh(6, 1)),
                        build_dual_graph(structured_triangulation(5)))
    cases += [(two, k) for k in (2, 3, 5)]
    for g, k in cases:
        part = partition(g, k).part
        sizes = np.bincount(part)
        assert len(sizes) == k and sizes.min() >= 1
        assert sizes.max() - sizes.min() <= 1
        assert np.array_equal(partition(g, k).part, part)


def test_single_subdomain_is_identity():
    m = structured_triangulation(4)
    sub = single_subdomain(m)
    assert sub.n_own == m.triangles.shape[0]
    assert np.array_equal(sub.cells_l2g, np.arange(m.triangles.shape[0]))
    assert sub.neighbor_links == {}
    assert np.array_equal(sub.local_mesh.face_normals, m.face_normals)


def test_subdomains_partition_cells():
    m = structured_triangulation(8)
    g = build_dual_graph(m)
    pm = partition(g, 4)
    subs = build_subdomains(m, pm, build_diamonds(m), node_weights(m))
    owned = np.concatenate([s.own_cells for s in subs])
    assert np.array_equal(np.sort(owned), np.arange(m.triangles.shape[0]))
    for s in subs:
        assert np.array_equal(s.cells_l2g[:s.n_own], s.own_cells)
        assert not np.intersect1d(s.own_cells, s.halo_cells).size


def _split_cases():
    """(mesh, subdomains): the structured n = 8 grid at k = 4 and 5 and two
    irregular meshes at k = 2 and 3."""
    for m, k in ((structured_triangulation(8), 4),
                 (structured_triangulation(8), 5),
                 (irregular_mesh(8, 1), 2),
                 (irregular_mesh(9, 2), 3)):
        yield m, build_subdomains(m, partition(build_dual_graph(m), k),
                                  build_diamonds(m), node_weights(m))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_subdomains_slice_the_global_geometry(seed, k):
    # own-cell faces carry the global diamonds, and own-cell nodes
    # interpolate any field to the global node values, bit for bit
    m = irregular_mesh(16, seed)
    dia, w = build_diamonds(m), node_weights(m)
    u = np.random.default_rng(10 * seed + k).standard_normal(m.n_cells)
    ref = node_values(single_subdomain(m), Field(u), w)
    for s in build_subdomains(m, partition(build_dual_graph(m), k), dia, w):
        faces = np.unique(s.local_mesh.cell_faces[:s.n_own])
        g = s.face_l2g[faces]
        assert np.array_equal(s.diamonds.area[faces], dia.area[g])
        assert np.array_equal(s.diamonds.lr_vec[faces], dia.lr_vec[g])
        vals = node_values(s, Field(u[s.cells_l2g]), s.weights)
        assert np.array_equal(vals[s.local_mesh.triangles[:s.n_own]],
                              ref[m.triangles[s.own_cells]])


def test_halo_is_node_adjacent_closure():
    # the halo is exactly the cells outside the part that share a node with
    # an own cell, so own-cell gradients see complete node stencils
    for m, subs in _split_cases():
        incident = _node_adjacency(m)
        for s in subs:
            closure = {t for c in s.own_cells for v in m.triangles[c]
                       for t in incident[v]}
            assert set(s.halo_cells.tolist()) == closure - set(s.own_cells.tolist())
            assert np.array_equal(s.halo_cells, np.sort(s.halo_cells))


def test_local_geometry_matches_global():
    # subdomain meshes keep the global orientation and measure on every face
    # an own cell touches, the property the rank-count invariance rests on
    # (fringe faces at the halo rim may flip; no own-cell flux reads them)
    for m, subs in _split_cases():
        for s in subs:
            lm = s.local_mesh
            own_faces = np.unique(lm.cell_faces[:s.n_own])
            g = s.face_l2g[own_faces]
            assert np.array_equal(lm.face_normals[own_faces], m.face_normals[g])
            assert np.array_equal(lm.face_lengths[own_faces], m.face_lengths[g])
            assert np.array_equal(lm.areas, m.areas[s.cells_l2g])
            assert np.array_equal(lm.centroids, m.centroids[s.cells_l2g])


def test_neighbor_links_are_mirrored():
    for m, subs in _split_cases():
        for s in subs:
            for nbr, (send_idx, recv_idx) in s.neighbor_links.items():
                back_send, back_recv = subs[nbr].neighbor_links[s.rank]
                # what s sends from its own cells lands in nbr's halo slots
                assert len(send_idx) == len(back_recv)
                assert len(recv_idx) == len(back_send)
                sent_global = s.cells_l2g[send_idx]
                landed_global = subs[nbr].cells_l2g[back_recv]
                assert np.array_equal(sent_global, landed_global)
