"""Mesh construction, geometry, diamond cells, node interpolation weights."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifvm.errors import ConfigError, NumericError, ParseError
from trifvm.mesh import (build_diamonds, build_mesh, load_mesh, node_weights,
                         save_mesh, structured_triangulation)
from trifvm.partition import single_subdomain
from trifvm.transport import (Field, diamond_stencil, face_gradients,
                              node_values)

from conftest import dirichlet_bc, irregular_mesh, validate_mesh


def test_structured_counts():
    n = 5
    m = structured_triangulation(n)
    assert m.triangles.shape == (2 * n * n, 3)
    assert m.points.shape == ((n + 1) * (n + 1), 2)
    # interior edges shared by 2 cells + 4n boundary edges
    assert m.face_cells.shape[0] == 3 * n * n + 2 * n


def test_euler_formula():
    for n in (2, 3, 7):
        m = structured_triangulation(n)
        # V - E + F = 1 for a planar triangulation of a disk-like region
        assert m.points.shape[0] - m.face_cells.shape[0] + m.triangles.shape[0] == 1


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=1, max_value=8))
def test_geometry_invariants(n):
    m = structured_triangulation(n)
    validate_mesh(m)
    assert np.isclose(m.areas.sum(), 1.0, rtol=0, atol=1e-13)
    # unit normals, positive lengths and areas
    assert np.allclose(np.hypot(m.face_normals[:, 0], m.face_normals[:, 1]),
                       1.0, atol=1e-13)
    assert (m.face_lengths > 0).all() and (m.areas > 0).all()


def test_normals_point_left_to_right():
    m = structured_triangulation(3)
    for f in range(m.face_cells.shape[0]):
        left, right = m.face_cells[f]
        other = m.centroids[right] if right >= 0 else m.face_midpoints[f]
        d = other - m.centroids[left]
        assert d @ m.face_normals[f] > 0


def test_divergence_of_constant_is_zero():
    # sum of signed face normals times lengths vanishes per cell
    m = structured_triangulation(4)
    flux = m.face_normals * m.face_lengths[:, None]
    per_cell = (flux[m.cell_faces] *
                m.cell_face_signs[:, :, None]).sum(axis=1)
    assert np.abs(per_cell).max() < 1e-13


def test_boundary_labels():
    m = structured_triangulation(4)
    labels = set(m.face_labels)
    assert {"left", "right", "top", "bottom"} <= labels
    boundary = m.face_cells[:, 1] < 0
    for f in np.flatnonzero(boundary):
        assert m.face_labels[f] != "interior"
        x, y = m.face_midpoints[f]
        side = m.face_labels[f]
        expect = {"left": x == 0.0, "right": x == 1.0,
                  "bottom": y == 0.0, "top": y == 1.0}[side]
        assert expect


def test_save_load_round_trip(tmp_path):
    # repr coordinates read back to the same bits, so saving the mesh read
    # back writes the same bytes
    for m in (structured_triangulation(3), irregular_mesh(8, seed=2)):
        p, again = tmp_path / "m.txt", tmp_path / "again.txt"
        save_mesh(m, p)
        back = load_mesh(p)
        save_mesh(back, again)
        assert again.read_bytes() == p.read_bytes()
        assert same_mesh(back, m)


def same_mesh(a, b):
    """Bit for bit the same nodes, cells, faces and labels."""
    return all(getattr(a, k).dtype == getattr(b, k).dtype
               and getattr(a, k).tobytes() == getattr(b, k).tobytes()
               for k in ("points", "triangles", "face_nodes", "face_cells",
                         "cell_faces", "cell_face_signs")) \
        and a.face_labels == b.face_labels


def test_build_mesh_rejects_bad_topology():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigError, match="node out of range"):
        build_mesh(pts, np.array([[0, 1, 5]]))
    with pytest.raises(ConfigError, match="non-positive signed area"):
        build_mesh(pts[:2], np.array([[0, 1, 1]]))  # repeated node
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError,
                           match="node 2 has a non-finite coordinate"):
            build_mesh(np.vstack([pts[:2], [bad, 1.0]]), np.array([[0, 1, 2]]))


# the edge (0, 1) and three apexes, 2 and 4 above it, 3 below
EDGE_PTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                     [0.5, 2.0]])


@pytest.mark.parametrize("tris, boundary, message", [
    ([[0, 1, 2], [1, 0, 3], [0, 1, 4]], None,
     "edge (0, 1) shared by more than two triangles"),
    ([[0, 1, 2], [0, 1, 4], [1, 0, 3]], None,
     "edge (0, 1) traversed twice in the same direction"),
    ([[0, 1, 2], [1, 0, 3]], {(1, 2): "a", (2, 3): "b"},
     "boundary declaration (2, 3) matches no edge"),
    ([[0, 1, 2], [1, 0, 3]], {(1, 2): "a", (0, 9): "b"},
     "boundary declaration (0, 9) matches no edge"),
    ([[0, 1, 2], [1, 0, 3]], {(1, 2): "a", (0, 1): "b"},
     "boundary declaration (0, 1) names an interior edge"),
    ([[0, 1, 2], [1, 0, 3]], {(1, 2): "a", (0, 2): "interior"},
     "boundary declaration (0, 2) is labelled 'interior'"),
])
def test_build_mesh_names_the_bad_edge(tris, boundary, message):
    pts = EDGE_PTS[:int(np.max(tris)) + 1]
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_mesh(pts, np.array(tris), boundary)


MESH_LINES = ["# two triangles", "nodes 4", "0 0", "1 0  # comment", "0.5 1",
              "", "0.5 -1", "triangles 2", "0 1 2", "1 0 3", "boundary 2",
              "1 2 top", "3 1 bottom"]


@pytest.mark.parametrize("edit, message, line", [
    ({3: "1 zz"}, "bad node row: 1 zz", 4),
    ({4: "0.5 1 3"}, "node row needs 2 fields, got 3", 5),
    ({8: "0 1.0 2"}, "bad triangle row: 0 1.0 2", 9),
    ({9: "1 0 99999999999999999999"}, "bad triangle row: 1 0 9999", 10),
    ({11: "x 2 top"}, "bad boundary row: x 2 top", 12),
    ({11: "1 2"}, "boundary row needs 3 fields, got 2", 12),
    ({9: None, 10: None, 11: None, 12: None},
     "file ends inside the triangle section", None),
    ({13: "extra 1"}, "unexpected trailing content 'extra 1'", 14),
    ({9: "1 0 2.7"}, "bad triangle row: 1 0 2.7", 10),
    ({12: "2 1 bottom"}, "boundary edge (1, 2) listed twice", 13),
    ({1: "nodes 4 4"}, "'nodes' header needs exactly one count", 2),
    ({1: "nodes x"}, "bad count 'x' in 'nodes' header", 2),
    ({1: "nodes -1"}, "negative count in 'nodes' header", 2),
    ({7: "tris 2"}, "expected section 'triangles', got 'tris'", 8),
    ({i: None for i in range(1, 13)},
     "expected 'nodes <count>', got end of file", None),
])
def test_load_mesh_names_the_bad_line(tmp_path, edit, message, line):
    lines = [edit.get(i, text) for i, text in enumerate(MESH_LINES)]
    lines += [edit[i] for i in sorted(edit) if i >= len(MESH_LINES)]
    path = tmp_path / "m.txt"
    path.write_text("\n".join(t for t in lines if t is not None) + "\n")
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        load_mesh(path)
    assert exc.value.line == line


# the same file with no comment or blank line, so that each bad row is
# named after numpy's reader refuses its section in one call
PLAIN_LINES = ["nodes 4", "0 0", "1 0", "0.5 1", "0.5 -1", "triangles 2",
               "0 1 2", "1 0 3", "boundary 2", "1 2 top", "3 1 bottom"]


@pytest.mark.parametrize("edit, message, line", [
    ({2: "1 zz"}, "bad node row: 1 zz", 3),
    ({3: "0.5 1 3"}, "node row needs 2 fields, got 3", 4),
    ({1: "0 0 0", 2: "1 0 0", 3: "0.5 1 0", 4: "0.5 -1 0"},
     "node row needs 2 fields, got 3", 2),
    ({0: "nodes 5"}, "bad node row: triangles 2", 6),
    ({6: "0 1.0 2"}, "bad triangle row: 0 1.0 2", 7),
    ({7: "1 0 2.7"}, "bad triangle row: 1 0 2.7", 8),
    ({7: "1 0 99999999999999999999"}, "bad triangle row: 1 0 9999", 8),
    ({7: "1 0"}, "triangle row needs 3 fields, got 2", 8),
    ({9: "x 2 top"}, "bad boundary row: x 2 top", 10),
    ({10: "2 1 bottom"}, "boundary edge (1, 2) listed twice", 11),
    ({11: "extra 1"}, "unexpected trailing content 'extra 1'", 12),
])
def test_load_mesh_names_the_bad_line_of_a_plain_file(tmp_path, edit, message,
                                                      line):
    lines = [edit.get(i, text) for i, text in enumerate(PLAIN_LINES)]
    lines += [edit[i] for i in sorted(edit) if i >= len(PLAIN_LINES)]
    path = tmp_path / "m.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        load_mesh(path)
    assert exc.value.line == line


def test_a_numpy_warning_hands_the_rows_to_pythons_int(tmp_path, monkeypatch):
    # numpy 1.24 to 1.26 read '2.7' in an int64 column as 2 and only warn
    real = np.loadtxt

    def lenient(text, dtype, **kw):
        if dtype is np.int64 and "converters" not in kw and "1 0 2.7" in text:
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
            text = [row.replace("2.7", "2") for row in text]
        return real(text, dtype, **kw)

    monkeypatch.setattr(np, "loadtxt", lenient)
    path = tmp_path / "m.txt"
    path.write_text("\n".join(PLAIN_LINES).replace("1 0 3", "1 0 2.7") + "\n")
    with pytest.raises(ParseError, match=re.escape("bad triangle row: 1 0 2.7")) \
            as exc:
        load_mesh(path)
    assert exc.value.line == 8


@pytest.mark.parametrize("ends", ["\n", "\r\n"])
def test_load_mesh_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, ends):
    path = tmp_path / "m.txt"
    path.write_bytes(ends.join(MESH_LINES[:11] + ["1 2 t"]).encode()
                     + b"\xe9te" + ends.encode())
    with pytest.raises(ParseError, match="not UTF-8 text: byte 0xe9") as exc:
        load_mesh(path)
    assert exc.value.line == 12 and str(path) in str(exc.value)


def _edit_rows(section, count, row):
    """Change each of the first count rows of a section by row(text)."""
    def edit(text):
        head = text.index(section + " ")
        start = text.index("\n", head) + 1
        lines = text[start:].split("\n")
        return text[:start] + "\n".join([row(t) for t in lines[:count]]
                                        + lines[count:])
    return edit


def _underscore(row):   # '12' -> '1_2', '0.25' -> '0.2_5'
    return " ".join(re.sub(r"(\d)(\d)", r"\1_\2", t, count=1) for t in row.split())


def _arabic(row):       # ASCII digits to Arabic-Indic ones
    return row.translate({ord(d): 0x660 + int(d) for d in "0123456789"})


# each edit, whether numpy's reader takes it in one call, and whether
# the mesh changes
FILE_EDITS = {
    "plain": (lambda t: t, True, False),
    "comments": (lambda t: "# head\n" + t.replace(
        "\ntriangles", "\n# the cells\n  # next\ntriangles", 1).replace(
        "\nboundary", "  # last cell\nboundary", 1), True, False),
    "blank_lines": (_edit_rows("nodes", 3, lambda r: r + "\n\n \t "), True,
                    False),
    "crlf": (lambda t: t.replace("\n", "\r\n"), True, False),
    "cr": (lambda t: t.replace("\n", "\r"), True, False),
    "no_trailing_newline": (lambda t: t.rstrip("\n"), True, False),
    "no_boundary": (lambda t: t[:t.index("boundary")], True, True),
    "boundary_0": (lambda t: t[:t.index("boundary")] + "boundary 0\n", True,
                   True),
    "underscores": (_edit_rows("triangles", 40, _underscore), False, False),
    "underscored_nodes": (_edit_rows("nodes", 40, _underscore), False, False),
    "arabic_digits": (_edit_rows("triangles", 5, _arabic), False, False),
    "arabic_nodes": (_edit_rows("nodes", 5, _arabic), False, False),
}


@pytest.mark.parametrize("name", list(FILE_EDITS))
def test_numpys_reader_reads_what_pythons_scalars_read(tmp_path, monkeypatch,
                                                       name):
    edit, one_call, changes = FILE_EDITS[name]
    plain = tmp_path / "plain.txt"
    save_mesh(irregular_mesh(6, seed=4), plain)
    path = tmp_path / "m.txt"
    path.write_bytes(edit(plain.read_text()).encode())
    real, calls = np.loadtxt, []

    def traced(text, dtype, **kw):
        calls.append("converters" in kw)
        return real(text, dtype, **kw)

    monkeypatch.setattr(np, "loadtxt", traced)
    m = load_mesh(path)
    assert (not any(calls)) == one_call

    def scalars_only(text, dtype, **kw):   # every value by Python's float or int
        if "converters" not in kw:
            raise ValueError("refused")
        return real(text, dtype, **kw)

    monkeypatch.setattr(np, "loadtxt", scalars_only)
    assert same_mesh(m, load_mesh(path))
    assert same_mesh(m, load_mesh(plain)) != changes


def test_load_mesh_reads_sections_comments_and_labels(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("\n".join(MESH_LINES) + "\n")
    m = load_mesh(path)
    assert np.array_equal(m.points, [[0, 0], [1, 0], [0.5, 1], [0.5, -1]])
    assert np.array_equal(m.triangles, [[0, 1, 2], [1, 0, 3]])
    labels = {tuple(sorted(m.face_nodes[f])): m.face_labels[f]
              for f in m.boundary_faces()}
    assert labels == {(1, 2): "top", (1, 3): "bottom", (0, 2): "default",
                      (0, 3): "default"}


def test_diamond_linear_exactness():
    # the two-cell-plus-two-node gradient is exact for affine fields
    for m in (structured_triangulation(6), irregular_mesh(8, seed=3)):
        sub = single_subdomain(m)
        a, b, c = 0.7, -1.3, 2.1
        lin = lambda x, y: a + b * x + c * y
        u = Field(lin(m.centroids[:, 0], m.centroids[:, 1]))
        bc = dirichlet_bc(lin)
        sten = diamond_stencil(m, bc)
        grad = face_gradients(sub, sten, u)
        assert np.abs(grad[:, 0] - b).max() < 1e-12
        assert np.abs(grad[:, 1] - c).max() < 1e-12


def test_node_weights_reproduce_linear():
    # exact wherever the least-squares stencil holds; the corner stencils
    # degenerate and fall back, for the boundary treatment to pin instead
    m = structured_triangulation(5)
    sub = single_subdomain(m)
    w = node_weights(m)
    lin = lambda x, y: 2.0 - 0.5 * x + 3.0 * y
    u = Field(lin(m.centroids[:, 0], m.centroids[:, 1]))
    vals = node_values(sub, u, w)
    exact = lin(m.points[:, 0], m.points[:, 1])
    fallback = _lstsq_weights(m)[1]
    assert np.abs(vals[~fallback] - exact[~fallback]).max() < 1e-12
    corners = {0, 5, 30, 35}
    assert set(np.flatnonzero(fallback)) <= corners


def _lstsq_weights(mesh):
    """Per-node reference: np.linalg.lstsq on each stencil, in local order."""
    ref, fallback = [], []
    for n in range(mesh.n_nodes):
        cells = np.flatnonzero((mesh.triangles == n).any(axis=1))
        d = mesh.centroids[cells] - mesh.points[n]
        dist = np.hypot(d[:, 0], d[:, 1])
        g = np.vstack([np.ones(len(cells)), (d / dist.mean()).T])
        w, _, rank, _ = np.linalg.lstsq(g, [1.0, 0.0, 0.0], rcond=1e-9)
        fallback.append(rank < 3)
        ref.append(1.0 / dist / np.sum(1.0 / dist) if rank < 3 else w)
    return np.concatenate(ref), np.array(fallback)


# a fan of three triangles around node 0 whose centroids are collinear:
# node 0 has a full stencil of rank 2, which only the SVD can reject
FAN = build_mesh([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 5.0]],
                 np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4]]))


@pytest.mark.parametrize("mesh", [structured_triangulation(6),
                                  irregular_mesh(8, seed=1),
                                  irregular_mesh(10, seed=2), FAN],
                         ids=["structured", "irregular1", "irregular2", "fan"])
def test_batched_node_weights_match_per_node_lstsq(mesh):
    w = node_weights(mesh)
    ref, fallback = _lstsq_weights(mesh)
    assert np.abs(w.weights - ref).max() < 1e-13
    if mesh is FAN:
        assert fallback[0]


def test_degenerate_diamond_raises():
    # a sliver cell passes the mesh checks, and the diamond across its
    # shared face collapses
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-17], [0.5, -1.0]])
    mesh = build_mesh(pts, np.array([[0, 1, 2], [1, 0, 3]]))
    with pytest.raises(NumericError, match="diamond area"):
        build_diamonds(mesh)
