"""VTK writer: exact bytes against a per-line reference, per-mesh geometry."""

import numpy as np
import pytest

from trifvm.mesh import structured_triangulation
from trifvm.vtk_io import read_vtk_cell_data, write_vtk

from conftest import irregular_mesh


def reference_vtk(mesh, cell_data, title):
    """The writer's format built one line at a time with %.17g."""
    fmt = lambda x: "%.17g" % float(x)  # noqa: E731
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_nodes} double"]
    for x, y in mesh.points:
        lines.append(f"{fmt(x)} {fmt(y)} 0")
    lines.append(f"CELLS {mesh.n_cells} {4 * mesh.n_cells}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines.extend(["5"] * mesh.n_cells)
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_cells}")
        for name in sorted(cell_data):
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(fmt(v) for v in np.asarray(cell_data[name]))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("with_fields", [True, False], ids=["fields", "bare"])
def test_bytes_equal_the_per_line_reference(tmp_path, with_fields):
    mesh = irregular_mesh(8, 3)
    rng = np.random.default_rng(5)
    data = {"u": rng.standard_normal(mesh.n_cells) * 1e-7,
            "n_e": np.exp(rng.standard_normal(mesh.n_cells))} \
        if with_fields else {}
    p = tmp_path / "f.vtk"
    for _ in range(2):  # the second frame reuses the formatted mesh block
        write_vtk(p, mesh, data, title="frame")
        assert p.read_bytes() == reference_vtk(mesh, data, "frame")


def test_each_mesh_gets_its_own_geometry(tmp_path):
    a, b = irregular_mesh(6, 1), structured_triangulation(5)
    for tag, mesh in (("a1", a), ("b", b), ("a2", a)):
        data = {"u": np.arange(mesh.n_cells, dtype=float)}
        write_vtk(tmp_path / f"{tag}.vtk", mesh, data)
        assert (tmp_path / f"{tag}.vtk").read_bytes() == \
            reference_vtk(mesh, data, "trifvm fields")


def test_cell_data_round_trips_exactly(tmp_path):
    mesh = irregular_mesh(8, 3)
    rng = np.random.default_rng(11)
    data = {"u": rng.standard_normal(mesh.n_cells),
            "tiny": rng.standard_normal(mesh.n_cells) * 1e-300,
            "big": rng.standard_normal(mesh.n_cells) * 1e300}
    p = tmp_path / "r.vtk"
    write_vtk(p, mesh, data)
    back = read_vtk_cell_data(p)
    assert sorted(back) == sorted(data)
    for name, arr in data.items():
        assert np.array_equal(back[name], arr)
