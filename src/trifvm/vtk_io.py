"""Legacy-ASCII VTK output (unstructured grid, triangle cells, cell data).

Plain text on purpose: the files stay greppable and the writer needs no
third-party reader library.  All floats use repr-faithful %.17g so two runs
of the same simulation produce byte-identical files.

The mesh block (everything from POINTS through the CELL_TYPES lines) does
not change between frames, so it is formatted once per mesh and reused by
every later frame; a frame then costs only its fields.  The bytes are the
same as formatting every line anew.
"""

from __future__ import annotations

import numpy as np

from .mesh import Mesh

VTK_TRIANGLE = 5

# One-slot cache: (mesh, its formatted mesh block).  Mesh arrays are
# read-only after construction, so the text stays valid for that object.
# The tuple is read once into a local and replaced whole, so writers on
# other threads never pair one mesh with another mesh's text.
_mesh_block: tuple = (None, "")


def _mesh_text(mesh: Mesh) -> str:
    """The POINTS, CELLS and CELL_TYPES lines of mesh, built once per mesh."""
    global _mesh_block
    cached, text = _mesh_block
    if cached is not mesh:
        x, y = (map("%.17g".__mod__, col.tolist()) for col in mesh.points.T)
        n = mesh.n_cells
        text = "".join([
            f"POINTS {mesh.n_nodes} double\n",
            "".join(map("{} {} 0\n".format, x, y)),
            f"CELLS {n} {4 * n}\n",
            "".join(map("3 {} {} {}\n".format, *mesh.triangles.T.tolist())),
            f"CELL_TYPES {n}\n",
            f"{VTK_TRIANGLE}\n" * n])
        _mesh_block = (mesh, text)
    return text


def write_vtk(path, mesh: Mesh, cell_data: dict | None = None,
              title: str = "trifvm fields") -> None:
    """Write the mesh and per-cell scalar arrays as a legacy VTK file."""
    cell_data = cell_data or {}
    for name, arr in cell_data.items():
        if len(arr) != mesh.n_cells:
            raise ValueError(f"cell array '{name}' has length {len(arr)}, "
                             f"mesh has {mesh.n_cells} cells")

    geometry = _mesh_text(mesh)
    # written piece by piece: the whole file is never one string
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n")
        fh.write(geometry)
        if cell_data:
            fh.write(f"CELL_DATA {mesh.n_cells}\n")
        for name in sorted(cell_data):
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            values = np.asarray(cell_data[name], dtype=np.float64).tolist()
            fh.write("\n".join(map("%.17g".__mod__, values)))
            fh.write("\n")


def read_vtk_cell_data(path) -> dict:
    """Read back the scalar cell arrays of a file written by write_vtk.

    Round-trip helper for tests; not a general VTK reader.
    """
    out = {}
    with open(path) as fh:
        lines = fh.read().split("\n")
    i = 0
    n_cells = None
    while i < len(lines):
        tok = lines[i].split()
        if tok[:1] == ["CELL_DATA"]:
            n_cells = int(tok[1])
        elif tok[:1] == ["SCALARS"]:
            name = tok[1]
            vals = lines[i + 2:i + 2 + n_cells]
            out[name] = np.array([float(v) for v in vals])
            i += 1 + n_cells
        i += 1
    return out
