"""INI config parsing, validation, and the VTK writer."""

import re
from pathlib import Path

import numpy as np
import pytest

from trifvm.cli import main
from trifvm.config import (RunConfig, StreamerConfig, TransportConfig,
                           load_coefficient_table, load_config)
from trifvm.errors import ConfigError
from trifvm.mesh import structured_triangulation
from trifvm.vtk_io import read_vtk_cell_data, write_vtk

TRANSPORT_INI = """\
[run]
mesh_n = 24
k = 4
steps = 30
cfl = 0.3
physics = transport
output_every = 10
out_dir = outdir
name = demo
timeout_s = 90

[transport]
velocity = 1.0 0.5
diffusion = 0.02
init = gaussian
center = 0.3 0.4
sigma = 0.08
amplitude = 2.0

[bc]
left = dirichlet 0.0
right = neumann
bottom = dirichlet 1.5
"""

STREAMER_INI = """\
[run]
mesh_n = 16
k = 2
steps = 5
physics = streamer

[streamer]
model = linear
mu_e = 1.0
d_e = 0.05
alpha = 0.5
seed_center = 0.5 0.5
seed_sigma = 0.06
seed_amplitude = 1.0
ion_amplitude = 1.02

[potential_bc]
left = dirichlet 1.0
right = dirichlet 0.0
"""


def _load(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return load_config(p)


def test_transport_round_trip(tmp_path):
    cfg = _load(tmp_path, TRANSPORT_INI)
    assert cfg.mesh_n == 24 and cfg.k == 4
    assert cfg.steps == 30 and cfg.cfl == 0.3 and cfg.timeout_s == 90
    assert cfg.physics == "transport" and cfg.name == "demo"
    t = cfg.transport
    assert t.velocity == (1.0, 0.5) and t.diffusion == 0.02
    assert t.center == (0.3, 0.4) and t.sigma == 0.08 and t.amplitude == 2.0
    assert t.bc["left"] == ("dirichlet", 0.0)
    assert t.bc["right"] == ("neumann",)
    assert t.bc["top"] == ("neumann",)  # unnamed side keeps the default
    assert t.bc["bottom"] == ("dirichlet", 1.5)
    cfg.validate()


def test_streamer_round_trip(tmp_path):
    cfg = _load(tmp_path, STREAMER_INI)
    s = cfg.streamer
    assert cfg.physics == "streamer"
    assert s.ion_amplitude == 1.02 and s.seed_sigma == 0.06
    assert s.potential_bc["left"] == ("dirichlet", 1.0)
    assert s.potential_bc["top"] == ("neumann",)
    assert s.species_bc["left"] == ("neumann",)
    cfg.validate()


def test_readme_sample_config_runs(tmp_path):
    # the README's config block, verbatim: its empty values keep defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    p = tmp_path / "run.ini"
    p.write_text(block)
    cfg = load_config(p)
    assert cfg.mesh_path is None and cfg.dt is None and cfg.out_dir is None
    assert (cfg.mesh_n, cfg.k, cfg.steps) == (16, 1, 10)
    assert cfg.streamer.table_path is None and cfg.streamer.pin_cell is None
    assert cfg.streamer.ion_amplitude is None
    assert cfg.transport.bc == {"left": ("neumann",),
                                "right": ("dirichlet", 2.0),
                                "top": ("neumann",), "bottom": ("neumann",)}
    assert cfg.streamer.species_bc == cfg.transport.bc
    assert cfg.streamer.potential_bc["left"] == ("dirichlet", 1.0)
    assert cfg.streamer.potential_bc["right"] == ("dirichlet", 0.0)
    assert main(["run", "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("body", [
    "[run]\nmesh_n = 8\nbogus = 1\n",
    "[run]\nmesh_n = 8\n\n[mystery]\nx = 1\n",
    "[run]\nmesh_n = 8\n\n[bc]\nleft = sticky\n",
    "[run]\nmesh_n = 8\n\n[bc]\nmiddle = neumann\n",
    "[run]\nmesh_n = 8\n\n[bc]\nleft = dirichlet\n",
    "[run]\nmesh_n = 8\nk = zero\n",
])
def test_rejects_malformed_input(tmp_path, body):
    with pytest.raises(ConfigError):
        _load(tmp_path, body)


def test_missing_file_raises():
    with pytest.raises(ConfigError):
        load_config("/no/such/config.ini")


@pytest.mark.parametrize("patch", [
    dict(k=0), dict(steps=-1), dict(cfl=0.0), dict(physics="magnets"),
    dict(mesh_n=0), dict(output_every=-2), dict(timeout_s=0.0),
])
def test_validate_rejects(patch):
    cfg = RunConfig(mesh_n=8, transport=TransportConfig(velocity=(1.0, 0.0)))
    for key, val in patch.items():
        setattr(cfg, key, val)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_ranks_beyond_one_need_fork(monkeypatch):
    # ranks 1..k-1 are forked processes: without os.fork only k = 1 runs
    import os
    monkeypatch.delattr(os, "fork")
    RunConfig(k=1).validate()
    with pytest.raises(ConfigError, match="os.fork"):
        RunConfig(k=2).validate()


def test_streamer_table_model_needs_table():
    cfg = RunConfig(mesh_n=8, physics="streamer",
                    streamer=StreamerConfig(model="table"))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_load_coefficient_table(tmp_path):
    p = tmp_path / "coeff.txt"
    p.write_text("# |E|  mu  D  alpha\n0.0 1.0 0.1 0.0\n2.0 3.0 0.3 4.0\n")
    tab = load_coefficient_table(p)
    assert tab.shape == (2, 4)
    assert tab[1, 3] == 4.0


def test_vtk_round_trip(tmp_path):
    mesh = structured_triangulation(4)
    rng = np.random.default_rng(3)
    data = {"density": rng.standard_normal(mesh.triangles.shape[0]),
            "potential": rng.standard_normal(mesh.triangles.shape[0])}
    p = tmp_path / "f.vtk"
    write_vtk(p, mesh, cell_data=data)
    back = read_vtk_cell_data(p)
    assert sorted(back) == ["density", "potential"]
    for key in data:  # %.17g keeps float64 exactly
        assert np.array_equal(back[key], data[key])
    txt = p.read_text()
    assert txt.startswith("# vtk DataFile Version 3.0")
    assert "DATASET UNSTRUCTURED_GRID" in txt
    assert txt.count("LOOKUP_TABLE default") == 2


def test_vtk_geometry_block(tmp_path):
    mesh = structured_triangulation(2)
    p = tmp_path / "g.vtk"
    write_vtk(p, mesh)
    txt = p.read_text().splitlines()
    n_pts = mesh.points.shape[0]
    n_cells = mesh.triangles.shape[0]
    assert f"POINTS {n_pts} double" in txt
    assert f"CELLS {n_cells} {4 * n_cells}" in txt
    idx = txt.index("CELL_TYPES " + str(n_cells))
    types = txt[idx + 1:idx + 1 + n_cells]
    assert all(t == "5" for t in types)
