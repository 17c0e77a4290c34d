"""INI config parsing, validation, and the VTK writer."""

import configparser
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from trifvm.cli import main
from trifvm.config import (RunConfig, StreamerConfig, TransportConfig,
                           load_coefficient_table, load_config)
from trifvm.errors import ConfigError
from trifvm.mesh import structured_triangulation
from trifvm.transport import BC_NEUMANN, classify_faces
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


def _kinds(bc, label):
    """The BC codes that bc gives the faces labelled `label`."""
    mesh = structured_triangulation(4)
    faces = [f for f, lab in enumerate(mesh.face_labels) if lab == label]
    return classify_faces(mesh, bc)[faces]


def test_transport_round_trip(tmp_path):
    cfg = _load(tmp_path, TRANSPORT_INI)
    assert cfg.mesh_n == 24 and cfg.k == 4
    assert cfg.steps == 30 and cfg.cfl == 0.3 and cfg.timeout_s == 90
    assert cfg.physics == "transport" and cfg.name == "demo"
    t = cfg.transport
    assert t.velocity == (1.0, 0.5) and t.diffusion == 0.02
    assert t.center == (0.3, 0.4) and t.sigma == 0.08 and t.amplitude == 2.0
    assert cfg.bc["left"] == ("dirichlet", 0.0)
    assert cfg.bc["right"] == ("neumann",)
    assert "top" not in cfg.bc  # an unnamed label is Neumann
    assert (_kinds(cfg.bc, "top") == BC_NEUMANN).all()
    assert cfg.bc["bottom"] == ("dirichlet", 1.5)
    cfg.validate()


def test_streamer_round_trip(tmp_path):
    cfg = _load(tmp_path, STREAMER_INI)
    s = cfg.streamer
    assert cfg.physics == "streamer"
    assert s.ion_amplitude == 1.02 and s.seed_sigma == 0.06
    assert s.potential_bc["left"] == ("dirichlet", 1.0)
    assert "top" not in s.potential_bc  # an unnamed label is Neumann
    assert (_kinds(s.potential_bc, "top") == BC_NEUMANN).all()
    assert cfg.bc == {}   # no [bc] section: every side is Neumann
    assert (_kinds(cfg.bc, "left") == BC_NEUMANN).all()
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
    assert cfg.bc == {"left": ("neumann",), "right": ("dirichlet", 2.0)}
    assert cfg.streamer.potential_bc["left"] == ("dirichlet", 1.0)
    assert cfg.streamer.potential_bc["right"] == ("dirichlet", 0.0)
    assert main(["run", "--config", str(p), "--out",
                 str(tmp_path / "out")]) == 0
    # it shows every key: each field of the three records but the boundary
    # maps and the nested records
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    for section, record in (("run", RunConfig),
                            ("transport", TransportConfig),
                            ("streamer", StreamerConfig)):
        keys = {f.name for f in fields(record)} \
            - {"bc", "potential_bc", "transport", "streamer"}
        assert set(parser[section]) == keys, section


@pytest.mark.parametrize("body", [
    "[run]\nmesh_n = 8\nbogus = 1\n",
    "[run]\nmesh_n = 8\n\n[mystery]\nx = 1\n",
    "[run]\nmesh_n = 8\n\n[bc]\nleft = sticky\n",
    "[run]\nmesh_n = 8\n\n[bc]\nleft = dirichlet\n",
    "[run]\nmesh_n = 8\nk = zero\n",
    "mesh_n = 8\n",                              # no section header
    "[run\nmesh_n = 8\n",
    "[run]\nmesh_n = 8\n[transport\n",
    "[run]\nsteps = 5\nsteps = 7\n",
    "[run]\nsteps = 5\nSTEPS = 7\n",            # the same key in any case
    "[run]\nsteps = 5\n\n[RUN]\nk = 2\n",       # the same section
    "[run]\nname = 50%\n",                      # configparser interpolation
    # [DEFAULT] is an unknown section, not keys merged into every section
    "[DEFAULT]\nsteps = 3\n\n[run]\nmesh_n = 8\n",
    "[DEFAULT]\nsteps = 3\n\n[run]\nmesh_n = 8\n\n[transport]\n"
    "diffusion = 0.2\n",
    "[DEFAULT]\nsteps = 3\n\n[run]\nmesh_n = 8\n\n[bc]\nleft = neumann\n",
    "[run]\ncfl = x\n",                         # not a number
    "[transport]\nvelocity = 1\n",              # not two numbers
    "[transport]\nsigma = 0\n",
    # a NaN fails every check, as a number out of range does
    "[transport]\nsigma = nan\n",
    "[streamer]\nseed_sigma = nan\n",
    "[run]\nphysics = streamer\n\n[streamer]\nd_e = nan\n",
])
def test_rejects_malformed_input(tmp_path, body):
    with pytest.raises(ConfigError):
        _load(tmp_path, body)


def test_section_names_match_in_any_case(tmp_path):
    cfg = _load(tmp_path, "[RUN]\nSteps = 3\n\n[Transport]\ndiffusion = 0.2"
                          "\n\n[BC]\nLeft = dirichlet 1.0\n")
    assert cfg.steps == 3 and cfg.transport.diffusion == 0.2
    assert cfg.bc == {"Left": ("dirichlet", 1.0)}   # label case kept


def test_missing_file_raises():
    with pytest.raises(ConfigError):
        load_config("/no/such/config.ini")


@pytest.mark.parametrize("patch", [
    dict(k=0), dict(steps=-1), dict(cfl=0.0), dict(physics="magnets"),
    dict(mesh_n=0), dict(output_every=-2), dict(timeout_s=0.0),
    dict(dt=0.0), dict(dt=float("nan")), dict(timeout_s=float("nan")),
])
def test_validate_rejects(patch):
    cfg = RunConfig(mesh_n=8, transport=TransportConfig(velocity=(1.0, 0.0)))
    for key, val in patch.items():
        setattr(cfg, key, val)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize("eps", ["0", "-1", "nan"])
def test_streamer_eps_must_be_positive(tmp_path, capsys, eps):
    # the charge source divides by eps: a streamer run without eps > 0 is a
    # config error (exit 2) before any mesh is read, not a rank's failure
    body = f"[run]\nphysics = streamer\n\n[streamer]\neps = {eps}\n"
    with pytest.raises(ConfigError, match="eps must be positive"):
        _load(tmp_path, body)
    assert main(["run", "--config", str(tmp_path / "cfg.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "eps" in capsys.readouterr().err
    # a transport run does not read eps
    RunConfig(streamer=StreamerConfig(eps=float(eps))).validate()


@pytest.mark.parametrize("key, body", [
    ("velocity", "[transport]\nvelocity = nan 0\n"),
    ("velocity", "[transport]\nvelocity = 0 inf\n"),
    ("diffusion", "[transport]\ndiffusion = nan\n"),
    ("diffusion", "[transport]\ndiffusion = inf\n"),
    ("mu_e", "[run]\nphysics = streamer\n\n[streamer]\nmu_e = nan\n"),
    ("alpha", "[run]\nphysics = streamer\n\n[streamer]\nalpha = -inf\n"),
    ("d_e", "[run]\nphysics = streamer\n\n[streamer]\nd_e = inf\n"),
    ("dt", "[run]\ndt = inf\n"),
    ("q_e", "[run]\nphysics = streamer\n\n[streamer]\nq_e = nan\n"),
    ("seed_amplitude",
     "[run]\nphysics = streamer\n\n[streamer]\nseed_amplitude = nan\n"),
    ("seed_center",
     "[run]\nphysics = streamer\n\n[streamer]\nseed_center = nan 0.5\n"),
    ("ion_amplitude",
     "[run]\nphysics = streamer\n\n[streamer]\nion_amplitude = inf\n"),
    ("amplitude", "[transport]\namplitude = nan\n"),
    ("center", "[transport]\ncenter = 0.5 nan\n"),
    ("constant", "[transport]\ninit = constant\nconstant = inf\n"),
])
def test_a_non_finite_setting_exits_2_naming_its_key(tmp_path, capsys, key,
                                                     body):
    # found before any rank starts, not as a collapsed step or a non-finite
    # field at exit 3
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        _load(tmp_path, body)
    assert main(["run", "--config", str(tmp_path / "cfg.ini"),
                 "--out", str(tmp_path / "o")]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err


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


BAD_TABLES = {
    "one_row": "0.0 1.0 0.1 0.0\n",
    "three_columns": "0.0 1.0 0.1\n2.0 3.0 0.3\n",
    "descending": "1.0 1.0 0.1 0.2\n0.5 1.0 0.1 0.2\n",
    "nan": "0.0 1.0 0.1 0.0\n2.0 nan 0.3 4.0\n",
    "negative_d_e": "0.0 1.0 -0.1 0.0\n2.0 3.0 0.3 4.0\n",
}


@pytest.mark.parametrize("name", sorted(BAD_TABLES))
def test_load_coefficient_table_rejects_bad_tables(tmp_path, name):
    p = tmp_path / "coeff.txt"
    p.write_text(BAD_TABLES[name])
    with pytest.raises(ConfigError):
        load_coefficient_table(p)


@pytest.mark.parametrize("text", ["", "# |E|  mu  D  alpha\n\n",
                                  "0.0 1.0 0.1 0.0\n"])
def test_short_coefficient_table_raises_without_a_warning(tmp_path, text):
    p = tmp_path / "coeff.txt"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"\(rows >= 2\) x 4"):
            load_coefficient_table(p)


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
