"""End-to-end command-line flows and exit codes."""

import json
import os

import numpy as np
import pytest

from trifvm.cli import main
from trifvm.mesh import load_mesh, save_mesh
from trifvm.vtk_io import read_vtk_cell_data

from conftest import holed_mesh, write_timing_table

TRANSPORT_INI = """\
[run]
mesh_n = 12
k = 2
steps = 10
physics = transport
output_every = 5
name = pulse

[transport]
velocity = 1.0 0.5
diffusion = 0.02
init = gaussian
center = 0.3 0.4
sigma = 0.1
amplitude = 1.0
"""

STREAMER_INI = """\
[run]
mesh_n = 12
k = 2
steps = 6
physics = streamer
name = spark

[streamer]
model = linear
mu_e = 1.0
d_e = 0.05
alpha = 0.5
seed_center = 0.5 0.5
seed_sigma = 0.1
seed_amplitude = 1.0

[potential_bc]
left = dirichlet 1.0
right = dirichlet 0.0
"""


def test_genmesh_partition_flow(tmp_path, capsys):
    mesh = tmp_path / "m.txt"
    assert main(["genmesh", "10", str(mesh)]) == 0
    out = tmp_path / "parts.json"
    assert main(["partition", str(mesh), "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 4 and len(doc["part"]) == 200
    assert doc["imbalance"] <= 1.10


def test_run_transport(tmp_path, capsys):
    cfg = tmp_path / "t.ini"
    cfg.write_text(TRANSPORT_INI)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "steps = 10" in stdout
    assert (out / "timings.csv").exists()
    assert (out / "run_summary.json").exists()
    frames = sorted(p.name for p in out.glob("pulse_*.vtk"))
    assert frames == ["pulse_0000.vtk", "pulse_0001.vtk", "pulse_0002.vtk"]


def test_run_streamer_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "s.ini"
    cfg.write_text(STREAMER_INI)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out),
                 "--ranks", "3"]) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["k"] == 3
    assert summary["factorizations"] == 1
    assert summary["solves"] == 6
    assert summary["solver"]["offdiag_pivots"] == 0
    assert summary["solver"]["fill"] > 0


def test_scaling_command(tmp_path, capsys):
    timings = write_timing_table(tmp_path / "t.csv")
    out = tmp_path / "report.csv"
    assert main(["scaling", str(timings), "--out", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert rows["total_speedup"][-1] == pytest.approx(572.2548, abs=1e-4)


@pytest.mark.parametrize("row", ["2,100", "2,,50", "2,100,50,7"])
def test_scaling_bad_row_exits_2(tmp_path, capsys, row):
    # a row with a missing, empty or extra cell is a bad input table
    timings = tmp_path / "t.csv"
    timings.write_text(f"cores,total,convection\n1,200,100\n{row}\n")
    assert main(["scaling", str(timings), "--out",
                 str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {timings}:3: ")


def test_convergence_command(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    assert main(["convergence", "poisson_sine", "--sizes", "8,16",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "7.628355e-03" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "n,linf,l2,order_linf,order_l2"
    assert len(lines) == 3


def test_convergence_empty_sizes(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    assert main(["convergence", "poisson_sine", "--sizes", "",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["n,linf,l2,order_linf,order_l2"]


DIFFUSION_INI = """\
[run]
mesh_n = 12
k = 4
steps = 50
physics = transport
output_every = 25
name = blob

[transport]
velocity = 0.0 0.0
diffusion = 0.1
init = gaussian
center = 0.5 0.5
sigma = 0.1
amplitude = 1.0
"""


def test_rerun_outputs_byte_identical(tmp_path, capsys):
    # field frames and the summary are deterministic; only the wall-clock
    # timing table is allowed to differ between identical runs
    from trifvm.vtk_io import read_vtk_cell_data
    cfg = tmp_path / "d.ini"
    cfg.write_text(DIFFUSION_INI)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    frames = sorted(p.name for p in outs[0].glob("*.vtk"))
    assert frames == ["blob_0000.vtk", "blob_0001.vtk", "blob_0002.vtk"]
    for name in frames:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    assert (outs[0] / "run_summary.json").read_bytes() == \
        (outs[1] / "run_summary.json").read_bytes()
    data = read_vtk_cell_data(outs[0] / "blob_0002.vtk")
    assert data["u"].shape == (2 * 12 * 12,)


def test_exit_code_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
    bad = tmp_path / "bad.ini"
    for key in ("bogus", "seed"):   # the partitioner takes no seed
        bad.write_text(f"[run]\nmesh_n = 8\n{key} = 1\n")
        assert main(["run", "--config", str(bad)]) == 2
    # [DEFAULT] is an unknown section: its keys reach no other section
    bad.write_text("[DEFAULT]\nsteps = 3\n\n[run]\nmesh_n = 8\n")
    assert main(["run", "--config", str(bad)]) == 2
    # physics settings are config errors too, caught before any rank starts
    unsorted = tmp_path / "unsorted.txt"
    unsorted.write_text("1.0 1.0 0.1 0.2\n0.5 1.0 0.1 0.2\n")
    for physics, section in (
            ("streamer", "[streamer]\nmodel = bogus\n"),
            ("streamer", "[streamer]\nd_e = -1\n"),
            ("streamer", "[streamer]\nmodel = table\n"
                         f"table_path = {tmp_path / 'no_table.txt'}\n"),
            ("streamer", "[streamer]\nmodel = table\n"
                         f"table_path = {unsorted}\n"),
            ("transport", "[transport]\ninit = bogus\n")):
        bad.write_text(f"[run]\nmesh_n = 8\nk = 2\nsteps = 1\n"
                       f"physics = {physics}\n\n{section}")
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    # a NaN timeout is bad input, found before any rank is forked
    bad.write_text("[run]\nmesh_n = 4\nk = 2\ntimeout_s = nan\n")
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "timeout_s must be positive" in capsys.readouterr().err
    nobase = tmp_path / "nb.csv"
    nobase.write_text("cores,total\n2,100\n")
    assert main(["scaling", str(nobase), "--out",
                 str(tmp_path / "x.csv")]) == 2
    assert main(["genmesh", "0", str(tmp_path / "m.txt")]) == 2
    for sizes, bad in (("0", "0"), ("-4", "-4"), ("8,abc", "abc")):
        assert main(["convergence", "advect_gauss", "--sizes", sizes]) == 2
        assert f"'{bad}'" in capsys.readouterr().err
    mesh = tmp_path / "m8.txt"
    assert main(["genmesh", "2", str(mesh)]) == 0   # 8 cells
    for k in ("0", "9"):
        assert main(["partition", str(mesh), k]) == 2
        assert "outside 1..8" in capsys.readouterr().err
    dangling = tmp_path / "dangling.txt"
    dangling.write_text("nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 5\n")
    assert main(["partition", str(dangling), "1"]) == 2
    assert "triangle references a node out of range" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    b"mesh_n = 8\n", b"[run\nmesh_n = 8\n", b"[run]\nsteps = 5\nsteps = 7\n",
    b"[run]\nsteps = 5\nSteps = 7\n", b"[run]\nname = \xff\n"])
def test_unreadable_config_exits_2(tmp_path, capsys, body):
    # what configparser rejects, or cannot decode, is a config error, not a
    # traceback
    bad = tmp_path / "bad.ini"
    bad.write_bytes(body)
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bc_label_not_on_the_mesh_exits_2(tmp_path, capsys):
    # any label may be named, so a typo is caught where the mesh is known
    bad = tmp_path / "typo.ini"
    bad.write_text("[run]\nmesh_n = 8\nsteps = 1\n\n[bc]\nmiddle = neumann\n")
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "middle" in capsys.readouterr().err


@pytest.mark.parametrize("pin", [128, -1])
def test_pin_cell_off_the_mesh_exits_2(tmp_path, capsys, pin):
    bad = tmp_path / "pin.ini"
    bad.write_text("[run]\nmesh_n = 8\nk = 2\nsteps = 1\nphysics = streamer"
                   f"\n\n[streamer]\npin_cell = {pin}\n")
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "pin_cell" in capsys.readouterr().err


def _frames_at_every_k(tmp_path, ini, ks=(1, 2, 3, 4)):
    """Run the config at each k of ks; the frames, by name, that all of
    them wrote byte for byte."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini)
    runs = []
    for k in ks:
        out = tmp_path / f"k{k}"
        assert main(["run", "--config", str(cfg), "--ranks", str(k),
                     "--out", str(out)]) == 0
        runs.append({p.name: p for p in sorted(out.glob("*.vtk"))})
    assert len(runs[0]) == 3
    for run in runs[1:]:
        assert list(run) == list(runs[0])
        for name, path in run.items():
            assert path.read_bytes() == runs[0][name].read_bytes(), name
    return runs[0]


def test_electrode_on_a_holed_mesh_runs_at_every_rank_count(tmp_path, capsys):
    # the hole's edges carry `electrode`; the unnamed outer sides are Neumann
    mesh = tmp_path / "holed.txt"
    save_mesh(holed_mesh(16), mesh)
    frames = _frames_at_every_k(tmp_path, f"""\
[run]
mesh_path = {mesh}
steps = 40
output_every = 20
name = hole
[transport]
velocity = 0.3 0.1
diffusion = 0.01
init = constant
[bc]
electrode = dirichlet 1.0
""")
    u = read_vtk_cell_data(frames["hole_0002.vtk"])["u"]
    assert np.isfinite(u).all() and u.max() > 0.1


def test_streamer_between_an_electrode_and_a_plate(tmp_path, capsys):
    mesh = tmp_path / "holed.txt"
    save_mesh(holed_mesh(16), mesh)
    frames = _frames_at_every_k(tmp_path, f"""\
[run]
mesh_path = {mesh}
physics = streamer
steps = 10
output_every = 5
name = spark
[streamer]
seed_center = 0.2 0.5
[potential_bc]
electrode = dirichlet 1.0
right = dirichlet 0.0
""")
    data = read_vtk_cell_data(frames["spark_0002.vtk"])
    assert all(np.isfinite(v).all() for v in data.values())
    v = data["potential"]
    assert 0.5 < v.max() <= 1.0 and 0.0 <= v.min() < 0.1


def test_bc_labels_keep_their_case(tmp_path, capsys):
    # a label is named as the mesh spells it; the other keys match in any
    # case
    mesh = tmp_path / "holed.txt"
    save_mesh(holed_mesh(16), mesh)
    mesh.write_text(mesh.read_text().replace(" electrode\n", " Electrode\n"))
    assert "Electrode" in load_mesh(mesh).face_labels
    run = f"""\
[run]
mesh_path = {mesh}
Steps = 20
output_every = 10
name = hole
[transport]
velocity = 0.3 0.1
Diffusion = 0.01
init = constant
"""
    frames = _frames_at_every_k(
        tmp_path, run + "[bc]\nElectrode = dirichlet 1.0\n", ks=(1, 2))
    u = read_vtk_cell_data(frames["hole_0002.vtk"])["u"]
    assert np.isfinite(u).all() and u.max() > 0.1
    bad = tmp_path / "lower.ini"
    bad.write_text(run + "[bc]\nelectrode = dirichlet 1.0\n")
    capsys.readouterr()
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "'electrode'" in capsys.readouterr().err


def test_a_mesh_file_with_default_labels_runs_without_a_bc_section(tmp_path,
                                                                   capsys):
    # edges a mesh file does not list read `default`: Neumann, as every
    # label no section names
    mesh = tmp_path / "partial.txt"
    save_mesh(holed_mesh(16), mesh)
    lines = mesh.read_text().splitlines()
    cut = lines.index(next(ln for ln in lines if ln.startswith("boundary")))
    kept = [ln for ln in lines[cut + 1:] if not ln.endswith(" left")]
    mesh.write_text("\n".join(lines[:cut] + [f"boundary {len(kept)}"] + kept)
                    + "\n")
    labels = set(load_mesh(mesh).face_labels)
    assert {"default", "electrode"} <= labels and "left" not in labels
    _frames_at_every_k(tmp_path, f"""\
[run]
mesh_path = {mesh}
steps = 20
output_every = 10
name = blob
[transport]
velocity = 0.3 0.1
diffusion = 0.01
center = 0.2 0.5
""")


def test_exit_code_numeric_failure(tmp_path, capsys):
    frozen = tmp_path / "frozen.ini"
    frozen.write_text("[run]\nmesh_n = 8\nk = 2\nsteps = 3\n"
                      "physics = transport\n\n"
                      "[transport]\nvelocity = 0.0 0.0\ndiffusion = 0.0\n")
    assert main(["run", "--config", str(frozen),
                 "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err
    # a sliver cell passes the mesh checks, and its diamond collapses
    sliver = tmp_path / "sliver.txt"
    sliver.write_text("nodes 4\n0 0\n1 0\n0.5 1e-17\n0.5 -1\n"
                      "triangles 2\n0 1 2\n1 0 3\n")
    cfg = tmp_path / "sliver.ini"
    cfg.write_text(f"[run]\nmesh_path = {sliver}\nsteps = 1\n")
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o2")]) == 3
    assert "diamond area" in capsys.readouterr().err


def test_a_mesh_file_with_a_non_finite_node_exits_2(tmp_path, capsys):
    # a NaN coordinate is bad input, not a numeric failure of the run
    mesh = tmp_path / "m.txt"
    assert main(["genmesh", "2", str(mesh)]) == 0
    text = mesh.read_text()
    assert "\n0.5 0.5\n" in text   # node 4, the centre
    mesh.write_text(text.replace("\n0.5 0.5\n", "\nnan 0.5\n"))
    cfg = tmp_path / "nan.ini"
    cfg.write_text(f"[run]\nmesh_path = {mesh}\nsteps = 1\n")
    for argv in (["partition", str(mesh), "2"],
                 ["run", "--config", str(cfg), "--out", str(tmp_path / "o")]):
        assert main(argv) == 2
        assert "node 4 has a non-finite coordinate" in capsys.readouterr().err


def test_a_mesh_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    mesh = tmp_path / "m.txt"
    assert main(["genmesh", "2", str(mesh)]) == 0
    mesh.write_bytes(mesh.read_bytes().replace(b" top\n", b" t\xe9te\n", 1))
    assert main(["partition", str(mesh), "2"]) == 2
    assert "not UTF-8 text: byte 0xe9" in capsys.readouterr().err


def test_exit_code_io_failure(tmp_path, capsys):
    assert main(["genmesh", "4", "/nonexistent_dir/m.txt"]) == 4


def test_unwritable_frame_exits_io_with_rank_step_phase(tmp_path, capsys):
    cfg = tmp_path / "d.ini"
    cfg.write_text("[run]\nmesh_n = 8\nk = 2\nsteps = 4\nphysics = transport\n"
                   "output_every = 2\nname = blob\n")
    out = tmp_path / "o"
    (out / "blob_0001.vtk").mkdir(parents=True)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io failure: rank 0 failed at step 1 "
                          "in phase 'output'")


def test_partition_of_missing_mesh(tmp_path, capsys):
    assert main(["partition", str(tmp_path / "nope.txt"), "2"]) == 4
