"""End-to-end command-line flows and exit codes."""

import json
import os

import numpy as np
import pytest

from trifvm.cli import main

from conftest import write_timing_table

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
    # physics settings are config errors too, caught before any rank starts
    for physics, section in (
            ("streamer", "[streamer]\nmodel = bogus\n"),
            ("streamer", "[streamer]\nd_e = -1\n"),
            ("streamer", "[streamer]\nmodel = table\n"
                         f"table_path = {tmp_path / 'no_table.txt'}\n"),
            ("transport", "[transport]\ninit = bogus\n")):
        bad.write_text(f"[run]\nmesh_n = 8\nk = 2\nsteps = 1\n"
                       f"physics = {physics}\n\n{section}")
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    nobase = tmp_path / "nb.csv"
    nobase.write_text("cores,total\n2,100\n")
    assert main(["scaling", str(nobase), "--out",
                 str(tmp_path / "x.csv")]) == 2
    assert main(["genmesh", "0", str(tmp_path / "m.txt")]) == 2
    for sizes, bad in (("0", "0"), ("-4", "-4"), ("8,abc", "abc")):
        assert main(["convergence", "advect_gauss", "--sizes", sizes]) == 2
        assert f"'{bad}'" in capsys.readouterr().err


def test_exit_code_numeric_failure(tmp_path, capsys):
    frozen = tmp_path / "frozen.ini"
    frozen.write_text("[run]\nmesh_n = 8\nk = 2\nsteps = 3\n"
                      "physics = transport\n\n"
                      "[transport]\nvelocity = 0.0 0.0\ndiffusion = 0.0\n")
    assert main(["run", "--config", str(frozen),
                 "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err


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
