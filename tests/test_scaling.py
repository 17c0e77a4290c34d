"""Duration parsing and the speedup/efficiency pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trifvm.cli import main
from trifvm.errors import ConfigError, ParseError
from trifvm.scaling import (compute_scaling, parse_duration, read_timings_csv,
                            write_scaling_csv)

from conftest import write_timing_table


def test_parse_duration_formats():
    assert parse_duration("49 h 54 min 48 s") == 49 * 3600 + 54 * 60 + 48
    assert parse_duration("00 h 00 min 18 s") == 18.0
    assert parse_duration("12.5") == 12.5
    assert parse_duration("5 min") == 300.0
    assert parse_duration("2h") == 7200.0
    assert parse_duration("1.5 s") == 1.5
    assert parse_duration("1h30min") == 5400.0


@pytest.mark.parametrize("bad", ["", "abc", "4 min 2 h", "h", "--3 s"])
def test_parse_duration_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_duration(bad)


@settings(max_examples=50, deadline=None)
@given(h=st.integers(min_value=0, max_value=99),
       m=st.integers(min_value=0, max_value=59),
       s=st.integers(min_value=0, max_value=59))
def test_parse_duration_round_trip(h, m, s):
    text = f"{h:02d} h {m:02d} min {s:02d} s"
    assert parse_duration(text) == h * 3600 + m * 60 + s


def test_pipeline_reproduces_hand_computed_spots(tmp_path):
    path = write_timing_table(tmp_path / "t.csv")
    records = read_timings_csv(path)
    assert len(records) == 11
    assert records[0].times["total"] == 179688.0
    assert records[-1].times["linear_solver"] == 203.0
    rows = compute_scaling(records, base_cores=1)
    by = {r.cores: r for r in rows}
    # hand: 179688 / 3701 and 179688 / 314
    assert by[64].speedup["total"] == pytest.approx(48.5512, abs=1e-4)
    assert by[1024].speedup["total"] == pytest.approx(572.2548, abs=1e-4)
    # hand: 122264 / 203
    assert by[1024].speedup["linear_solver"] == pytest.approx(602.2857,
                                                              abs=1e-4)
    assert by[64].efficiency["total"] == pytest.approx(75.8613, abs=1e-4)
    assert by[1024].efficiency["total"] == pytest.approx(55.8843, abs=1e-4)
    assert by[1].speedup["total"] == 1.0
    assert by[1].efficiency["total"] == 100.0
    assert [r.cores for r in rows] == sorted(by)
    assert by[128].sp_ideal == 128.0


def test_nonunit_base():
    path_rows = [(4, {"total": 100.0}), (8, {"total": 60.0})]
    from trifvm.scaling import ScalingRecord
    records = [ScalingRecord(cores=c, times=t) for c, t in path_rows]
    by = {r.cores: r for r in compute_scaling(records, base_cores=4)}
    assert by[8].speedup["total"] == pytest.approx(100.0 / 60.0)
    # eff = 100 * t_b N_b / (t_N N) = 100 * 100 * 4 / (60 * 8)
    assert by[8].efficiency["total"] == pytest.approx(100 * 400 / 480)
    assert by[4].sp_ideal == 1.0 and by[8].sp_ideal == 2.0


def test_missing_base_raises():
    from trifvm.scaling import ScalingRecord
    records = [ScalingRecord(cores=2, times={"total": 10.0})]
    with pytest.raises(ConfigError, match="no row with cores = 1"):
        compute_scaling(records, base_cores=1)


def test_csv_validation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("total\n100\n")  # no cores column
    with pytest.raises(ParseError):
        read_timings_csv(p)
    p.write_text("cores,total\n1,100\n1,90\n")  # duplicate cores
    with pytest.raises(ParseError):
        read_timings_csv(p)
    p.write_text("cores,total\n1,0\n")  # non-positive time
    with pytest.raises(ParseError):
        read_timings_csv(p)
    p.write_text("cores,warmup\n1,5\n")  # unknown phase column
    with pytest.raises(ParseError):
        read_timings_csv(p)


@pytest.mark.parametrize("header, column", [("cores,total,total", "total"),
                                            ("cores,total,cores", "cores")])
def test_a_repeated_column_exits_2_naming_it(tmp_path, capsys, header,
                                            column):
    # both copies would be read, and the last one silently used
    p = tmp_path / "t.csv"
    p.write_text(header + "\n1,5,6\n2,3,4\n")
    with pytest.raises(ParseError, match=f"\\['{column}'\\] appear twice"):
        read_timings_csv(p)
    assert main(["scaling", str(p), "--out", str(tmp_path / "s.csv")]) == 2
    assert f"['{column}'] appear twice" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("rows, line", [
    ("2,100\n", 3),                 # a missing cell
    ("2,,50\n", 3),                 # an empty one
    ("2, ,50\n", 3),
    ("2,100,50,7\n", 3),            # one past the header
    ("2,abc,50\n", 3),              # a duration that does not parse
    ("\n2,100\n", 4),               # lines are counted, blank ones too
])
def test_bad_row_names_its_file_and_line(tmp_path, rows, line):
    p = tmp_path / "t.csv"
    p.write_text("cores,total,convection\n1,200,100\n" + rows)
    with pytest.raises(ParseError) as info:
        read_timings_csv(p)
    assert (info.value.path, info.value.line) == (p, line)
    assert str(info.value).startswith(f"{p}:{line}: ")


def test_write_scaling_csv_round_trip(tmp_path):
    records = read_timings_csv(write_timing_table(tmp_path / "t.csv"))
    out = tmp_path / "s.csv"
    write_scaling_csv(compute_scaling(records, base_cores=1), out)
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert rows["cores"][0] == 1 and rows["cores"][-1] == 1024
    assert rows["total_speedup"][-1] == pytest.approx(572.2548, abs=1e-4)
    assert rows["sp_ideal"][-1] == 1024.0
