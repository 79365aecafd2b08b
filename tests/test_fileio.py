"""Tests for the shared file layer: atomic writes, tables and JSON reports."""

import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvcavity import fieldmap as fm
from nvcavity import nvspin
from nvcavity import spectroscopy as sp
from nvcavity._fileio import atomic_write_text, read_table, write_json, write_table
from nvcavity.errors import ValidationError


def mode_of(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_new_file_gets_the_umask_mode(tmp_path):
    path = tmp_path / "design.json"
    previous = os.umask(0o022)
    try:
        atomic_write_text(path, "{}\n")
    finally:
        os.umask(previous)
    assert path.read_text() == "{}\n"
    assert mode_of(path) == 0o644


def test_existing_file_keeps_its_mode(tmp_path):
    path = tmp_path / "design.json"
    path.write_text("old\n")
    os.chmod(path, 0o640)
    atomic_write_text(path, "new\n")
    assert path.read_text() == "new\n"
    assert mode_of(path) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["design.json"]


EXTREMES = [-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
            -1.7976931348623157e308]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=3, max_size=3), max_size=20))
@example(rows=[EXTREMES[:3], EXTREMES[2:]])
def test_table_round_trip_is_bit_exact(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, "a,b,c", rows)
        values, line_numbers = read_table(path, "a,b,c", 3, "test")
    want = np.array(rows, dtype=float).reshape(-1, 3)
    assert values.shape == want.shape
    assert values.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert line_numbers == list(range(2, 2 + len(rows)))


TABLE_VALUES = st.one_of(
    st.floats(), st.integers(-2**1000, 2**1000),
    st.sampled_from([*EXTREMES, 2**53 + 1, -2**63 - 1, 2**64 + 3, 0, -1,
                     np.float64(0.1), 1e-310]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.one_of(st.none(), st.lists(TABLE_VALUES, max_size=7),
                               st.tuples(TABLE_VALUES, TABLE_VALUES)), max_size=12),
       sep=st.sampled_from([",", " "]))
@example(rows=[EXTREMES, None, [2**53 + 1, 2**60, -0.0, 5e-324]], sep=",")
@example(rows=[None, [1.7976931348623157e308, 1], None, []], sep=" ")
def test_table_rows_equal_the_per_value_join(rows, sep):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, "h", rows, sep=sep)
        text = path.read_text()
    want = ["h"] + ["" if row is None else sep.join("%.17g" % v for v in row)
                    for row in rows]
    assert text == "\n".join(want) + "\n"


def spectrum_file(tmp_path, lines):
    """A spectrum CSV of two good rows, then ``lines`` from line 4 on."""
    path = tmp_path / "spec.csv"
    path.write_text("\n".join(["freq_Hz,S21_sq", "1.0e9,0.5", "1.1e9,0.25", *lines]) + "\n")
    return path


def map_file(tmp_path, lines):
    """A 2x1x1 map CSV with its sidecar: one good row, then ``lines`` from line 3 on."""
    fmap = fm.FieldMap(origin=(0.0, 0.0, 0.0), spacing=(1.0, 1.0, 1.0),
                       b=np.ones((2, 1, 1, 3)), energy_j=1.0)
    path = tmp_path / "map.csv"
    fm.export_map(path, fmap)
    rows = path.read_text().splitlines()
    path.write_text("\n".join(rows[:2] + lines) + "\n")
    return path


READERS = {
    # name: (file maker, reader, owning module, columns, bad rows by defect)
    "spectrum": (spectrum_file, sp.read_spectrum, "spectroscopy", 2,
                 {"columns": "1.2e9,0.5,7", "unparsable": "1.2e9,abc",
                  "non-finite": "1.2e9,inf"}),
    "map": (map_file, fm.ingest_map, "fieldmap", 6,
            {"columns": "1,0,0,1,1,1,7", "unparsable": "1,0,0,1,x,1",
             "non-finite": "1,0,0,1,nan,1"}),
}
MESSAGES = {"columns": "expected {n} columns, got {m}",
            "unparsable": "unparsable number",
            "non-finite": "non-finite value"}


@pytest.mark.parametrize("defect", ["header", *MESSAGES])
@pytest.mark.parametrize("reader", READERS)
def test_malformed_file_names_its_line(tmp_path, reader, defect):
    make, read, module, n, bad_rows = READERS[reader]
    if defect == "header":
        path = make(tmp_path, [])
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join(["x,y", *rows]) + "\n")
        expected = f"{path}: first line must be the header {header!r}"
    else:
        # The blank line before the bad row counts in its line number.
        path = make(tmp_path, ["", bad_rows[defect]])
        line = len(path.read_text().splitlines())
        expected = f"{path}:{line}: " + MESSAGES[defect].format(n=n, m=n + 1)
    with pytest.raises(ValidationError) as info:
        read(path)
    assert str(info.value) == expected
    assert info.value.module == module


def row_defects(good):
    """Bad rows made from the good row ``good``, with the message each gives."""
    n = len(good)
    joined = ",".join(good)
    return {
        "columns": (joined + ",7", f"expected {n} columns, got {n + 1}"),
        "trailing comma": (joined + ",", f"expected {n} columns, got {n + 1}"),
        "unparsable": (",".join(good[:-1] + ["abc"]), "unparsable number"),
        "comment": ("#" + joined, "unparsable number"),
        "nan": (",".join(good[:-1] + ["nan"]), "non-finite value"),
        "inf": (",".join(good[:-1] + ["-inf"]), "non-finite value"),
    }


GOOD_ROWS = {"spectrum": ["1.2e9", "0.5"], "map": ["1", "0", "0", "1", "1", "1"]}


@pytest.mark.parametrize("defect", row_defects(["1"]))
@pytest.mark.parametrize("reader", READERS)
def test_malformed_row_without_blank_lines_names_its_line(tmp_path, reader, defect):
    # With no blank line the whole body goes through the one-pass parse
    # first; the line scan behind it must still name the line.
    make, read, module, _, _ = READERS[reader]
    bad_row, message = row_defects(GOOD_ROWS[reader])[defect]
    path = make(tmp_path, [bad_row])
    lines = path.read_text().splitlines()
    assert "" not in lines
    with pytest.raises(ValidationError) as info:
        read(path)
    assert str(info.value) == f"{path}:{len(lines)}: {message}"
    assert info.value.module == module


def test_blank_lines_keep_values_and_count_in_line_numbers(tmp_path):
    rows = ["1.5,-2,3e-300", "4,5.25,6", "-0.0,8,9"]
    plain, gapped = tmp_path / "plain.csv", tmp_path / "gapped.csv"
    plain.write_text("\n".join(["a,b,c", *rows]) + "\n")
    gapped.write_text("\n".join(["a,b,c", rows[0], "", "  ", rows[1], rows[2],
                                  "", "\t"]) + "\n")
    values, line_numbers = read_table(plain, "a,b,c", 3, "test")
    gapped_values, gapped_line_numbers = read_table(gapped, "a,b,c", 3, "test")
    assert line_numbers == [2, 3, 4]
    assert gapped_line_numbers == [2, 5, 6]
    assert gapped_values.tobytes() == values.tobytes()
    assert values.view(np.int64).tolist() == np.array(
        [[1.5, -2, 3e-300], [4, 5.25, 6], [-0.0, 8, 9]]).view(np.int64).tolist()


def line_scan(path, lines, n_columns):
    """The reference reader: one ``float`` per value, line by line."""
    values, line_numbers = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_columns:
            raise ValidationError(f"{path}:{lineno}: expected {n_columns} columns, "
                                  f"got {len(parts)}", module="test")
        try:
            row = [float(part) for part in parts]
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: unparsable number",
                                  module="test") from None
        if not all(np.isfinite(row)):
            raise ValidationError(f"{path}:{lineno}: non-finite value", module="test")
        values += row
        line_numbers.append(lineno)
    return np.array(values, dtype=float).reshape(-1, n_columns), line_numbers


NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.17g" % v),
    st.floats(-1e6, 1e6).map(lambda v: f" {v:.3e} "),
    st.integers(-10**20, 10**20).map(str),
)
ODD_TOKENS = st.sampled_from(["1_0", " 2.5 ", "\u0663", "1e", "0x10", "", "nan", "-inf",
                              "Infinity", "1e400", "-1e-400", "+.5", "5.", "#1", "\t7\u2003",
                              "1 2", "'1'", "1j", "\u00a0"])
ROWS = st.one_of(
    st.lists(NUMBER_TOKENS, min_size=3, max_size=3).map(",".join),
    st.sampled_from(["", "  ", "\t"]),
    st.lists(st.one_of(NUMBER_TOKENS, ODD_TOKENS), min_size=1, max_size=4).map(",".join),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(body=st.lists(ROWS, max_size=8))
@example(body=["1,2,3", "4,5,6"])
@example(body=["1,2,3", "1_0,\u0663, 2.5 "])
@example(body=["1,2,3", "", "4,5,6", ""])
@example(body=["", ""])
def test_read_table_matches_a_line_scan(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("oracle") / "t.csv"
    path.write_text("\n".join(["a,b,c", *body]) + "\n")
    lines = path.read_text().splitlines()[1:]
    try:
        want = line_scan(path, lines, 3)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info, warnings.catch_warnings():
            warnings.simplefilter("error")
            read_table(path, "a,b,c", 3, "test")
        assert str(info.value) == str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, line_numbers = read_table(path, "a,b,c", 3, "test")
    assert values.shape == want[0].shape
    assert values.tobytes() == want[0].tobytes()
    assert line_numbers == want[1]


def test_pinned_spectrum_bytes(tmp_path):
    path = tmp_path / "s.csv"
    sp.write_spectrum(path, sp.Spectrum(freq_hz=[1.0, 2.5, 3e9],
                                        s21_sq=[0.0, 0.1, 1 / 3]))
    assert path.read_text() == ("freq_Hz,S21_sq\n"
                                "1,0\n"
                                "2.5,0.10000000000000001\n"
                                "3000000000,0.33333333333333331\n")


SYSTEM = sp.CoupledSystem(3e9, 1e6, 3e9, 2e6, 1e7)


def test_pinned_crossing_grid_bytes(tmp_path):
    path = tmp_path / "g.csv"
    sp.write_grid(path, sp.SpectrumGrid(delta_s_hz=[-1e6, 1e6], nu_p_hz=[0.0, 0.5],
                                        s21_sq=[[0.25, 0.5], [0.75, 1.0]]))
    assert path.read_text() == ("delta_s_Hz,nu_p_Hz,S21_sq\n"
                                "-1000000,0,0.25\n"
                                "-1000000,0.5,0.5\n"
                                "1000000,0,0.75\n"
                                "1000000,0.5,1\n")


def test_pinned_sweep_bytes(tmp_path):
    path = tmp_path / "w.csv"
    nvspin.write_transition_sweep(path, nvspin.SpinSpecies(), [0, 0, 1], [0.0])
    assert path.read_text() == ("B_magnitude_T,axis_index,f_lower_Hz,f_upper_Hz\n"
                                "0,0,2870000000,2870000000\n"
                                "0,1,2870000000,2870000000\n"
                                "0,2,2870000000,2870000000\n"
                                "0,3,2870000000,2870000000\n")


def test_pinned_plot_bytes(tmp_path):
    path = tmp_path / "p.dat"
    write_table(path, "# a b", [(1.0, 2.0), None, (3.0, 0.1)], sep=" ")
    assert path.read_text() == "# a b\n1 2\n\n3 0.10000000000000001\n"


def test_pinned_json_report_bytes(tmp_path):
    path = tmp_path / "f.json"
    result = sp.FitResult(system=SYSTEM, amplitude=1.0, residual=0.5,
                          curvature=np.array([[2.0, -0.5], [-0.5, 1e-3]]),
                          param_names=("kappa", "Omega"), n_iterations=7)
    sp.write_fit_result(path, result)
    assert path.read_text() == """\
{
  "omega_c_Hz": 3000000000.0,
  "kappa_Hz": 1000000.0,
  "omega_s_Hz": 3000000000.0,
  "gamma_star_Hz": 2000000.0,
  "Omega_Hz": 10000000.0,
  "amplitude": 1.0,
  "residual": 0.5,
  "n_iterations": 7,
  "free_parameters": [
    "kappa",
    "Omega"
  ],
  "curvature": [
    [
      2.0,
      -0.5
    ],
    [
      -0.5,
      0.001
    ]
  ],
  "units": "Hz",
  "linewidth_convention": "HWHM"
}
"""
    write_json(path, {"a": [1, None]})
    assert path.read_text() == '{\n  "a": [\n    1,\n    null\n  ]\n}\n'


def test_pinned_map_bytes(tmp_path):
    path = tmp_path / "m.csv"
    fmap = fm.FieldMap(origin=[0.0, -0.5, 1e-3], spacing=[0.5, 0.25, 1.0],
                       b=np.arange(24.0).reshape(2, 2, 2, 3) * 0.1,
                       energy_j=1.5, photon_frequency_hz=3e9)
    fm.export_map(path, fmap)
    assert path.read_text() == (
        "x_m,y_m,z_m,Bx_T,By_T,Bz_T\n"
        "0,-0.5,0.001,0,0.10000000000000001,0.20000000000000001\n"
        "0,-0.5,1.0009999999999999,0.30000000000000004,0.40000000000000002,0.5\n"
        "0,-0.25,0.001,0.60000000000000009,0.70000000000000007,0.80000000000000004\n"
        "0,-0.25,1.0009999999999999,0.90000000000000002,1,1.1000000000000001\n"
        "0.5,-0.5,0.001,1.2000000000000002,1.3,1.4000000000000001\n"
        "0.5,-0.5,1.0009999999999999,1.5,1.6000000000000001,1.7000000000000002\n"
        "0.5,-0.25,0.001,1.8,1.9000000000000001,2\n"
        "0.5,-0.25,1.0009999999999999,2.1000000000000001,2.2000000000000002,"
        "2.3000000000000003\n")
    assert (tmp_path / "m.csv.meta").read_text() == (
        "nx=2\nny=2\nnz=2\n"
        "origin_x_m=0\norigin_y_m=-0.5\norigin_z_m=0.001\n"
        "spacing_x_m=0.5\nspacing_y_m=0.25\nspacing_z_m=1\n"
        "energy_J=1.5\nphoton_frequency_Hz=3000000000\n")
