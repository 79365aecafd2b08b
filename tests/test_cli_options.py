"""Tests of the CLI option table: config checks, flag/config parity, docs.

Every option of every subcommand is declared once in ``cli._OPTIONS``.
These tests draw options from that table: a wrong-typed config value
must end as ``ERROR:cli:validation`` naming its key (never exit 70), a
valid value must resolve to the same SI value from a flag and from the
config, and the README's commands and config example must match the
table.  The fuzz tests set one option, or two, to edge values (0, the
smallest and largest floats, nan, inf, negative numbers and sizes) and
check the error contract: exit 0, or exit 1 with one ``ERROR:`` line, and
never a leaked warning or a non-finite JSON report.
"""

import contextlib
import io
import json
import os
import re
import shlex
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nvcavity import cli
from nvcavity import spectroscopy as sp

README = Path(__file__).resolve().parents[1] / "README.md"
PARSER = cli.build_parser()
# Unit suffixes and their SI factors, written out independently of cli._SI.
SI_FACTORS = {"mm": 1e-3, "mm2": 1e-6, "mT": 1e-3, "GHz": 1e9, "MHz": 1e6}
COMMANDS = [command for command, options in cli._OPTIONS.items() if options]

text = st.text(max_size=6)
# Exact binary fractions whose repr argparse reads as a negative number.
reals = st.integers(-10**6, 10**6).map(lambda n: n / 64)
not_number = st.booleans() | text | st.lists(reals, max_size=3) \
    | st.dictionaries(text, reals, max_size=2)
non_whole = st.floats(allow_nan=False).filter(lambda x: not x.is_integer())


def with_one(strategy, bad, length=None):
    """Lists of ``strategy`` items with one ``bad`` item placed somewhere."""
    size = {} if length is None else {"min_size": length - 1,
                                      "max_size": length - 1}
    return st.tuples(st.lists(strategy, **size), bad, st.integers(0, 3)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


def wrong_value(kind):
    """Strategy of JSON values that the option kind must reject."""
    scalars = st.booleans() | reals | text
    if kind is cli._NUMBER:
        return not_number
    if kind is cli._INTEGER:
        return not_number | non_whole
    if kind in (cli._VECTOR, cli._INTEGERS3):
        item = reals if kind is cli._VECTOR else st.integers(-9, 9)
        bad_item = st.booleans() | text | st.lists(reals, max_size=2)
        if kind is cli._INTEGERS3:
            bad_item = bad_item | non_whole
        return (scalars | st.dictionaries(text, reals, max_size=2)
                | st.lists(item, max_size=5).filter(lambda v: len(v) != 3)
                | with_one(item, bad_item, length=3))
    if kind is cli._NUMBERS:
        return scalars | with_one(reals, st.booleans() | text)
    if kind in (cli._PATH, cli._NAMES):
        return (st.booleans() | reals | st.dictionaries(text, text, max_size=2)
                | with_one(text, st.booleans() | reals))
    if kind is cli._FLAG:
        return text | reals | st.lists(st.booleans(), max_size=2)
    choices = kind.argparse["choices"]
    return (st.booleans() | reals | st.lists(st.sampled_from(choices), max_size=2)
            | text.filter(lambda v: v not in choices))


def valid_value(kind):
    """Strategy of (JSON value, flag tokens) pairs the kind accepts."""
    names = st.text("abcdefgh_", min_size=1, max_size=6)
    if kind is cli._NUMBER:
        return reals.map(lambda x: (x, [repr(x)]))
    if kind is cli._INTEGER:
        return st.integers(-999, 999).map(lambda n: (n, [str(n)]))
    if kind in (cli._VECTOR, cli._INTEGERS3, cli._NUMBERS):
        item = st.integers(-99, 99) if kind is cli._INTEGERS3 else reals
        size = {"min_size": 1, "max_size": 4} if kind is cli._NUMBERS \
            else {"min_size": 3, "max_size": 3}
        return st.lists(item, **size).map(lambda v: (v, [repr(x) for x in v]))
    if kind is cli._PATH:
        return names.map(lambda p: (p, [p]))
    if kind is cli._NAMES:
        return st.lists(names, min_size=1, max_size=3).map(
            lambda v: (v, [",".join(v)]))
    if kind is cli._FLAG:
        return st.just((True, []))
    return st.sampled_from(kind.argparse["choices"]).map(lambda c: (c, [c]))


def resolve(argv, config):
    return cli._resolve(PARSER.parse_args(argv), config)


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_option_table_checks_config_values(command, data, tmp_path,
                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    key, kind, _, _ = data.draw(st.sampled_from(cli._OPTIONS[command]),
                                label="option")

    bad = data.draw(wrong_value(kind), label="wrong value")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({command: {key: bad}}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(["--config", str(config), command])
    assert rc == 1, err.getvalue()
    assert err.getvalue().startswith("ERROR:cli:validation:")
    assert f"'{key}'" in err.getvalue()
    assert list(tmp_path.iterdir()) == [config]  # resolution ran first

    value, tokens = data.draw(valid_value(kind), label="valid value")
    flag = "--" + key.replace("_", "-")
    from_flag = resolve([command, flag, *tokens], {})[key]
    from_config = resolve([command], {command: {key: value}})[key]
    assert type(from_flag) is type(from_config)
    assert np.array_equal(from_flag, from_config)
    if kind in (cli._NUMBER, cli._VECTOR, cli._NUMBERS):
        scale = SI_FACTORS.get(key.rsplit("_", 1)[-1], 1.0)
        assert np.array_equal(from_config, np.asarray(value) * scale)


def test_null_config_value_means_absent():
    opts = resolve(["spins"], {"spins": {"n_points": None, "branch": None}})
    assert opts["n_points"] == 81 and opts["branch"] == "upper"


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit):
        PARSER.parse_args(["spins", "--help"])
    out = capsys.readouterr().out
    assert "(default 2.87)" in out and "(default 2.0028)" in out
    assert "(default 81)" in out and "(default upper)" in out


def readme_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)


def readme_commands():
    return [shlex.split(line, comments=True)
            for block in readme_blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("nvcavity ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        try:
            args = PARSER.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        cli._resolve(args, {})


def test_readme_pipeline_writes_strict_json(tmp_path, monkeypatch, capsys):
    def reject(constant):
        raise ValueError(f"{constant} is not a JSON number")

    monkeypatch.chdir(tmp_path)
    for argv in readme_commands():
        keys = {key for key, *_ in cli._OPTIONS[argv[1]]}
        plot = ["--emit-plot-data"] if "emit_plot_data" in keys else []
        assert cli.main(argv[1:] + plot) == 0, argv
    reports = sorted(path.name for path in tmp_path.glob("*.json"))
    assert reports == ["coupling.json", "design.json", "fit.json",
                       "homogeneity.json"]
    for name in reports:
        json.loads((tmp_path / name).read_text(), parse_constant=reject)


def test_readme_config_keys_are_options():
    examples = [json.loads(block) for block in readme_blocks("json")]
    assert examples
    for example in examples:
        for section, values in example.items():
            keys = {key for key, *_ in cli._OPTIONS[section]}
            assert set(values) <= keys, (section, set(values) - keys)


def test_fit_from_omega_zero_exits_1(tmp_path, capsys):
    data = tmp_path / "spectrum.csv"
    sp.write_spectrum(data, sp.spectrum(sp.CoupledSystem(
        omega_c=3.121e9, kappa=1.91e6, omega_s=3.121e9, gamma_star=3.0e6,
        Omega=12.46e6), 3.091e9, 3.151e9, 201))
    rc = cli.main(["fit", "--data", str(data), "--omega-c-GHz", "3.1207",
                   "--kappa-MHz", "1.4", "--omega-s-GHz", "3.1214",
                   "--gamma-star-MHz", "2.2", "--Omega-MHz", "0",
                   "--out", str(tmp_path / "fit.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("ERROR:spectroscopy:domain:")


def test_region_pair_is_checked_before_the_map_is_written(tmp_path, capsys):
    out_map = tmp_path / "map.csv"
    rc = cli.main(["fieldmap", "--sheet-length-mm", "8", "--sheet-width-mm",
                   "6.6", "--sheet-gap-mm", "1.27", "--grid-extents-mm", "2",
                   "2", "0.8", "--grid-dims", "3", "3", "3",
                   "--region-extents-mm", "1", "1", "0.2",
                   "--out-map", str(out_map)])
    assert rc == 1
    assert "'region_center_mm'" in capsys.readouterr().err
    assert not out_map.exists()


# Small valid command lines, one per workload of the CLI, in its units.  The
# fuzz tests below replace one or two of their options with edge values.
_REGION = {"region_center_mm": [0.0, 0.0, 0.0], "region_extents_mm": [2.0, 2.0, 0.6]}
_SYSTEM = {"omega_c_GHz": 3.121, "kappa_MHz": 1.91, "omega_s_GHz": 3.121,
           "gamma_star_MHz": 3.0, "Omega_MHz": 12.46}
BASES = {
    "design": ("design", {"A_mm2": 100.0, "l_mm": 10.0, "w_mm": 2.0,
                          "target_freq_GHz": 2.775, "out": "design.json"}),
    "spins": ("spins", {"direction": [0.0, 1.0, 0.0], "tune_to_GHz": 3.121,
                        "n_points": 11, "out": "sweep.csv"}),
    "fieldmap": ("fieldmap", {
        "sheet_length_mm": 8.0, "sheet_width_mm": 6.6, "sheet_gap_mm": 1.27,
        "grid_extents_mm": [4.0, 4.0, 0.8], "grid_dims": [5, 5, 3],
        "normalize_to_GHz": 3.121, **_REGION, "out_map": "map.csv",
        "out_report": "homogeneity.json"}),
    "couple": ("couple", {"map": "map.csv", "density_ppm": 40.0, **_REGION,
                          "kappa_MHz": 1.91, "gamma_star_MHz": 3.0,
                          "out": "coupling.json"}),
    "spectrum": ("spectrum", {**_SYSTEM, "f_min_GHz": 3.091, "f_max_GHz": 3.151,
                              "n_points": 51, "noise_fraction": 0.01, "seed": 7,
                              "out": "spectrum.csv"}),
    "crossing": ("spectrum", {**_SYSTEM, "map2d": True, "delta_min_MHz": -30.0,
                              "delta_max_MHz": 30.0, "n_delta": 5,
                              "probe_min_MHz": -30.0, "probe_max_MHz": 30.0,
                              "n_probe": 7, "out": "crossing.csv"}),
    "fit": ("fit", {"data": "spectrum.csv", "omega_c_GHz": 3.1207,
                    "kappa_MHz": 1.4, "omega_s_GHz": 3.1214,
                    "gamma_star_MHz": 2.2, "Omega_MHz": 9.0, "out": "fit.json"}),
}
EDGE_NUMBERS = [0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e308,
                -1e308, float("nan"), float("inf"), float("-inf"), -1.0]
# Sizes stay tiny: a size between 1e4 and 1e15 elements would really allocate.
EDGE_INTEGERS = [0, 1, 2, 3, -1]


def edge_values(kind):
    """The values an option of ``kind`` is fuzzed with, besides its own."""
    if kind in (cli._NUMBER, cli._VECTOR, cli._NUMBERS):
        return EDGE_NUMBERS
    if kind in (cli._INTEGER, cli._INTEGERS3):
        return EDGE_INTEGERS
    if kind is cli._PATH:
        return ["missing/file.csv"]
    if kind is cli._NAMES:
        return ["", "amplitude", "Omega,amplitude", "bogus"]
    if kind is cli._FLAG:
        return [True, False]
    return list(kind.argparse["choices"])


def one_option_changes(command, base):
    """Every option alone at every edge value; a vector gets it everywhere."""
    for key, kind, _, _ in cli._OPTIONS[command]:
        for value in edge_values(kind):
            if kind in (cli._VECTOR, cli._INTEGERS3):
                value = [value] * 3
            elif kind is cli._NUMBERS:
                value = [value]
            yield {**base, key: value}


def fuzz_value(kind, base):
    """Strategy of values for an option of ``kind`` whose base value is ``base``."""
    if kind in (cli._VECTOR, cli._INTEGERS3):
        items = st.sampled_from(list(base or []) + edge_values(kind))
        return st.lists(items, min_size=3, max_size=3)
    if kind is cli._NUMBERS:
        return st.lists(st.sampled_from(EDGE_NUMBERS + [0.05]), max_size=3)
    return st.sampled_from(([] if base is None else [base]) + edge_values(kind))


def two_option_changes(command, base):
    """Strategy of ``base`` with two of its command's options replaced."""
    values = {key: fuzz_value(kind, base.get(key))
              for key, kind, _, _ in cli._OPTIONS[command]}
    keys = st.lists(st.sampled_from(sorted(values)), min_size=2, max_size=2,
                    unique=True)
    return keys.flatmap(lambda pair: st.fixed_dictionaries(
        {key: values[key] for key in pair})).map(lambda new: {**base, **new})


def command_line(command, options, config_path):
    """argv for ``options``: scalars as ``--flag=value``, lists via the config."""
    argv, section = ["--config", str(config_path), command], {}
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            section[key] = value  # json writes nan and inf as NaN and Infinity
        elif value is True:
            argv.append(flag)
        elif value is not False:
            # "=" keeps argparse from reading a value such as -1e300 as a flag.
            argv.append(f"{flag}={value!r}" if isinstance(value, float)
                        else f"{flag}={value}")
    config_path.write_text(json.dumps({command: section}))
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The map and spectrum that ``couple`` and ``fit`` read."""
    inputs = tmp_path_factory.mktemp("inputs")
    for name in ("fieldmap", "spectrum"):
        command, options = BASES[name]
        argv = command_line(command, {key: str(inputs / value)
                                      if key.startswith("out") else value
                                      for key, value in options.items()},
                            inputs / "options.cfg")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    return inputs


ERROR_LINE = r"^ERROR:[a-z_]+:[a-z_]+: "


def config_line(command, options, config_path):
    """argv that reads every option, scalars too, from the config file."""
    config_path.write_text(json.dumps({command: options}))
    return ["--config", str(config_path), command]


def contract_breaks(command, options, inputs, workdir, edit=None,
                    line=command_line):
    """Run ``cli.main`` in ``workdir``; what it did against the error contract.

    The contract: exit 0 with an empty stderr, or exit 1 with exactly one
    ``ERROR:<module>:<code>: `` line; no warning; strict JSON reports.
    ``edit(workdir)``, when given, changes the copied input files first.
    ``line`` turns the options into argv and the config file.
    """
    def reject(constant):
        raise ValueError(f"{constant} is not a JSON number")

    workdir.mkdir()
    for path in inputs.iterdir():
        if not path.name.endswith((".json", ".cfg")):
            shutil.copy(path, workdir)
    if edit is not None:
        edit(workdir)
    argv = line(command, options, workdir / "options.cfg")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main(argv)
    finally:
        os.chdir(cwd)
    lines = err.getvalue().splitlines()
    breaks = [str(w.message) for w in caught]
    if not ((rc, lines) == (0, []) or (rc == 1 and len(lines) == 1
                                       and re.match(ERROR_LINE, lines[0]))):
        breaks.append(f"exit {rc}, stderr {lines}")
    for path in workdir.glob("*.json"):
        try:
            json.loads(path.read_text(), parse_constant=reject)
        except ValueError as exc:
            breaks.append(f"{path.name}: {exc}")
    return breaks


@pytest.mark.parametrize("name", list(BASES))
def test_each_option_alone_at_edge_values(name, fuzz_inputs, tmp_path,
                                          monkeypatch):
    # A bad value must end as one ERROR line at exit 1, checked where it
    # enters: never exit 70, a leaked warning or a non-finite report.
    # Building the parser is half the cost of a short run; parse_args
    # leaves the parser as it was, so one build serves every run.
    monkeypatch.setattr(cli, "build_parser", lambda: PARSER)
    command, base = BASES[name]
    failures = {}
    for n, options in enumerate(one_option_changes(command, base)):
        breaks = contract_breaks(command, options, fuzz_inputs, tmp_path / str(n))
        if breaks:
            failures[repr({k: v for k, v in options.items()
                           if base.get(k, "-") != v})] = breaks
    assert not failures, "\n".join(f"{k}: {v}" for k, v in failures.items())


@pytest.mark.parametrize("name", list(BASES))
@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_two_fuzzed_options_end_in_one_error_line(name, data, fuzz_inputs,
                                                  tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", lambda: PARSER)
    command, base = BASES[name]
    options = data.draw(two_option_changes(command, base), label="options")
    workdir = Path(tempfile.mkdtemp(dir=tmp_path)) / "run"
    assert contract_breaks(command, options, fuzz_inputs, workdir) == []


# The file-content fuzz reads the map and spectrum above through three
# commands, with one value of the edge pool written into them: a map B
# column (on one row or every row), one coordinate or one sidecar value,
# or a spectrum frequency or value (on one row or every row).
_SIDECAR_KEYS = ["nx", "ny", "nz", "origin_x_m", "origin_y_m", "origin_z_m",
                 "spacing_x_m", "spacing_y_m", "spacing_z_m", "energy_J",
                 "photon_frequency_Hz"]
_FREE_ALL = "omega_c,kappa,omega_s,gamma_star,Omega,amplitude"
FILE_READERS = {
    "fieldmap": ("fieldmap", "map", {
        "infile": "map.csv", "normalize_to_GHz": 3.121, **_REGION,
        "out_map": "out.csv", "out_report": "homogeneity.json"}),
    "couple": ("couple", "map", BASES["couple"][1]),
    "fit": ("fit", "spectrum", BASES["fit"][1]),
    "fit dB": ("fit", "spectrum", {**BASES["fit"][1], "input_dB": True}),
    "fit amplitude": ("fit", "spectrum", {**BASES["fit"][1], "free": _FREE_ALL}),
}


def file_edits(source):
    """Strategy of (file, column or sidecar key, row, value) edits.

    Rows are the first, middle and last data rows of the 51-point spectrum
    and the 5 x 5 x 3 map, or None for every row.
    """
    value = st.sampled_from(EDGE_NUMBERS)
    if source == "spectrum":
        return st.tuples(st.just("spectrum.csv"), st.sampled_from([0, 1]),
                         st.sampled_from([None, 0, 25, 50]), value)
    map_rows = [0, 37, 74]
    return st.one_of(
        st.tuples(st.just("map.csv"), st.sampled_from([3, 4, 5]),
                  st.sampled_from([None, *map_rows]), value),
        st.tuples(st.just("map.csv"), st.sampled_from([0, 1, 2]),
                  st.sampled_from(map_rows), value),
        st.tuples(st.just("map.csv.meta"), st.sampled_from(_SIDECAR_KEYS),
                  st.just(None), value))


def apply_edit(workdir, name, column, row, value):
    """Write ``value`` as the toolkit writes numbers (``%.17g``) into a file."""
    path = workdir / name
    text = "%.17g" % value
    head, *lines = path.read_text().splitlines()
    if name.endswith(".meta"):
        lines = [f"{column}={text}" if line.startswith(column + "=") else line
                 for line in [head, *lines]]
        path.write_text("\n".join(lines) + "\n")
        return
    for k in range(len(lines)) if row is None else [row]:
        cells = lines[k].split(",")
        cells[column] = text
        lines[k] = ",".join(cells)
    path.write_text("\n".join([head, *lines]) + "\n")


@pytest.mark.parametrize("name", list(FILE_READERS))
@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_file_contents_at_edge_values_end_in_one_error_line(
        name, data, fuzz_inputs, tmp_path, monkeypatch):
    # Values in files enter where options do not: a map or spectrum that
    # holds one must still end as exit 0, or as one ERROR line at exit 1.
    monkeypatch.setattr(cli, "build_parser", lambda: PARSER)
    command, source, options = FILE_READERS[name]
    edit = data.draw(file_edits(source), label="edit")
    workdir = Path(tempfile.mkdtemp(dir=tmp_path)) / "run"
    assert contract_breaks(command, options, fuzz_inputs, workdir,
                           edit=lambda path: apply_edit(path, *edit)) == []


# Sizes in config files: small ones and ones past numpy's index range, as
# JSON numbers.  A size between 1e4 and 1e15 elements would really allocate.
CONFIG_SIZES = [-1, 0, 1, 2, 1e20, 1e300]


def config_value(kind, base):
    """Strategy of config values of ``kind``: from the fuzz pool, or, one
    time in four, of a wrong JSON type."""
    if kind is cli._INTEGER:
        pool = st.sampled_from(CONFIG_SIZES)
    elif kind is cli._INTEGERS3:
        pool = st.lists(st.sampled_from(CONFIG_SIZES), min_size=3, max_size=3)
    else:
        pool = fuzz_value(kind, base)
    return st.integers(0, 3).flatmap(
        lambda k: wrong_value(kind) if k == 0 else pool)


def config_case(name):
    """Strategy of (name, options changed from its base): one to three
    options of the command, at config values."""
    command, base = BASES[name]
    values = {key: config_value(kind, base.get(key))
              for key, kind, _, _ in cli._OPTIONS[command]}
    keys = st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3,
                    unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries(
        {key: values[key] for key in ks})).map(lambda changed: (name, changed))


@settings(max_examples=280, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(list(BASES)).flatmap(config_case))
@example(case=("spins", {"n_points": 1e300}))
@example(case=("crossing", {"n_delta": 1e20, "n_probe": 2}))
@example(case=("fieldmap", {"grid_dims": [1e20, 2, 2]}))
def test_config_contents_at_edge_values_end_in_one_error_line(
        case, fuzz_inputs, tmp_path, monkeypatch):
    # Every option comes from the config file, up to three of them at an
    # edge value or of a wrong JSON type.
    monkeypatch.setattr(cli, "build_parser", lambda: PARSER)
    name, changed = case
    command, base = BASES[name]
    workdir = Path(tempfile.mkdtemp(dir=tmp_path)) / "run"
    assert contract_breaks(command, {**base, **changed}, fuzz_inputs, workdir,
                           line=config_line) == []
