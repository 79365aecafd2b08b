"""Tests of the CLI option table: config checks, flag/config parity, docs.

Every option of every subcommand is declared once in ``cli._OPTIONS``.
These tests draw options from that table: a wrong-typed config value
must end as ``ERROR:cli:validation`` naming its key (never exit 70), a
valid value must resolve to the same SI value from a flag and from the
config, and the README's commands and config example must match the
table.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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


def test_readme_commands_parse():
    commands = [shlex.split(line, comments=True)
                for block in readme_blocks("sh")
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("nvcavity ")]
    assert len(commands) >= 8
    for argv in commands:
        try:
            args = PARSER.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        cli._resolve(args, {})


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
