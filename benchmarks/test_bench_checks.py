"""Self-tests of the benchmark's checks and tracer.

Each check must pass the toolkit's real output and reject a deliberately
wrong one; the tracer must leave every module function as it found it.
"""

import json

import numpy as np
import pytest

import bench_checks as ck
from bench_trace import TRACED_MODULES, Tracer
import nvcavity
from nvcavity import circuit, cli, fieldmap  # noqa: F401  (cli is traced)

SHEETS = (8e-3, 6.6e-3, 1.27e-3)


@pytest.fixture(scope="module")
def small_map():
    sheets = fieldmap.bowtie_sheet_pair(*SHEETS, 1.0)
    grid = fieldmap.GridSpec.centered((4e-3, 4e-3, 0.8e-3), (3, 3, 3))
    return fieldmap.biot_savart_map(sheets, grid)


def test_field_check_rejects_a_node_off_by_1e_4(small_map):
    node = (0, 1, 2)
    ck.check_field_nodes(small_map.b, small_map.origin, small_map.spacing, SHEETS, [node])
    wrong = small_map.b.copy()
    wrong[node] *= 1.0 + 1e-4
    with pytest.raises(ck.CheckFailed):
        ck.check_field_nodes(wrong, small_map.origin, small_map.spacing, SHEETS, [node])


def test_symmetry_check_rejects_a_broken_mirror(small_map):
    ck.check_mirror_symmetry(small_map.b)
    wrong = small_map.b.copy()
    wrong[0, 0, 0, 1] *= 1.0 + 1e-4
    with pytest.raises(ck.CheckFailed):
        ck.check_mirror_symmetry(wrong)


def test_fit_check_rejects_omega_3_percent_off():
    generating = {"omega_c": 3.121e9, "kappa": 1.91e6, "omega_s": 3.121e9,
                  "gamma_star": 3.0e6, "Omega": 12.46e6}
    freq, data = ck.noisy_spectrum(generating, 1.0, 3, 1201, 3.091e9, 3.151e9)
    optimum, residual = ck.lsq_optimum(freq, data, generating, 1.0, False)
    ck.check_fit(optimum, residual, generating, optimum, residual)
    wrong = dict(optimum, Omega=optimum["Omega"] * 1.03)
    with pytest.raises(ck.CheckFailed):
        ck.check_fit(wrong, residual, generating, optimum, residual)


def _as_tuple(fmap):
    return (fmap.origin, fmap.spacing, fmap.b, fmap.energy_j, fmap.photon_frequency_hz)


def test_round_trip_check_rejects_an_altered_csv(small_map, tmp_path):
    path = tmp_path / "map.csv"
    fieldmap.export_map(path, small_map)
    ck.check_round_trip(_as_tuple(small_map), _as_tuple(fieldmap.ingest_map(path)))
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) * (1.0 + 1e-12))
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ck.CheckFailed):
        ck.check_round_trip(_as_tuple(small_map), _as_tuple(fieldmap.ingest_map(path)))


def test_cli_check_rejects_bad_exit_and_unwritten_files(tmp_path):
    before = ck.listing(tmp_path)
    (tmp_path / "map.csv").write_text("x\n")
    (tmp_path / "map.csv.meta").write_text("y\n")
    after = ck.listing(tmp_path)
    assert ck.check_cli_step("fieldmap", 0, "wrote map.csv\n", before, after) == ["map.csv"]
    with pytest.raises(ck.CheckFailed):
        ck.check_cli_step("fieldmap", 1, "wrote map.csv\n", before, after)
    with pytest.raises(ck.CheckFailed):
        ck.check_cli_step("fieldmap", 0, "wrote map.csv\nwrote report.json\n", before, after)
    with pytest.raises(ck.CheckFailed):
        ck.check_cli_step("fieldmap", 0, "", before, after)


def test_zeeman_check_rejects_a_field_off_target():
    b = nvcavity.nvspin.zeeman_tune(nvcavity.nvspin.SpinSpecies(), nvcavity.nvspin.NV_AXES,
                                    (0.0, 1.0, 0.0), 3.121e9)
    ck.check_zeeman(b, (0.0, 1.0, 0.0), 3.121e9)
    with pytest.raises(ck.CheckFailed):
        ck.check_zeeman(b * (1.0 + 1e-6), (0.0, 1.0, 0.0), 3.121e9)


def test_tracer_restores_every_module_function(tmp_path):
    modules = [getattr(nvcavity, name) for name in TRACED_MODULES]
    before = [dict(vars(m)) for m in modules]
    geom = circuit.CavityGeometry(plate_area=1e-4, gap=1e-3, path_length=1e-2,
                                  path_width=2e-3)
    expected = circuit.gap_for_frequency(geom, 3e9)
    with Tracer(nvcavity) as tracer:
        assert circuit.gap_for_frequency is not before[0]["gap_for_frequency"]
        assert circuit.gap_for_frequency(geom, 3e9) == expected
        nvcavity._fileio.atomic_write_text(tmp_path / "t.txt", "abc")
    assert [s["name"] for s in tracer.spans] == ["circuit.gap_for_frequency",
                                                 "circuit.flat_wire_inductance",
                                                 "_fileio.atomic_write_text"]
    assert tracer.spans[1]["parent"] == 0 and tracer.spans[2]["bytes"] == 3
    for module, saved in zip(modules, before):
        assert vars(module).keys() == saved.keys()
        assert all(vars(module)[k] is v for k, v in saved.items())
    json.dumps(tracer.spans)
