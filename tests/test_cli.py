"""End-to-end tests of the command-line interface.

Every test drives ``main(argv)`` in process and checks the files and
stdout/stderr protocol (``wrote <path>`` lines, ``ERROR:<module>:<code>``
on failure, exit status 0/1).
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nvcavity import circuit
from nvcavity import coupling as cp
from nvcavity import fieldmap as fm
from nvcavity import nvspin
from nvcavity import spectroscopy as sp
from nvcavity.cli import main
from nvcavity.constants import PLANCK_H


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def export_uniform_map(path, magnitude=1e-3, f_c=None, dims=(3, 3, 3),
                       spacing=(3e-3, 3e-3, 1e-3)):
    """Write a uniform y-field map; normalized to one photon when f_c set."""
    spacing = np.asarray(spacing, dtype=float)
    b = np.zeros(dims + (3,))
    b[..., 1] = magnitude
    origin = -spacing * (np.array(dims) - 1) / 2.0
    volume = float(np.prod((np.array(dims) - 1) * spacing))
    energy = np.dot(b[0, 0, 0], b[0, 0, 0]) / fm.MU_0 * volume
    fmap = fm.FieldMap(origin=origin, spacing=spacing, b=b, energy_j=energy)
    if f_c is not None:
        fmap = fm.normalize_to_vacuum(fmap, f_c)
    fm.export_map(path, fmap)
    return fmap


class TestDesign:
    def test_report_with_explicit_gap(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        rc, stdout, _ = run_cli(capsys, "design", "--A-mm2", 100, "--d-mm",
                                0.5, "--l-mm", 10, "--w-mm", 2, "--out", out)
        assert rc == 0
        assert f"wrote {out}" in stdout
        report = json.loads(out.read_text())
        geom = circuit.CavityGeometry(plate_area=100 * 1e-6, gap=0.5 * 1e-3,
                                      path_length=10 * 1e-3, path_width=2 * 1e-3)
        params = circuit.eigenfrequency(geom)
        assert report["f_c_Hz"] == params.f_c
        assert report["C_total_F"] == params.c_total
        assert report["L_total_H"] == params.l_total

    def test_target_frequency_solves_gap(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        rc, _, _ = run_cli(capsys, "design", "--A-mm2", 100, "--l-mm", 10,
                           "--w-mm", 2, "--target-freq-GHz", 2.775,
                           "--out", out)
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["f_c_Hz"] == pytest.approx(2.775e9, rel=1e-12)
        assert report["target_freq_Hz"] == 2.775 * 1e9
        assert report["d_m"] > 0

    def test_plot_data_gap_sweep(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        rc, stdout, _ = run_cli(capsys, "design", "--A-mm2", 100, "--d-mm",
                                0.5, "--l-mm", 10, "--w-mm", 2, "--out", out,
                                "--emit-plot-data")
        assert rc == 0
        plot = tmp_path / "design.dat"
        assert f"wrote {plot}" in stdout
        lines = plot.read_text().splitlines()
        assert lines[0] == "# gap_m f_c_Hz"
        assert len(lines) == 1 + 51

    def test_missing_gap_is_validation_error(self, tmp_path, capsys):
        rc, _, stderr = run_cli(capsys, "design", "--A-mm2", 100, "--l-mm",
                                10, "--w-mm", 2, "--out", tmp_path / "d.json")
        assert rc == 1
        assert stderr.startswith("ERROR:cli:validation:")
        assert "'d_mm'" in stderr


class TestSpins:
    def test_tune_line_and_sweep_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc, stdout, _ = run_cli(capsys, "spins", "--tune-to-GHz", 3.121,
                                "--out", out)
        assert rc == 0
        tune_line = next(l for l in stdout.splitlines()
                         if l.startswith("tuned_B_T="))
        b_star = float(tune_line.split("=")[1])
        levels = nvspin.transition_frequencies(
            nvspin.SpinSpecies(), nvspin.NV_AXES[0],
            b_star * np.array([0.0, 1.0, 0.0]))
        assert abs(levels.f_upper - 3.121e9) <= 1.0
        assert len(out.read_text().splitlines()) == 1 + 81 * 4

    def test_plot_rows_match_direct_computation(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc, _, _ = run_cli(capsys, "spins", "--B-max-mT", 10, "--n-points",
                           5, "--out", out, "--emit-plot-data")
        assert rc == 0
        rows = (tmp_path / "sweep.dat").read_text().splitlines()[1:]
        b_values = np.linspace(0.0, 10 * 1e-3, 5)
        for row, b_mag in zip(rows, b_values):
            b_col, f_lo, f_hi = (float(v) for v in row.split())
            levels = nvspin.transition_frequencies(
                nvspin.SpinSpecies(), nvspin.NV_AXES[0],
                b_mag * np.array([0.0, 1.0, 0.0]))
            assert b_col == b_mag
            assert f_lo == levels.f_lower
            assert f_hi == levels.f_upper

    def test_underflowing_direction_matches_unit_direction(self, tmp_path,
                                                           capsys):
        # 1e-200 squared underflows, so its norm must not be taken directly,
        # neither for the sweep nor for its plot rows.
        runs = {}
        for name, x in (("tiny", "1e-200"), ("unit", "1")):
            out = tmp_path / f"{name}.csv"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc, stdout, stderr = run_cli(capsys, "spins", "--direction", x,
                                             0, 0, "--tune-to-GHz", 3.0,
                                             "--out", out, "--emit-plot-data")
            assert (rc, stderr, caught) == (0, "", [])
            tuned = [l for l in stdout.splitlines() if l.startswith("tuned_B_T=")]
            runs[name] = (tuned, out.read_text(),
                          (tmp_path / f"{name}.dat").read_bytes())
        assert runs["tiny"] == runs["unit"]
        assert len(runs["unit"][0]) == 1

    @pytest.mark.parametrize("direction", [(0, 0, 0), (1e308, 1e308, 0)])
    def test_degenerate_direction_is_domain_error(self, tmp_path, capsys,
                                                  direction):
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, stderr = run_cli(capsys, "spins", "--direction",
                                         *direction, "--out", out)
        assert rc == 1
        assert stdout == ""
        assert stderr == ("ERROR:nvspin:domain: direction must be a nonzero "
                          "finite 3-vector\n")
        assert not out.exists()


class TestFieldmapCommand:
    def test_model_map_with_homogeneity_report(self, tmp_path, capsys):
        out_map = tmp_path / "map.csv"
        out_report = tmp_path / "homog.json"
        rc, stdout, _ = run_cli(
            capsys, "fieldmap", "--sheet-length-mm", 8, "--sheet-width-mm",
            6.6, "--sheet-gap-mm", 1.27, "--grid-extents-mm", 2, 2, 0.8,
            "--grid-dims", 3, 3, 3,
            "--region-center-mm", 0, 0, 0, "--region-extents-mm", 2, 2, 0.8,
            "--out-map", out_map, "--out-report", out_report)
        assert rc == 0
        assert "mean |B| = " in stdout
        report = json.loads(out_report.read_text())
        assert report["mean_field_T"] > 0
        assert 0 <= report["rms_deviation"] <= report["max_deviation"]
        ingested = fm.ingest_map(out_map)
        assert ingested.b.shape == (3, 3, 3, 3)

    def test_file_source_roundtrip(self, tmp_path, capsys):
        infile = tmp_path / "in.csv"
        original = export_uniform_map(infile)
        out_map = tmp_path / "out.csv"
        rc, _, _ = run_cli(capsys, "fieldmap", "--source", "file",
                           "--infile", infile, "--out-map", out_map)
        assert rc == 0
        assert np.array_equal(fm.ingest_map(out_map).b, original.b)

    def test_normalize_flag_sets_photon_frequency(self, tmp_path, capsys):
        infile = tmp_path / "in.csv"
        export_uniform_map(infile)
        out_map = tmp_path / "out.csv"
        rc, _, _ = run_cli(capsys, "fieldmap", "--source", "file",
                           "--infile", infile, "--normalize-to-GHz", 3.121,
                           "--out-map", out_map)
        assert rc == 0
        fmap = fm.ingest_map(out_map)
        assert fmap.photon_frequency_hz == 3.121 * 1e9
        assert fmap.energy_j == pytest.approx(PLANCK_H * 3.121e9, rel=1e-12)

    def test_region_flags_must_come_together(self, tmp_path, capsys):
        infile = tmp_path / "in.csv"
        export_uniform_map(infile)
        rc, _, stderr = run_cli(capsys, "fieldmap", "--source", "file",
                                "--infile", infile,
                                "--region-center-mm", 0, 0, 0,
                                "--out-map", tmp_path / "out.csv")
        assert rc == 1
        assert stderr.startswith("ERROR:cli:validation:")


class TestCouple:
    def test_report_flow(self, tmp_path, capsys):
        map_path = tmp_path / "map.csv"
        export_uniform_map(map_path, magnitude=8.74e-12, f_c=3.121e9,
                           spacing=(3e-3, 3e-3, 1e-3))
        out = tmp_path / "couple.json"
        rc, stdout, _ = run_cli(
            capsys, "couple", "--map", map_path, "--density-ppm", 4.5,
            "--region-center-mm", 0, 0, 0,
            "--region-extents-mm", 4.2, 3.4, 0.92,
            "--kappa-MHz", 1.91, "--gamma-star-MHz", 3, "--out", out)
        assert rc == 0
        payload = json.loads(out.read_text())
        for key in ("g0_mean_Hz", "N_spins", "Omega_Hz", "cooperativity"):
            assert key in payload
        assert payload["cooperativity"] > 0
        assert "g0 mean = " in stdout and "cooperativity = " in stdout

    def test_measured_omega_reported(self, tmp_path, capsys):
        map_path = tmp_path / "map.csv"
        export_uniform_map(map_path, magnitude=8.74e-12, f_c=3.121e9)
        out = tmp_path / "couple.json"
        rc, _, _ = run_cli(
            capsys, "couple", "--map", map_path, "--density-ppm", 4.5,
            "--region-center-mm", 0, 0, 0,
            "--region-extents-mm", 4.2, 3.4, 0.92,
            "--kappa-MHz", 1.91, "--gamma-star-MHz", 3,
            "--Omega-MHz", 12.46, "--out", out)
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["Omega_measured_Hz"] == 12.46 * 1e6
        assert payload["cooperativity_measured"] == pytest.approx(
            cp.cooperativity(12.46 * 1e6, 1.91 * 1e6, 3.0 * 1e6), rel=1e-12)

    def test_unnormalized_map_rejected(self, tmp_path, capsys):
        map_path = tmp_path / "map.csv"
        export_uniform_map(map_path)  # energy only, no photon frequency
        rc, _, stderr = run_cli(
            capsys, "couple", "--map", map_path, "--density-ppm", 4.5,
            "--region-center-mm", 0, 0, 0,
            "--region-extents-mm", 4.2, 3.4, 0.92,
            "--out", tmp_path / "couple.json")
        assert rc == 1
        assert stderr.startswith("ERROR:coupling:")


class TestSpectrumCommand:
    SYSTEM_ARGS = ("--omega-c-GHz", 3.121, "--kappa-MHz", 1.91,
                   "--omega-s-GHz", 3.121, "--gamma-star-MHz", 3.0,
                   "--Omega-MHz", 12.46)

    def system(self):
        return sp.CoupledSystem(omega_c=3.121 * 1e9, kappa=1.91 * 1e6,
                                omega_s=3.121 * 1e9, gamma_star=3.0 * 1e6,
                                Omega=12.46 * 1e6)

    def test_line_spectrum_matches_model(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        rc, _, _ = run_cli(capsys, "spectrum", *self.SYSTEM_ARGS,
                           "--f-min-GHz", 3.091, "--f-max-GHz", 3.151,
                           "--n-points", 11, "--out", out)
        assert rc == 0
        data = sp.read_spectrum(out)
        expected = sp.spectrum(self.system(), 3.091 * 1e9, 3.151 * 1e9, 11)
        assert np.array_equal(data.freq_hz, expected.freq_hz)
        assert np.array_equal(data.s21_sq, expected.s21_sq)

    def test_noise_requires_seed(self, tmp_path, capsys):
        rc, _, stderr = run_cli(capsys, "spectrum", *self.SYSTEM_ARGS,
                                "--f-min-GHz", 3.091, "--f-max-GHz", 3.151,
                                "--noise-fraction", 0.01,
                                "--out", tmp_path / "spec.csv")
        assert rc == 1
        assert stderr.startswith("ERROR:cli:validation:")
        assert "seed" in stderr

    def test_map2d_grid_and_plot_blocks(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc, _, _ = run_cli(capsys, "spectrum", *self.SYSTEM_ARGS, "--map2d",
                           "--delta-min-MHz", -5, "--delta-max-MHz", 5,
                           "--n-delta", 3,
                           "--probe-min-MHz", -30, "--probe-max-MHz", 30,
                           "--n-probe", 5, "--out", out, "--emit-plot-data")
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 5
        plot_lines = (tmp_path / "grid.dat").read_text().splitlines()
        # one comment, then three 5-row blocks separated by blank lines
        assert plot_lines[0].startswith("#")
        blanks = [i for i, l in enumerate(plot_lines) if l == ""]
        assert len(blanks) == 3
        assert len(plot_lines) == 1 + 3 * 5 + 3

    def test_config_supplies_options_and_flags_win(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "spectrum": {"omega_c_GHz": 3.121, "kappa_MHz": 1.91,
                         "omega_s_GHz": 3.121, "gamma_star_MHz": 3.0,
                         "Omega_MHz": 5.0, "f_min_GHz": 3.091,
                         "f_max_GHz": 3.151, "n_points": 11,
                         "out": str(out)}}))
        rc, _, _ = run_cli(capsys, "--config", config, "spectrum")
        assert rc == 0
        from_config = sp.read_spectrum(out)
        weak = sp.CoupledSystem(omega_c=3.121 * 1e9, kappa=1.91 * 1e6,
                                omega_s=3.121 * 1e9, gamma_star=3.0 * 1e6,
                                Omega=5.0 * 1e6)
        assert np.array_equal(from_config.s21_sq,
                              sp.s21_squared(weak, from_config.freq_hz))

        rc, _, _ = run_cli(capsys, "--config", config, "spectrum",
                           "--Omega-MHz", 12.46)
        assert rc == 0
        overridden = sp.read_spectrum(out)
        assert np.array_equal(overridden.s21_sq,
                              sp.s21_squared(self.system(),
                                             overridden.freq_hz))

    def test_config_from_environment(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "spec.csv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "spectrum": {"omega_c_GHz": 3.121, "kappa_MHz": 1.91,
                         "omega_s_GHz": 3.121, "gamma_star_MHz": 3.0,
                         "Omega_MHz": 12.46, "f_min_GHz": 3.091,
                         "f_max_GHz": 3.151, "n_points": 11,
                         "out": str(out)}}))
        monkeypatch.setenv("NVCAVITY_CONFIG", str(config))
        rc, _, _ = run_cli(capsys, "spectrum")
        assert rc == 0
        assert out.exists()

    def test_map2d_honored_from_config(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "spectrum": {"omega_c_GHz": 3.121, "kappa_MHz": 1.91,
                         "omega_s_GHz": 3.121, "gamma_star_MHz": 3.0,
                         "Omega_MHz": 12.46, "map2d": True,
                         "delta_min_MHz": -5, "delta_max_MHz": 5,
                         "n_delta": 3, "probe_min_MHz": -30,
                         "probe_max_MHz": 30, "n_probe": 5,
                         "out": str(out)}}))
        rc, _, _ = run_cli(capsys, "--config", config, "spectrum")
        assert rc == 0
        assert out.read_text().startswith("delta_s_Hz,nu_p_Hz,S21_sq")


class TestFit:
    GUESS_ARGS = ("--omega-c-GHz", 3.1207, "--kappa-MHz", 1.4,
                  "--omega-s-GHz", 3.1214, "--gamma-star-MHz", 2.2,
                  "--Omega-MHz", 9.0)

    def write_reference_spectrum(self, path, db=False):
        truth = sp.CoupledSystem(omega_c=3.121e9, kappa=1.91e6,
                                 omega_s=3.121e9, gamma_star=3.0e6,
                                 Omega=12.46e6)
        spec = sp.spectrum(truth, 3.091e9, 3.151e9, 1201)
        if not db:
            sp.write_spectrum(path, spec)
            return
        lines = ["freq_Hz,S21_sq"]
        lines += [f"{f:.17g},{10.0 * math.log10(v):.17g}"
                  for f, v in zip(spec.freq_hz, spec.s21_sq)]
        path.write_text("\n".join(lines) + "\n")

    def test_fit_recovers_parameters(self, tmp_path, capsys):
        data = tmp_path / "spec.csv"
        self.write_reference_spectrum(data)
        out = tmp_path / "fit.json"
        rc, stdout, _ = run_cli(capsys, "fit", "--data", data,
                                *self.GUESS_ARGS, "--out", out)
        assert rc == 0
        assert "Omega = " in stdout and "residual = " in stdout
        payload = json.loads(out.read_text())
        assert payload["Omega_Hz"] == pytest.approx(12.46e6, rel=1e-6)
        assert payload["kappa_Hz"] == pytest.approx(1.91e6, rel=1e-6)

    def test_fit_decibel_input(self, tmp_path, capsys):
        data = tmp_path / "spec_db.csv"
        self.write_reference_spectrum(data, db=True)
        out = tmp_path / "fit.json"
        rc, _, _ = run_cli(capsys, "fit", "--data", data, "--input-dB",
                           *self.GUESS_ARGS, "--out", out)
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["Omega_Hz"] == pytest.approx(12.46e6, rel=1e-6)

    def test_overflowing_decibel_value_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "db.csv"
        data.write_text("freq_Hz,S21_sq\n1e9,4000\n1.1e9,-3\n")
        out = tmp_path / "fit.json"
        rc, _, stderr = run_cli(capsys, "fit", "--data", data, "--input-dB",
                                *self.GUESS_ARGS, "--out", out)
        assert rc == 1
        assert stderr == (f"ERROR:spectroscopy:validation: {data}:2: dB value "
                          f"4000.0 overflows |S21|^2\n")
        assert not out.exists()

    def test_overflowing_start_is_not_a_converged_fit(self, tmp_path, capsys):
        # A 1 mHz cavity line on a probe sample, scaled by 1e306: the
        # squared residuals and the Jacobian overflow at the start.
        data = tmp_path / "spec.csv"
        self.write_reference_spectrum(data)
        out = tmp_path / "fit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, stdout, stderr = run_cli(
                capsys, "fit", "--data", data, "--omega-c-GHz", 3.121,
                "--kappa-MHz", 1e-9, "--omega-s-GHz", 3.122,
                "--gamma-star-MHz", 1e-9, "--Omega-MHz", 1e-3, "--free",
                "omega_c,kappa,omega_s,gamma_star,Omega,amplitude",
                "--initial-amplitude", 1e306, "--out", out)
        assert (rc, stdout) == (1, "")
        assert stderr.startswith("ERROR:spectroscopy:fit_nonconverged: ")
        assert "(residual inf)" in stderr
        assert not out.exists()

    def test_zero_iterations_rejected(self, tmp_path, capsys):
        data = tmp_path / "spec.csv"
        self.write_reference_spectrum(data)
        rc, _, stderr = run_cli(capsys, "fit", "--data", data,
                                *self.GUESS_ARGS, "--max-iterations", 0,
                                "--out", tmp_path / "fit.json")
        assert rc == 1
        assert stderr.startswith("ERROR:spectroscopy:domain:")
        assert "max_iterations" in stderr

    def test_free_amplitude_starts_at_least_squares_scale(self, tmp_path,
                                                           capsys):
        data = tmp_path / "spec.csv"
        self.write_reference_spectrum(data)
        spec = sp.read_spectrum(data)
        scaled = sp.Spectrum(freq_hz=spec.freq_hz, s21_sq=0.37 * spec.s21_sq)
        sp.write_spectrum(data, scaled)
        guess = sp.CoupledSystem(omega_c=3.1207e9, kappa=1.4e6,
                                 omega_s=3.1214e9, gamma_star=2.2e6, Omega=9e6)
        model = sp.s21_squared(guess, spec.freq_hz)
        out = tmp_path / "fit.json"
        rc, _, _ = run_cli(capsys, "fit", "--data", data, *self.GUESS_ARGS,
                           "--free", "amplitude", "--out", out)
        assert rc == 0
        payload = json.loads(out.read_text())
        # A0 alone is linear, so the start is already the optimum.
        assert payload["n_iterations"] == 1
        assert payload["amplitude"] == pytest.approx(
            model @ scaled.s21_sq / (model @ model), rel=1e-12)

    def test_missing_data_file(self, tmp_path, capsys):
        rc, _, stderr = run_cli(capsys, "fit", "--data",
                                tmp_path / "nope.csv", *self.GUESS_ARGS,
                                "--out", tmp_path / "fit.json")
        assert rc == 1
        assert stderr.startswith("ERROR:cli:validation:")
        assert "not found" in stderr


class TestConstants:
    def test_lists_full_registry(self, capsys):
        from nvcavity.constants import registry

        rc, stdout, _ = run_cli(capsys, "constants")
        assert rc == 0
        for entry in registry():
            assert entry["name"] in stdout
        assert f"{PLANCK_H:.17g}" in stdout


_COLD_PIPELINE = """
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


if sys.argv[1:] == ["--refuse-scipy"]:
    sys.meta_path.insert(0, RefuseScipy())

from nvcavity.cli import main

steps = [
    ["constants"],
    ["design", "--A-mm2", "100", "--l-mm", "10", "--w-mm", "2",
     "--target-freq-GHz", "2.775", "--out", "design.json"],
    ["spins", "--direction", "0", "1", "0", "--tune-to-GHz", "3.121",
     "--n-points", "11", "--out", "sweep.csv"],
    ["fieldmap", "--sheet-length-mm", "8", "--sheet-width-mm", "6.6",
     "--sheet-gap-mm", "1.27", "--grid-extents-mm", "4", "4", "0.8",
     "--grid-dims", "5", "5", "3", "--normalize-to-GHz", "3.121",
     "--region-center-mm", "0", "0", "0", "--region-extents-mm", "2", "2",
     "0.6", "--out-map", "map.csv", "--out-report", "homogeneity.json"],
    ["couple", "--map", "map.csv", "--density-ppm", "40",
     "--region-center-mm", "0", "0", "0", "--region-extents-mm", "2", "2",
     "0.6", "--kappa-MHz", "1.91", "--gamma-star-MHz", "3",
     "--out", "coupling.json"],
    ["spectrum", "--omega-c-GHz", "3.121", "--kappa-MHz", "1.91",
     "--omega-s-GHz", "3.121", "--gamma-star-MHz", "3", "--Omega-MHz",
     "12.46", "--f-min-GHz", "3.091", "--f-max-GHz", "3.151",
     "--n-points", "601", "--noise-fraction", "0.01", "--seed", "7",
     "--out", "spectrum.csv"],
    ["fit", "--data", "spectrum.csv", "--omega-c-GHz", "3.1207",
     "--kappa-MHz", "1.4", "--omega-s-GHz", "3.1214",
     "--gamma-star-MHz", "2.2", "--Omega-MHz", "9", "--out", "fit.json"],
]
for argv in steps:
    assert main(argv) == 0, argv
print("scipy loaded:", "scipy" in sys.modules)
"""


def test_no_subcommand_imports_scipy(tmp_path):
    import nvcavity

    src = str(Path(nvcavity.__file__).resolve().parent.parent)
    # Once as is, once with every scipy import refused.
    for extra in ([], ["--refuse-scipy"]):
        cwd = tmp_path / (extra[0][2:] if extra else "plain")
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", _COLD_PIPELINE, *extra],
                              cwd=cwd, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "scipy loaded: False" in proc.stdout
        payload = json.loads((cwd / "fit.json").read_text())
        assert payload["Omega_Hz"] == pytest.approx(12.46e6, rel=0.02)


_DESIGN = ("design", "--A-mm2", 100, "--l-mm", 10, "--w-mm", 2)
_SPECTRUM = ("spectrum", "--omega-c-GHz", 3.121, "--kappa-MHz", 1.91,
             "--omega-s-GHz", 3.121, "--gamma-star-MHz", 3, "--Omega-MHz",
             12.46, "--f-min-GHz", 3.091, "--f-max-GHz", 3.151)
_COUPLE = ("couple", "--map", "map.csv", "--density-ppm", 40,
           "--region-center-mm", 0, 0, 0, "--region-extents-mm", 2, 2, 0.6)


@pytest.mark.parametrize("module, argv", [
    ("circuit", (*_DESIGN, "--d-mm", 1, "--k-L", "nan")),
    ("circuit", (*_DESIGN, "--d-mm", 1, "--k-L", "inf")),
    ("circuit", (*_DESIGN, "--d-mm", 1, "--k-L", 1e-320)),
    ("circuit", (*_DESIGN, "--d-mm", 1, "--epsilon-r", "nan")),
    ("circuit", ("design", "--A-mm2", 1e300, "--l-mm", 10, "--w-mm", 2,
                 "--d-mm", 1e-300)),
    ("circuit", (*_DESIGN, "--target-freq-GHz", 1e150)),
    ("nvspin", ("spins", "--g-factor", "nan")),
    ("nvspin", ("spins", "--g-factor", "inf")),
    ("nvspin", ("spins", "--D-GHz", "inf")),
    ("nvspin", ("spins", "--g-factor", 1e300, "--tune-to-GHz", 3)),
    ("spectroscopy", (*_SPECTRUM, "--noise-fraction", 0.01, "--seed", -1)),
    ("coupling", (*_COUPLE, "--kappa-MHz", 1e-300, "--gamma-star-MHz", 1e-300)),
])
def test_out_of_range_input_is_domain_error(tmp_path, capsys, monkeypatch,
                                            module, argv):
    # Each input once slipped past a "<= 0" check or overflowed: it wrote
    # NaN or Infinity into a report, or ended in exit 70.
    monkeypatch.chdir(tmp_path)
    export_uniform_map("map.csv", magnitude=8.74e-12, f_c=3.121e9)
    before = set(tmp_path.iterdir())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, stdout, stderr = run_cli(capsys, *argv, "--out", "result")
    assert rc == 1
    assert stderr.startswith(f"ERROR:{module}:domain: ")
    assert "wrote" not in stdout
    assert set(tmp_path.iterdir()) == before
    assert caught == []


class TestErrorProtocol:
    def test_domain_error_carries_module_tag(self, tmp_path, capsys):
        rc, _, stderr = run_cli(capsys, "design", "--A-mm2", -1, "--d-mm",
                                0.5, "--l-mm", 10, "--w-mm", 2,
                                "--out", tmp_path / "d.json")
        assert rc == 1
        assert stderr.startswith("ERROR:circuit:domain:")

    def test_invalid_config_json(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("not json {")
        rc, _, stderr = run_cli(capsys, "--config", config, "constants")
        assert rc == 1
        assert stderr.startswith("ERROR:cli:validation:")

    def test_config_must_be_object(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("[1, 2]")
        rc, _, stderr = run_cli(capsys, "--config", config, "constants")
        assert rc == 1
        assert stderr.startswith("ERROR:cli:validation:")

    def test_config_sections_must_be_objects(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"design": 5}))
        rc, _, stderr = run_cli(capsys, "--config", config, "constants")
        assert rc == 1
        assert stderr.startswith("ERROR:cli:validation:")

    @pytest.mark.parametrize("command, section, argv", [
        ("design", {"A_mm2": "big"}, ["--l-mm", 10, "--w-mm", 2, "--d-mm", 1]),
        ("spins", {"n_points": "many"}, []),
        ("spins", {"direction": ["x", 0, 1]}, []),
        ("fieldmap", {"bins": 0.05}, ["--sheet-length-mm", 8,
                                      "--sheet-width-mm", 6.6,
                                      "--sheet-gap-mm", 1.27,
                                      "--grid-extents-mm", 2, 2, 0.8,
                                      "--grid-dims", 3, 3, 3,
                                      "--region-center-mm", 0, 0, 0,
                                      "--region-extents-mm", 2, 2, 0.8]),
        ("spectrum", {"f_min_GHz": [3.0]}, ["--omega-c-GHz", 3.121,
                                            "--kappa-MHz", 1.91,
                                            "--omega-s-GHz", 3.121,
                                            "--gamma-star-MHz", 3.0,
                                            "--Omega-MHz", 12.46]),
        ("design", {"out": 5}, ["--A-mm2", 100, "--l-mm", 10, "--w-mm", 2,
                                "--d-mm", 1]),
        ("fit", {"free": 5}, ["--data", "spectrum.csv",
                              "--omega-c-GHz", 3.121, "--kappa-MHz", 1.91,
                              "--omega-s-GHz", 3.121,
                              "--gamma-star-MHz", 3.0, "--Omega-MHz", 12.46]),
        ("fit", {"input_dB": "false"}, ["--data", "spectrum.csv",
                                        "--omega-c-GHz", 3.121,
                                        "--kappa-MHz", 1.91,
                                        "--omega-s-GHz", 3.121,
                                        "--gamma-star-MHz", 3.0,
                                        "--Omega-MHz", 12.46]),
        ("spectrum", {"map2d": "no"}, ["--omega-c-GHz", 3.121,
                                       "--kappa-MHz", 1.91,
                                       "--omega-s-GHz", 3.121,
                                       "--gamma-star-MHz", 3.0,
                                       "--Omega-MHz", 12.46,
                                       "--delta-min-MHz", -5,
                                       "--delta-max-MHz", 5, "--n-delta", 3,
                                       "--probe-min-MHz", -30,
                                       "--probe-max-MHz", 30, "--n-probe", 5,
                                       "--f-min-GHz", 3.091,
                                       "--f-max-GHz", 3.151]),
        ("spins", {"n_points": 5.9}, []),
        ("fieldmap", {"grid_dims": [3.9, 3, 3]}, ["--sheet-length-mm", 8,
                                                  "--sheet-width-mm", 6.6,
                                                  "--sheet-gap-mm", 1.27,
                                                  "--grid-extents-mm",
                                                  2, 2, 0.8]),
        ("design", {"A_mm2": True}, ["--l-mm", 10, "--w-mm", 2,
                                     "--d-mm", 1]),
    ])
    def test_malformed_config_value_names_the_key(self, tmp_path, capsys,
                                                  monkeypatch, command,
                                                  section, argv):
        monkeypatch.chdir(tmp_path)
        sp.write_spectrum("spectrum.csv", sp.spectrum(sp.CoupledSystem(
            omega_c=3.121e9, kappa=1.91e6, omega_s=3.121e9, gamma_star=3.0e6,
            Omega=12.46e6), 3.091e9, 3.151e9, 101))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({command: section}))
        rc, _, stderr = run_cli(capsys, "--config", config, command, *argv)
        assert rc == 1
        assert stderr.startswith("ERROR:cli:validation:")
        assert f"'{next(iter(section))}'" in stderr
