"""Command-line front end binding all toolkit modules.

Subcommands: design, spins, fieldmap, couple, spectrum, fit, constants.
Every option can come from a JSON config file (section per subcommand,
keys matching the flag names with underscores and explicit unit
suffixes); command-line flags win over config values.  The config path
comes from --config or the NVCAVITY_CONFIG environment variable.

All errors print a machine-parsable ``ERROR:<module>:<code>: message``
line on stderr; exit status is 0 only when every requested output was
written.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import circuit, constants, coupling, fieldmap, nvspin, spectroscopy
from ._fileio import atomic_write_text
from .errors import ToolkitError, ValidationError

_MODULE = "cli"
_CONFIG_ENV_VAR = "NVCAVITY_CONFIG"

_MM = 1e-3
_MM2 = 1e-6
_GHZ = 1e9
_MHZ = 1e6


def _load_config(path):
    if path is None:
        path = os.environ.get(_CONFIG_ENV_VAR) or None
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}",
                              module=_MODULE) from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}",
                              module=_MODULE) from exc
    if not isinstance(config, dict):
        raise ValidationError(f"config {path} must be a JSON object",
                              module=_MODULE)
    for section, values in config.items():
        if not isinstance(values, dict):
            raise ValidationError(f"config section '{section}' must be an "
                                  f"object", module=_MODULE)
    return config


def _as_names(value) -> tuple:
    if isinstance(value, str):
        value = value.split(",")
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"not a list of names: {value!r}")
    return tuple(name.strip() for name in value if name.strip())


def _as_path(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"not a path: {value!r}")
    return value


class _Resolver:
    """Option lookup: CLI flag, then config section, then default."""

    def __init__(self, args, config):
        self._args = args
        self._section = config.get(args.command, {})

    def get(self, key, default=None):
        value = getattr(self._args, key, None)
        if value is None:
            value = self._section.get(key, default)
        return value

    def flag(self, key) -> bool:
        # store_true flags default to False rather than None, so fall
        # through to the config section whenever the flag was not given.
        if getattr(self._args, key, False):
            return True
        return bool(self._section.get(key, False))

    def require(self, key):
        value = self.get(key)
        if value is None:
            flag = "--" + key.replace("_", "-")
            raise ValidationError(
                f"missing required key '{key}' (flag {flag} or config "
                f"section '{self._args.command}')", module=_MODULE)
        return value

    def _typed(self, key, kind, convert, default, required):
        value = self.require(key) if required else self.get(key, default)
        if value is None:
            return None
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"key '{key}' must be {kind}, got {value!r}",
                                  module=_MODULE) from exc

    def number(self, key, default=None, required=False):
        return self._typed(key, "a number", float, default, required)

    def integer(self, key, default=None, required=False):
        return self._typed(key, "an integer", int, default, required)

    def numbers(self, key):
        return self._typed(key, "a list of numbers",
                           lambda value: tuple(float(v) for v in value),
                           None, False)

    def vector3(self, key, default=None, required=False):
        vec = self._typed(key, "a 3-vector of numbers",
                          lambda value: np.asarray(value, dtype=float),
                          default, required)
        if vec is None:
            return None
        if vec.shape != (3,):
            raise ValidationError(f"key '{key}' must be a 3-vector",
                                  module=_MODULE)
        return vec

    def names(self, key):
        return self._typed(key, "a comma-separated string or a list of names",
                           _as_names, None, False)

    def path(self, key, default=None, required=False):
        return self._typed(key, "a path string", _as_path, default, required)

    def input_path(self, key):
        path = self.path(key, required=True)
        if not os.path.exists(path):
            raise ValidationError(f"input file for '{key}' not found: {path}",
                                  module=_MODULE)
        return path


def _plot_path(out_path: str) -> str:
    root, _ = os.path.splitext(out_path)
    return root + ".dat"


def _write_plot_rows(path, rows, comment: str) -> None:
    lines = [f"# {comment}"]
    for row in rows:
        if row is None:
            lines.append("")
        else:
            lines.append(" ".join(f"{v:.17g}" for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _print_written(path) -> None:
    print(f"wrote {path}")


def cmd_design(args, config) -> int:
    opts = _Resolver(args, config)
    area = opts.number("A_mm2", required=True) * _MM2
    length = opts.number("l_mm", required=True) * _MM
    width = opts.number("w_mm", required=True) * _MM
    k_l = opts.number("k_L", 1.0)
    eps_r = opts.number("epsilon_r", 1.0)
    target_ghz = opts.number("target_freq_GHz")
    if target_ghz is not None:
        probe = circuit.CavityGeometry(plate_area=area, gap=1e-3,
                                       path_length=length, path_width=width)
        gap = circuit.gap_for_frequency(probe, target_ghz * _GHZ,
                                        inductance_scale=k_l,
                                        relative_permittivity=eps_r)
    else:
        gap = opts.number("d_mm", required=True) * _MM
    geom = circuit.CavityGeometry(plate_area=area, gap=gap,
                                  path_length=length, path_width=width)
    params = circuit.eigenfrequency(geom, inductance_scale=k_l,
                                    relative_permittivity=eps_r)
    report = {
        "A_m2": area, "d_m": gap, "l_m": length, "w_m": width,
        "k_L": k_l, "epsilon_r": eps_r,
        "C_total_F": params.c_total, "L_total_H": params.l_total,
        "omega_c_rad_per_s": params.omega_c, "f_c_Hz": params.f_c,
    }
    if target_ghz is not None:
        report["target_freq_Hz"] = target_ghz * _GHZ

    rows = [("plate area", f"{area:.6g} m^2"),
            ("gap", f"{gap:.6g} m"),
            ("path length", f"{length:.6g} m"),
            ("path width", f"{width:.6g} m"),
            ("C_total", f"{params.c_total:.6g} F"),
            ("L_total", f"{params.l_total:.6g} H"),
            ("f_c", f"{params.f_c:.6g} Hz")]
    for name, value in rows:
        print(f"{name:<12} {value}")

    out = opts.path("out", "design_report.json")
    atomic_write_text(out, json.dumps(report, indent=2) + "\n")
    _print_written(out)
    if args.emit_plot_data:
        gaps = np.linspace(0.5 * gap, 1.5 * gap, 51)
        sweep = []
        for d in gaps:
            g = circuit.CavityGeometry(plate_area=area, gap=float(d),
                                       path_length=length, path_width=width)
            sweep.append((d, circuit.eigenfrequency(
                g, inductance_scale=k_l, relative_permittivity=eps_r).f_c))
        plot = _plot_path(out)
        _write_plot_rows(plot, sweep, "gap_m f_c_Hz")
        _print_written(plot)
    return 0


def cmd_spins(args, config) -> int:
    opts = _Resolver(args, config)
    species = nvspin.SpinSpecies(
        zero_field_splitting=opts.number("D_GHz", 2.87) * _GHZ,
        g_factor=opts.number("g_factor", 2.0028))
    direction = opts.vector3("direction", default=[0.0, 1.0, 0.0])
    b_max = opts.number("B_max_mT", 20.0) * 1e-3
    n_points = opts.integer("n_points", 81)
    if n_points < 2 or b_max <= 0:
        raise ValidationError("sweep needs B_max_mT > 0 and n_points >= 2",
                              module=_MODULE)
    b_values = np.linspace(0.0, b_max, n_points)

    tune_ghz = opts.number("tune_to_GHz")
    if tune_ghz is not None:
        branch = opts.get("branch", "upper")
        b_star = nvspin.zeeman_tune(species, nvspin.NV_AXES, direction,
                                    tune_ghz * _GHZ, which=branch)
        print(f"tuned_B_T={b_star:.17g}")

    out = opts.path("out", "spins_sweep.csv")
    nvspin.write_transition_sweep(out, species, direction, b_values)
    _print_written(out)
    if args.emit_plot_data:
        rows = []
        for b_mag in b_values:
            levels = nvspin.transition_frequencies(species, nvspin.NV_AXES[0],
                                                   b_mag * direction
                                                   / np.linalg.norm(direction))
            rows.append((b_mag, levels.f_lower, levels.f_upper))
        plot = _plot_path(out)
        _write_plot_rows(plot, rows,
                         "B_T f_lower_Hz f_upper_Hz (sub-ensemble 0)")
        _print_written(plot)
    return 0


def _fieldmap_from_opts(opts) -> fieldmap.FieldMap:
    source = opts.get("source", "model")
    if source == "file":
        return fieldmap.ingest_map(opts.input_path("infile"))
    if source != "model":
        raise ValidationError("source must be 'model' or 'file'",
                              module=_MODULE)
    sheets = fieldmap.bowtie_sheet_pair(
        length=opts.number("sheet_length_mm", required=True) * _MM,
        width=opts.number("sheet_width_mm", required=True) * _MM,
        gap=opts.number("sheet_gap_mm", required=True) * _MM,
        surface_current=opts.number("surface_current_A_per_m", 1.0))
    extents = opts.vector3("grid_extents_mm", required=True) * _MM
    dims = opts.vector3("grid_dims", required=True)
    grid = fieldmap.GridSpec.centered(extents, tuple(int(n) for n in dims))
    return fieldmap.biot_savart_map(sheets, grid)


def cmd_fieldmap(args, config) -> int:
    opts = _Resolver(args, config)
    fmap = _fieldmap_from_opts(opts)
    norm_ghz = opts.number("normalize_to_GHz")
    if norm_ghz is not None:
        fmap = fieldmap.normalize_to_vacuum(fmap, norm_ghz * _GHZ)

    out_map = opts.path("out_map", "fieldmap.csv")
    fieldmap.export_map(out_map, fmap)
    _print_written(out_map)

    center = opts.vector3("region_center_mm")
    extents = opts.vector3("region_extents_mm")
    if (center is None) != (extents is None):
        raise ValidationError("region_center_mm and region_extents_mm must "
                              "be given together", module=_MODULE)
    if center is not None:
        region = fieldmap.SampleRegion(center=center * _MM,
                                       extents=extents * _MM)
        bins = opts.numbers("bins")
        if bins is None:
            report = fieldmap.homogeneity(fmap, region)
        else:
            report = fieldmap.homogeneity(fmap, region, bins=bins)
        out_report = opts.path("out_report", "homogeneity.json")
        atomic_write_text(out_report, json.dumps(report.as_dict(), indent=2) + "\n")
        _print_written(out_report)
        print(f"mean |B| = {report.mean_field_t:.6g} T, "
              f"rms deviation = {report.rms_deviation:.4%}, "
              f"max deviation = {report.max_deviation:.4%}")
        if args.emit_plot_data:
            rows = [(edge, fraction) if math.isfinite(edge)
                    else (10.0 * report.max_deviation + 1.0, fraction)
                    for edge, fraction in report.contour_histogram]
            plot = _plot_path(out_report)
            _write_plot_rows(plot, rows, "deviation_bin_edge volume_fraction")
            _print_written(plot)
    return 0


def cmd_couple(args, config) -> int:
    opts = _Resolver(args, config)
    fmap = fieldmap.ingest_map(opts.input_path("map"))
    center = opts.vector3("region_center_mm", required=True) * _MM
    extents = opts.vector3("region_extents_mm", required=True) * _MM
    ens = coupling.EnsembleSpec(
        density_ppm=opts.number("density_ppm", required=True),
        region=fieldmap.SampleRegion(center=center, extents=extents))
    species = nvspin.SpinSpecies(
        zero_field_splitting=opts.number("D_GHz", 2.87) * _GHZ,
        g_factor=opts.number("g_factor", 2.0028))

    kappa_mhz = opts.number("kappa_MHz")
    gamma_mhz = opts.number("gamma_star_MHz")
    kappa = None if kappa_mhz is None else kappa_mhz * _MHZ
    gamma_star = None if gamma_mhz is None else gamma_mhz * _MHZ
    report = coupling.coupling_report(fmap, ens, species=species,
                                      kappa=kappa, gamma_star=gamma_star)
    payload = report.as_dict()

    omega_mhz = opts.number("Omega_MHz")
    if omega_mhz is not None:
        omega_meas = omega_mhz * _MHZ
        payload["Omega_measured_Hz"] = omega_meas
        if kappa is not None and gamma_star is not None:
            payload["cooperativity_measured"] = coupling.cooperativity(
                omega_meas, kappa, gamma_star)

    out = opts.path("out", "coupling_report.json")
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    _print_written(out)
    print(f"g0 mean = {report.g0_mean:.6g} Hz, N = {report.n_spins:.6g}, "
          f"Omega = {report.omega:.6g} Hz")
    if report.cooperativity is not None:
        print(f"cooperativity = {report.cooperativity:.6g}")
    return 0


def _system_from_opts(opts) -> spectroscopy.CoupledSystem:
    return spectroscopy.CoupledSystem(
        omega_c=opts.number("omega_c_GHz", required=True) * _GHZ,
        kappa=opts.number("kappa_MHz", required=True) * _MHZ,
        omega_s=opts.number("omega_s_GHz", required=True) * _GHZ,
        gamma_star=opts.number("gamma_star_MHz", required=True) * _MHZ,
        Omega=opts.number("Omega_MHz", required=True) * _MHZ)


def cmd_spectrum(args, config) -> int:
    opts = _Resolver(args, config)
    sys_ = _system_from_opts(opts)
    if opts.flag("map2d"):
        delta = (opts.number("delta_min_MHz", required=True) * _MHZ,
                 opts.number("delta_max_MHz", required=True) * _MHZ)
        probe = (opts.number("probe_min_MHz", required=True) * _MHZ,
                 opts.number("probe_max_MHz", required=True) * _MHZ)
        dims = (opts.integer("n_delta", required=True),
                opts.integer("n_probe", required=True))
        grid = spectroscopy.avoided_crossing_map(sys_, delta, probe, dims)
        out = opts.path("out", "crossing_map.csv")
        spectroscopy.write_grid(out, grid)
        _print_written(out)
        if args.emit_plot_data:
            rows = []
            for i, d in enumerate(grid.delta_s_hz):
                rows.extend((d, nu, grid.s21_sq[i, j])
                            for j, nu in enumerate(grid.nu_p_hz))
                rows.append(None)
            plot = _plot_path(out)
            _write_plot_rows(plot, rows, "delta_s_Hz nu_p_Hz S21_sq")
            _print_written(plot)
        return 0

    f_min = opts.number("f_min_GHz", required=True) * _GHZ
    f_max = opts.number("f_max_GHz", required=True) * _GHZ
    n_points = opts.integer("n_points", 2001)
    spec = spectroscopy.spectrum(sys_, f_min, f_max, n_points)
    noise = opts.number("noise_fraction")
    if noise is not None:
        seed = opts.integer("seed")
        if seed is None:
            raise ValidationError("noise_fraction requires an explicit seed",
                                  module=_MODULE)
        spec = spectroscopy.with_multiplicative_noise(spec, noise, seed)
    out = opts.path("out", "spectrum.csv")
    spectroscopy.write_spectrum(out, spec)
    _print_written(out)
    if args.emit_plot_data:
        plot = _plot_path(out)
        _write_plot_rows(plot, zip(spec.freq_hz, spec.s21_sq),
                         "freq_Hz S21_sq")
        _print_written(plot)
    return 0


def cmd_fit(args, config) -> int:
    opts = _Resolver(args, config)
    in_db = opts.flag("input_dB")
    data = spectroscopy.read_spectrum(opts.input_path("data"),
                                      magnitude="dB" if in_db else "linear")
    initial = _system_from_opts(opts)
    free = opts.names("free")
    result = spectroscopy.fit_spectrum(
        data, initial, free=free,
        initial_amplitude=opts.number("initial_amplitude", 1.0),
        max_iterations=opts.integer("max_iterations", 200))

    out = opts.path("out", "fit_result.json")
    spectroscopy.write_fit_result(out, result)
    _print_written(out)
    print(f"Omega = {result.system.Omega:.6g} Hz, "
          f"kappa = {result.system.kappa:.6g} Hz, "
          f"gamma_star = {result.system.gamma_star:.6g} Hz, "
          f"residual = {result.residual:.6g}")
    if args.emit_plot_data:
        model = spectroscopy.s21_squared(result.system, data.freq_hz)
        rows = zip(data.freq_hz, data.s21_sq, result.amplitude * model)
        plot = _plot_path(out)
        _write_plot_rows(plot, rows, "freq_Hz S21_sq_data S21_sq_model")
        _print_written(plot)
    return 0


def cmd_constants(args, config) -> int:
    for entry in constants.registry():
        print(f"{entry['name']:<26} {entry['value']:<25.17g} "
              f"{entry['unit']:<14} {entry['description']}")
    return 0


_COMMANDS = {
    "design": cmd_design,
    "spins": cmd_spins,
    "fieldmap": cmd_fieldmap,
    "couple": cmd_couple,
    "spectrum": cmd_spectrum,
    "fit": cmd_fit,
    "constants": cmd_constants,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvcavity",
        description="Design and analysis toolkit for 3D lumped-element "
                    "microwave cavities coupled to NV spin ensembles.")
    parser.add_argument("--config", default=None,
                        help=f"JSON config file (default from "
                             f"${_CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="lumped-element resonator parameters")
    p.add_argument("--A-mm2", dest="A_mm2", type=float,
                   help="capacitor plate area [mm^2]")
    p.add_argument("--d-mm", dest="d_mm", type=float,
                   help="capacitor gap [mm]")
    p.add_argument("--l-mm", dest="l_mm", type=float,
                   help="inductor path length [mm]")
    p.add_argument("--w-mm", dest="w_mm", type=float,
                   help="inductor path width [mm]")
    p.add_argument("--k-L", dest="k_L", type=float,
                   help="inductance calibration scale (default 1)")
    p.add_argument("--epsilon-r", dest="epsilon_r", type=float,
                   help="relative permittivity of the gap (default 1)")
    p.add_argument("--target-freq-GHz", dest="target_freq_GHz", type=float,
                   help="solve the gap for this eigenfrequency instead of "
                        "using --d-mm")
    p.add_argument("--out", help="JSON report path")

    p = sub.add_parser("spins", help="NV transition sweep and Zeeman tuning")
    p.add_argument("--direction", nargs=3, type=float, metavar=("X", "Y", "Z"),
                   help="static field direction in the crystal frame")
    p.add_argument("--B-max-mT", dest="B_max_mT", type=float,
                   help="sweep maximum field [mT]")
    p.add_argument("--n-points", dest="n_points", type=int,
                   help="sweep points")
    p.add_argument("--D-GHz", dest="D_GHz", type=float,
                   help="zero-field splitting [GHz] (default 2.87)")
    p.add_argument("--g-factor", dest="g_factor", type=float,
                   help="electron g-factor (default 2.0028)")
    p.add_argument("--tune-to-GHz", dest="tune_to_GHz", type=float,
                   help="solve the field magnitude reaching this transition")
    p.add_argument("--branch", choices=("lower", "upper"),
                   help="transition branch for tuning (default upper)")
    p.add_argument("--out", help="sweep CSV path")

    p = sub.add_parser("fieldmap", help="generate or ingest a field map")
    p.add_argument("--source", choices=("model", "file"),
                   help="map source (default model)")
    p.add_argument("--infile", help="map CSV to ingest when source=file")
    p.add_argument("--sheet-length-mm", dest="sheet_length_mm", type=float)
    p.add_argument("--sheet-width-mm", dest="sheet_width_mm", type=float)
    p.add_argument("--sheet-gap-mm", dest="sheet_gap_mm", type=float)
    p.add_argument("--surface-current-A-per-m", dest="surface_current_A_per_m",
                   type=float, help="sheet current density (default 1)")
    p.add_argument("--grid-extents-mm", dest="grid_extents_mm", nargs=3,
                   type=float, metavar=("EX", "EY", "EZ"))
    p.add_argument("--grid-dims", dest="grid_dims", nargs=3, type=int,
                   metavar=("NX", "NY", "NZ"))
    p.add_argument("--normalize-to-GHz", dest="normalize_to_GHz", type=float,
                   help="rescale to the single-photon field of this mode "
                        "frequency")
    p.add_argument("--region-center-mm", dest="region_center_mm", nargs=3,
                   type=float, metavar=("CX", "CY", "CZ"))
    p.add_argument("--region-extents-mm", dest="region_extents_mm", nargs=3,
                   type=float, metavar=("EX", "EY", "EZ"))
    p.add_argument("--bins", nargs="+", type=float,
                   help="homogeneity histogram bin edges (fractions)")
    p.add_argument("--out-map", dest="out_map", help="map CSV path")
    p.add_argument("--out-report", dest="out_report",
                   help="homogeneity JSON path")

    p = sub.add_parser("couple", help="ensemble coupling report")
    p.add_argument("--map", help="normalized field-map CSV")
    p.add_argument("--density-ppm", dest="density_ppm", type=float,
                   help="NV density [ppm of carbon sites]")
    p.add_argument("--region-center-mm", dest="region_center_mm", nargs=3,
                   type=float, metavar=("CX", "CY", "CZ"))
    p.add_argument("--region-extents-mm", dest="region_extents_mm", nargs=3,
                   type=float, metavar=("EX", "EY", "EZ"))
    p.add_argument("--D-GHz", dest="D_GHz", type=float)
    p.add_argument("--g-factor", dest="g_factor", type=float)
    p.add_argument("--kappa-MHz", dest="kappa_MHz", type=float,
                   help="cavity HWHM linewidth [MHz] (for cooperativity)")
    p.add_argument("--gamma-star-MHz", dest="gamma_star_MHz", type=float,
                   help="spin HWHM linewidth [MHz] (for cooperativity)")
    p.add_argument("--Omega-MHz", dest="Omega_MHz", type=float,
                   help="measured collective coupling [MHz], reported "
                        "alongside the model value")
    p.add_argument("--out", help="report JSON path")

    p = sub.add_parser("spectrum", help="simulate transmission")
    for flag, dest in (("--omega-c-GHz", "omega_c_GHz"),
                       ("--kappa-MHz", "kappa_MHz"),
                       ("--omega-s-GHz", "omega_s_GHz"),
                       ("--gamma-star-MHz", "gamma_star_MHz"),
                       ("--Omega-MHz", "Omega_MHz")):
        p.add_argument(flag, dest=dest, type=float)
    p.add_argument("--f-min-GHz", dest="f_min_GHz", type=float)
    p.add_argument("--f-max-GHz", dest="f_max_GHz", type=float)
    p.add_argument("--n-points", dest="n_points", type=int)
    p.add_argument("--noise-fraction", dest="noise_fraction", type=float,
                   help="multiplicative Gaussian noise level")
    p.add_argument("--seed", type=int, help="noise seed (required with "
                                            "--noise-fraction)")
    p.add_argument("--map2d", action="store_true",
                   help="sweep cavity detuning too (avoided-crossing map)")
    p.add_argument("--delta-min-MHz", dest="delta_min_MHz", type=float)
    p.add_argument("--delta-max-MHz", dest="delta_max_MHz", type=float)
    p.add_argument("--n-delta", dest="n_delta", type=int)
    p.add_argument("--probe-min-MHz", dest="probe_min_MHz", type=float)
    p.add_argument("--probe-max-MHz", dest="probe_max_MHz", type=float)
    p.add_argument("--n-probe", dest="n_probe", type=int)
    p.add_argument("--out", help="CSV path")

    p = sub.add_parser("fit", help="fit the transmission model to a spectrum")
    p.add_argument("--data", help="spectrum CSV (freq_Hz,S21_sq)")
    p.add_argument("--input-dB", dest="input_dB", action="store_true",
                   help="data column is |S21|^2 in dB; convert to linear")
    for flag, dest in (("--omega-c-GHz", "omega_c_GHz"),
                       ("--kappa-MHz", "kappa_MHz"),
                       ("--omega-s-GHz", "omega_s_GHz"),
                       ("--gamma-star-MHz", "gamma_star_MHz"),
                       ("--Omega-MHz", "Omega_MHz")):
        p.add_argument(flag, dest=dest, type=float,
                       help="initial guess")
    p.add_argument("--free", help="comma-separated free parameter names "
                                  "(default: the five system parameters; "
                                  "'amplitude' adds an overall scale)")
    p.add_argument("--initial-amplitude", dest="initial_amplitude", type=float)
    p.add_argument("--max-iterations", dest="max_iterations", type=int,
                   help="cap on the solver's model evaluations (default 200)")
    p.add_argument("--out", help="fit JSON path")

    sub.add_parser("constants", help="print the physical-constants registry")

    for name, p in sub.choices.items():
        if name != "constants":
            p.add_argument("--emit-plot-data", dest="emit_plot_data",
                           action="store_true",
                           help="also write gnuplot-ready column files")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except ToolkitError as exc:
        print(f"ERROR:{exc.module}:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR:cli:io: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"ERROR:cli:internal: {exc!r}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
