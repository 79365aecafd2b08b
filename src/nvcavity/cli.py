"""Command-line front end binding all toolkit modules.

Subcommands: design, spins, fieldmap, couple, spectrum, fit, constants.
``_OPTIONS`` declares every option once as (key, kind, default, help);
its flag is ``--`` plus the key with dashes, and ``--help`` shows its
default.  Any option can also come from the command's section of a JSON
config file (--config or NVCAVITY_CONFIG).  Before a command runs, each
option resolves once: flag, else config value checked against its kind
(JSON booleans, whole-number integers, JSON lists for vectors; unknown
keys are ignored), else default.  Keys with a unit suffix (_mm, _mm2,
_mT, _GHz, _MHz) are scaled to SI.

All errors print a machine-parsable ``ERROR:<module>:<code>: message``
line on stderr; exit status is 0 only when every requested output was
written.
"""

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

# Each command imports the modules it runs, so `constants` and `design`
# start without numpy and none loads a solver it does not use.
from . import constants
from ._fileio import write_json, write_table
from .errors import ToolkitError, ValidationError, require_allocatable

_MODULE = "cli"
_CONFIG_ENV_VAR = "NVCAVITY_CONFIG"

# SI factor of each unit suffix a key can end in.
_SI = {"mm": 1e-3, "mm2": 1e-6, "mT": 1e-3, "GHz": 1e9, "MHz": 1e6}


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


class _Kind(NamedTuple):
    """An option type: what it must be, its converter, its argparse keywords."""

    text: str
    convert: Callable
    argparse: dict


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def _exactly(type_):
    def converted(value):
        if not isinstance(value, type_):
            raise TypeError(value)
        return value
    return converted


def _list_of(convert, length=None):
    def converted(value) -> tuple:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            raise TypeError(value)
        return tuple(convert(v) for v in value)
    return converted


def _vector(value):
    import numpy as np

    return np.array(_list_of(_number, 3)(value))


def _names(value) -> tuple:
    names = value.split(",") if isinstance(value, str) else value
    return tuple(n.strip() for n in _list_of(_exactly(str))(names) if n.strip())


def _choice(*choices) -> _Kind:
    def converted(value):
        if not (isinstance(value, str) and value in choices):
            raise ValueError(value)
        return value
    return _Kind(f"one of {', '.join(choices)}", converted, {"choices": choices})


_NUMBER = _Kind("a number", _number, {"type": float})
_INTEGER = _Kind("an integer", _integer, {"type": int})
_VECTOR = _Kind("a list of 3 numbers", _vector,
                {"type": float, "nargs": 3, "metavar": ("X", "Y", "Z")})
_INTEGERS3 = _Kind("a list of 3 integers", _list_of(_integer, 3),
                   {"type": int, "nargs": 3, "metavar": ("NX", "NY", "NZ")})
_NUMBERS = _Kind("a list of numbers", _list_of(_number),
                 {"type": float, "nargs": "+"})
_PATH = _Kind("a path string", _exactly(str), {"metavar": "PATH"})
_NAMES = _Kind("a comma-separated string or a list of names", _names,
               {"metavar": "NAMES"})
_FLAG = _Kind("true or false", _exactly(bool), {"action": "store_true"})

_SYSTEM = [
    ("omega_c_GHz", _NUMBER, None, "cavity frequency [GHz]"),
    ("kappa_MHz", _NUMBER, None, "cavity HWHM linewidth [MHz]"),
    ("omega_s_GHz", _NUMBER, None, "spin transition frequency [GHz]"),
    ("gamma_star_MHz", _NUMBER, None, "spin HWHM linewidth [MHz]"),
    ("Omega_MHz", _NUMBER, None, "collective coupling [MHz]"),
]
_REGION = [
    ("region_center_mm", _VECTOR, None, "sample region center [mm]"),
    ("region_extents_mm", _VECTOR, None, "sample region extents [mm]"),
]
_G_FACTOR = ("g_factor", _NUMBER, constants.NV_G_FACTOR, "electron g-factor")
_EMIT_PLOT_DATA = ("emit_plot_data", _FLAG, False,
                   "also write gnuplot-ready column files")

_OPTIONS = {
    "design": [
        ("A_mm2", _NUMBER, None, "capacitor plate area [mm^2]"),
        ("d_mm", _NUMBER, None, "capacitor gap [mm]"),
        ("l_mm", _NUMBER, None, "inductor path length [mm]"),
        ("w_mm", _NUMBER, None, "inductor path width [mm]"),
        ("k_L", _NUMBER, 1.0, "inductance calibration scale"),
        ("epsilon_r", _NUMBER, 1.0, "relative permittivity of the gap"),
        ("target_freq_GHz", _NUMBER, None,
         "solve the gap for this eigenfrequency instead of using --d-mm"),
        ("out", _PATH, "design_report.json", "JSON report path"),
        _EMIT_PLOT_DATA,
    ],
    "spins": [
        ("direction", _VECTOR, [0.0, 1.0, 0.0], "field direction, crystal frame"),
        ("B_max_mT", _NUMBER, 20.0, "sweep maximum field [mT]"),
        ("n_points", _INTEGER, 81, "sweep points"),
        ("D_GHz", _NUMBER, constants.NV_ZERO_FIELD_SPLITTING_HZ / _SI["GHz"],
         "zero-field splitting [GHz]"),
        _G_FACTOR,
        ("tune_to_GHz", _NUMBER, None, "tune a transition to this frequency"),
        ("branch", _choice("lower", "upper"), "upper", "branch to tune"),
        ("out", _PATH, "spins_sweep.csv", "sweep CSV path"),
        _EMIT_PLOT_DATA,
    ],
    "fieldmap": [
        ("infile", _PATH, None, "map CSV to ingest instead of the sheet model"),
        ("sheet_length_mm", _NUMBER, None, "bow-tie sheet length [mm]"),
        ("sheet_width_mm", _NUMBER, None, "bow-tie sheet width [mm]"),
        ("sheet_gap_mm", _NUMBER, None, "gap between the sheets [mm]"),
        ("surface_current_A_per_m", _NUMBER, 1.0, "sheet current [A/m]"),
        ("grid_extents_mm", _VECTOR, None, "sampling grid extents [mm]"),
        ("grid_dims", _INTEGERS3, None, "sampling grid nodes per axis"),
        ("normalize_to_GHz", _NUMBER, None,
         "rescale to the single-photon field of this mode frequency"),
        *_REGION,
        ("bins", _NUMBERS, constants.DEFAULT_CONTOUR_BINS,
         "homogeneity histogram bin edges (fractions)"),
        ("out_map", _PATH, "fieldmap.csv", "map CSV path"),
        ("out_report", _PATH, "homogeneity.json", "homogeneity JSON path"),
        _EMIT_PLOT_DATA,
    ],
    "couple": [
        ("map", _PATH, None, "normalized field-map CSV"),
        ("density_ppm", _NUMBER, None, "NV density [ppm of carbon sites]"),
        *_REGION,
        _G_FACTOR,
        ("kappa_MHz", _NUMBER, None, "cavity HWHM linewidth, for C [MHz]"),
        ("gamma_star_MHz", _NUMBER, None, "spin HWHM linewidth, for C [MHz]"),
        ("Omega_MHz", _NUMBER, None, "measured collective coupling [MHz], "
                                     "reported alongside the model value"),
        ("out", _PATH, "coupling_report.json", "report JSON path"),
    ],
    "spectrum": [
        *_SYSTEM,
        ("f_min_GHz", _NUMBER, None, "lowest probe frequency [GHz]"),
        ("f_max_GHz", _NUMBER, None, "highest probe frequency [GHz]"),
        ("n_points", _INTEGER, 2001, "probe points"),
        ("noise_fraction", _NUMBER, None, "multiplicative Gaussian noise level"),
        ("seed", _INTEGER, None, "noise seed (required with --noise-fraction)"),
        ("map2d", _FLAG, False, "sweep cavity detuning too (avoided crossing)"),
        ("delta_min_MHz", _NUMBER, None, "lowest cavity detuning [MHz]"),
        ("delta_max_MHz", _NUMBER, None, "highest cavity detuning [MHz]"),
        ("n_delta", _INTEGER, None, "detuning points"),
        ("probe_min_MHz", _NUMBER, None, "lowest probe offset [MHz]"),
        ("probe_max_MHz", _NUMBER, None, "highest probe offset [MHz]"),
        ("n_probe", _INTEGER, None, "probe points of the map"),
        ("out", _PATH, None,
         "CSV path (default spectrum.csv, or crossing_map.csv with --map2d)"),
        _EMIT_PLOT_DATA,
    ],
    "fit": [
        ("data", _PATH, None, "spectrum CSV (freq_Hz,S21_sq)"),
        ("input_dB", _FLAG, False, "the data column is |S21|^2 in dB"),
        *_SYSTEM,
        ("free", _NAMES, None, "comma-separated free parameter names "
                               "(default: the five system parameters; "
                               "'amplitude' adds an overall scale)"),
        ("initial_amplitude", _NUMBER, None,
         "initial overall scale (default: the least-squares scale of the "
         "start model when 'amplitude' is free, else 1)"),
        ("max_iterations", _INTEGER, 200, "cap on the model evaluations"),
        ("out", _PATH, "fit_result.json", "fit JSON path"),
        _EMIT_PLOT_DATA,
    ],
    "constants": [],
}


def _resolve(args, config) -> dict:
    """Each option's flag, else config value, else default, checked and in SI."""
    section = config.get(args.command, {})
    opts = {}
    for key, kind, default, _ in _OPTIONS[args.command]:
        value = getattr(args, key)
        if value is None:
            value = section.get(key)
        if value is None:
            value = default
        if value is not None:
            try:
                value = kind.convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"key '{key}' must be {kind.text}, got "
                                      f"{value!r}", module=_MODULE) from exc
            scale = _SI.get(key.rsplit("_", 1)[-1])
            if scale is not None:
                value = value * scale
        opts[key] = value
    return opts


def _require(opts, command, *keys) -> list:
    """The values of ``keys``; a missing one is a validation error."""
    for key in keys:
        if opts[key] is None:
            flag = "--" + key.replace("_", "-")
            raise ValidationError(
                f"missing required key '{key}' (flag {flag} or config "
                f"section '{command}')", module=_MODULE)
    return [opts[key] for key in keys]


def _input_path(opts, command, key) -> str:
    path = _require(opts, command, key)[0]
    if not os.path.exists(path):
        raise ValidationError(f"input file for '{key}' not found: {path}",
                              module=_MODULE)
    return path


def _write_plot(out_path: str, header: str, rows) -> None:
    """Write gnuplot columns next to ``out_path``, as <root>.dat."""
    plot = os.path.splitext(out_path)[0] + ".dat"
    write_table(plot, header, rows, sep=" ")
    print(f"wrote {plot}")


def cmd_design(opts) -> int:
    from . import circuit

    area, length, width = _require(opts, "design", "A_mm2", "l_mm", "w_mm")
    k_l, eps_r = opts["k_L"], opts["epsilon_r"]
    target = opts["target_freq_GHz"]
    if target is not None:
        probe = circuit.CavityGeometry(plate_area=area, gap=1e-3,
                                       path_length=length, path_width=width)
        gap = circuit.gap_for_frequency(probe, target, inductance_scale=k_l,
                                        relative_permittivity=eps_r)
    else:
        gap = _require(opts, "design", "d_mm")[0]
    geom = circuit.CavityGeometry(plate_area=area, gap=gap,
                                  path_length=length, path_width=width)
    params = circuit.eigenfrequency(geom, inductance_scale=k_l,
                                    relative_permittivity=eps_r)
    report = {
        "A_m2": area, "d_m": gap, "l_m": length, "w_m": width,
        "k_L": k_l, "epsilon_r": eps_r,
        "C_total_F": params.c_total, "L_total_H": params.l_total,
        "omega_c_rad_per_s": params.omega_c_rad_per_s, "f_c_Hz": params.f_c,
    }
    if target is not None:
        report["target_freq_Hz"] = target

    rows = [("plate area", f"{area:.6g} m^2"),
            ("gap", f"{gap:.6g} m"),
            ("path length", f"{length:.6g} m"),
            ("path width", f"{width:.6g} m"),
            ("C_total", f"{params.c_total:.6g} F"),
            ("L_total", f"{params.l_total:.6g} H"),
            ("f_c", f"{params.f_c:.6g} Hz")]
    for name, value in rows:
        print(f"{name:<12} {value}")

    out = opts["out"]
    write_json(out, report)
    print(f"wrote {out}")
    if opts["emit_plot_data"]:
        from dataclasses import replace

        import numpy as np

        sweep = [(d, circuit.eigenfrequency(replace(geom, gap=float(d)),
                                            inductance_scale=k_l,
                                            relative_permittivity=eps_r).f_c)
                 for d in np.linspace(0.5 * gap, 1.5 * gap, 51)]
        _write_plot(out, "# gap_m f_c_Hz", sweep)
    return 0


def cmd_spins(opts) -> int:
    import numpy as np

    from . import nvspin

    species = nvspin.SpinSpecies(zero_field_splitting=opts["D_GHz"],
                                 g_factor=opts["g_factor"])
    direction = opts["direction"]
    b_max, n_points = opts["B_max_mT"], opts["n_points"]
    if n_points < 2 or not 0 < b_max < math.inf:
        raise ValidationError("sweep needs a finite B_max_mT > 0 and n_points >= 2",
                              module=_MODULE)
    require_allocatable(n_points, "sweep points")
    b_values = np.linspace(0.0, b_max, n_points)

    if opts["tune_to_GHz"] is not None:
        b_star = nvspin.zeeman_tune(species, nvspin.NV_AXES, direction,
                                    opts["tune_to_GHz"], which=opts["branch"])
        print(f"tuned_B_T={b_star:.17g}")

    out = opts["out"]
    rows = nvspin.write_transition_sweep(out, species, direction, b_values)
    print(f"wrote {out}")
    if opts["emit_plot_data"]:
        _write_plot(out, "# B_T f_lower_Hz f_upper_Hz (sub-ensemble 0)",
                    [(b, f_lo, f_up) for b, axis, f_lo, f_up in rows if axis == 0])
    return 0


def cmd_fieldmap(opts) -> int:
    from . import fieldmap

    center, extents = opts["region_center_mm"], opts["region_extents_mm"]
    if center is not None or extents is not None:
        _require(opts, "fieldmap", "region_center_mm", "region_extents_mm")
    if opts["infile"] is not None:
        fmap = fieldmap.ingest_map(_input_path(opts, "fieldmap", "infile"))
    else:
        _require(opts, "fieldmap", "sheet_length_mm", "sheet_width_mm",
                 "sheet_gap_mm", "grid_extents_mm", "grid_dims")
        sheets = fieldmap.bowtie_sheet_pair(
            length=opts["sheet_length_mm"], width=opts["sheet_width_mm"],
            gap=opts["sheet_gap_mm"],
            surface_current=opts["surface_current_A_per_m"])
        grid = fieldmap.GridSpec.centered(opts["grid_extents_mm"],
                                          opts["grid_dims"])
        fmap = fieldmap.biot_savart_map(sheets, grid)
    if opts["normalize_to_GHz"] is not None:
        fmap = fieldmap.normalize_to_vacuum(fmap, opts["normalize_to_GHz"])

    # The statistics can fail, so they come before any file is written.
    report = None if center is None else fieldmap.homogeneity(
        fmap, fieldmap.SampleRegion(center=center, extents=extents), bins=opts["bins"])
    out_map = opts["out_map"]
    fieldmap.export_map(out_map, fmap)
    print(f"wrote {out_map}")

    if report is not None:
        out_report = opts["out_report"]
        write_json(out_report, report.as_dict())
        print(f"wrote {out_report}")
        print(f"mean |B| = {report.mean_field_t:.6g} T, "
              f"rms deviation = {report.rms_deviation:.4%}, "
              f"max deviation = {report.max_deviation:.4%}")
        if opts["emit_plot_data"]:
            rows = [(edge, fraction) if math.isfinite(edge)
                    else (10.0 * report.max_deviation + 1.0, fraction)
                    for edge, fraction in report.contour_histogram]
            _write_plot(out_report, "# deviation_bin_edge volume_fraction", rows)
    return 0


def cmd_couple(opts) -> int:
    from . import coupling, fieldmap, nvspin

    fmap = fieldmap.ingest_map(_input_path(opts, "couple", "map"))
    _require(opts, "couple", "region_center_mm", "region_extents_mm",
             "density_ppm")
    ens = coupling.EnsembleSpec(
        density_ppm=opts["density_ppm"],
        region=fieldmap.SampleRegion(center=opts["region_center_mm"],
                                     extents=opts["region_extents_mm"]))
    kappa, gamma_star = opts["kappa_MHz"], opts["gamma_star_MHz"]
    species = nvspin.SpinSpecies(g_factor=opts["g_factor"])
    report = coupling.coupling_report(fmap, ens, species, kappa, gamma_star)
    payload = report.as_dict()

    omega_meas = opts["Omega_MHz"]
    if omega_meas is not None:
        payload["Omega_measured_Hz"] = omega_meas
        if kappa is not None and gamma_star is not None:
            payload["cooperativity_measured"] = coupling.cooperativity(
                omega_meas, kappa, gamma_star)

    out = opts["out"]
    write_json(out, payload)
    print(f"wrote {out}")
    print(f"g0 mean = {report.g0_mean:.6g} Hz, N = {report.n_spins:.6g}, "
          f"Omega = {report.omega:.6g} Hz")
    if report.cooperativity is not None:
        print(f"cooperativity = {report.cooperativity:.6g}")
    return 0


def _system_from_opts(opts, command):
    from . import spectroscopy

    keys = [key for key, *_ in _SYSTEM]
    return spectroscopy.CoupledSystem(*_require(opts, command, *keys))


def cmd_spectrum(opts) -> int:
    from . import spectroscopy

    sys_ = _system_from_opts(opts, "spectrum")
    if opts["map2d"]:
        keys = ("delta_min_MHz", "delta_max_MHz", "probe_min_MHz",
                "probe_max_MHz", "n_delta", "n_probe")
        d_min, d_max, p_min, p_max, n_delta, n_probe = _require(
            opts, "spectrum", *keys)
        grid = spectroscopy.avoided_crossing_map(
            sys_, (d_min, d_max), (p_min, p_max), (n_delta, n_probe))
        out = opts["out"] if opts["out"] is not None else "crossing_map.csv"
        spectroscopy.write_grid(out, grid)
        print(f"wrote {out}")
        if opts["emit_plot_data"]:
            rows = []
            for i, d in enumerate(grid.delta_s_hz):
                rows.extend((d, nu, grid.s21_sq[i, j])
                            for j, nu in enumerate(grid.nu_p_hz))
                rows.append(None)
            _write_plot(out, "# delta_s_Hz nu_p_Hz S21_sq", rows)
        return 0

    _require(opts, "spectrum", "f_min_GHz", "f_max_GHz")
    spec = spectroscopy.spectrum(sys_, opts["f_min_GHz"], opts["f_max_GHz"],
                                 opts["n_points"])
    if opts["noise_fraction"] is not None:
        _require(opts, "spectrum", "seed")
        spec = spectroscopy.with_multiplicative_noise(
            spec, opts["noise_fraction"], opts["seed"])
    out = opts["out"] if opts["out"] is not None else "spectrum.csv"
    spectroscopy.write_spectrum(out, spec)
    print(f"wrote {out}")
    if opts["emit_plot_data"]:
        _write_plot(out, "# freq_Hz S21_sq", zip(spec.freq_hz, spec.s21_sq))
    return 0


def cmd_fit(opts) -> int:
    from . import spectroscopy

    data = spectroscopy.read_spectrum(
        _input_path(opts, "fit", "data"),
        magnitude="dB" if opts["input_dB"] else "linear")
    result = spectroscopy.fit_spectrum(
        data, _system_from_opts(opts, "fit"), free=opts["free"],
        initial_amplitude=opts["initial_amplitude"],
        max_iterations=opts["max_iterations"])

    out = opts["out"]
    spectroscopy.write_fit_result(out, result)
    print(f"wrote {out}")
    print(f"Omega = {result.system.Omega:.6g} Hz, "
          f"kappa = {result.system.kappa:.6g} Hz, "
          f"gamma_star = {result.system.gamma_star:.6g} Hz, "
          f"residual = {result.residual:.6g}")
    if opts["emit_plot_data"]:
        model = spectroscopy.s21_squared(result.system, data.freq_hz)
        _write_plot(out, "# freq_Hz S21_sq_data S21_sq_model",
                    zip(data.freq_hz, data.s21_sq, result.amplitude * model))
    return 0


def cmd_constants(opts) -> int:
    for entry in constants.registry():
        print(f"{entry['name']:<26} {entry['value']:<25.17g} "
              f"{entry['unit']:<14} {entry['description']}")
    return 0


_COMMANDS = {
    "design": (cmd_design, "lumped-element resonator parameters"),
    "spins": (cmd_spins, "NV transition sweep and Zeeman tuning"),
    "fieldmap": (cmd_fieldmap, "generate or ingest a field map"),
    "couple": (cmd_couple, "ensemble coupling report"),
    "spectrum": (cmd_spectrum, "simulate transmission"),
    "fit": (cmd_fit, "fit the transmission model to a spectrum"),
    "constants": (cmd_constants, "print the physical-constants registry"),
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
    for command, (_, command_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for key, kind, default, text in _OPTIONS[command]:
            if default is not None and default is not False:
                text = f"{text} (default {default})"
            # default=None tells an absent flag from a given one.
            p.add_argument("--" + key.replace("_", "-"), default=None,
                           help=text, **kind.argparse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.command][0](_resolve(args, config))
    except ToolkitError as exc:
        print(f"ERROR:{exc.module}:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR:cli:io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ERROR:cli:memory: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"ERROR:cli:internal: {exc!r}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
