"""Seeded inputs for the three benchmark workloads.

Everything here is plain numbers built from ``--seed``; the workloads
turn them into toolkit objects or command lines.  The same seed always
gives the same inputs.  Ranges sit around the paper's operating point:
bow-tie sheets of about 8 x 6.6 mm with a 1.27 mm gap, a 3.121 GHz
mode, kappa = 1.91 MHz, gamma* = 3 MHz and Omega = 12.46 MHz.
"""

import itertools
import math

import numpy as np

F_REF = 3.121e9
KAPPA_REF = 1.91e6
GAMMA_REF = 3.0e6
OMEGA_REF = 12.46e6

# README sample grid (inside the gap) and homogeneity/ensemble region.
SAMPLE_EXTENTS = (4e-3, 4e-3, 0.8e-3)
SAMPLE_DIMS = (21, 21, 9)
REGION_CENTER = (0.0, 0.0, 0.0)
REGION_EXTENTS = (2e-3, 2e-3, 0.6e-3)
# Wide grid: 1.5x the sheet footprint, so nodes sit past the sheet
# edges, and within WIDE_STANDOFF of each sheet plane.
WIDE_SCALE = 1.5
WIDE_STANDOFF = 85e-6
WIDE_DIMS = (13, 11, 5)
# Designs per round: one Latin-hypercube block of sheet geometries.
DESIGN_ROUND = 4

SPECTRUM_POINTS = 1201
SPECTRUM_HALF_SPAN = 30e6
NOISE_FRACTION = 0.01

# Poor-start matrix (linewidth factor x detuning x Omega factor) on the
# fixed criterion-03 spectrum, noise seed 3.  It does not depend on the
# run seed, so its failures repeat exactly.
MATRIX_NOISE_SEED = 3
MATRIX_LINEWIDTH = (0.5, 1.0, 1.5)
MATRIX_DETUNING = (-2e6, 0.0, 2e6)
MATRIX_OMEGA = (0.5, 1.0, 2.0)
SEEDED_FITS = 27


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _strata(rng, n, block):
    """``n`` values in [0, 1); each run of ``block`` consecutive values has
    one in every 1/block stratum, so a run of a few operations already
    spans the whole range and runs with different seeds stay comparable."""
    out = []
    while len(out) < n:
        out.extend(float(u) for u in (rng.permutation(block) + rng.uniform(size=block)) / block)
    return out[:n]


def _direction(rng):
    v = np.array([rng.uniform(-0.2, 0.2), 1.0, rng.uniform(-0.2, 0.2)])
    return tuple(float(c) for c in v / np.linalg.norm(v))


def _circuit(rng):
    return {"A": 100e-6 * rng.uniform(0.95, 1.05),
            "l": 10e-3 * rng.uniform(0.95, 1.05),
            "w": 2e-3 * rng.uniform(0.9, 1.1),
            "f_target": F_REF + rng.uniform(-5e6, 5e6)}


def _sheets(u_length, u_width, u_gap):
    """Sheet length, width and gap from three numbers in [0, 1)."""
    return {"L": 8e-3 * (0.97 + 0.06 * u_length),
            "W": 6.6e-3 * (0.97 + 0.06 * u_width),
            "G": 1.27e-3 * (0.98 + 0.04 * u_gap)}


def wide_extents(sheets):
    return (WIDE_SCALE * sheets["L"], WIDE_SCALE * sheets["W"],
            sheets["G"] - 2 * WIDE_STANDOFF)


def design_cases(seed, n):
    """``n`` bow-tie designs: circuit, tuning direction, sheets, density.

    Each block of DESIGN_ROUND consecutive designs spans the geometry
    range, so a run of whole blocks has the same make-up for every seed.
    """
    rng = _rng(seed, 1)
    strata = zip(*(_strata(rng, n, DESIGN_ROUND) for _ in range(3)))
    cases = []
    for u in strata:
        case = {**_circuit(rng), **_sheets(*u),
                "direction": _direction(rng),
                "ppm": 40.0 * rng.uniform(0.9, 1.1),
                "check_seed": int(rng.integers(2**31))}
        cases.append(case)
    return cases


def _true_system(u):
    """A system around the paper's operating point from five numbers in [0, 1)."""
    omega_s = F_REF + 1e6 * (2 * u[0] - 1)
    return {"omega_c": omega_s + 1e6 * (2 * u[1] - 1),
            "kappa": KAPPA_REF * (0.85 + 0.3 * u[2]),
            "omega_s": omega_s,
            "gamma_star": GAMMA_REF * (0.85 + 0.3 * u[3]),
            "Omega": OMEGA_REF * (0.85 + 0.3 * u[4])}


def _mild_start(u, true):
    """A start inside the poor-start matrix that the fitter handles, from
    five numbers in [0, 1)."""
    return {"omega_c": true["omega_c"] + 1e6 * (2 * u[0] - 1),
            "kappa": true["kappa"] * (0.7 + 0.6 * u[1]),
            "omega_s": true["omega_s"] + 1e6 * (2 * u[2] - 1),
            "gamma_star": true["gamma_star"] * (0.7 + 0.6 * u[3]),
            "Omega": true["Omega"] * math.exp(math.log(0.75)
                                              + u[4] * math.log(16 / 9))}


def fit_cases(seed):
    """One round of fits: the fixed poor-start matrix, then seeded fits.

    Every third seeded spectrum is scaled by A0 < 1 and fitted with the
    amplitude free.
    """
    reference = {"omega_c": F_REF, "kappa": KAPPA_REF, "omega_s": F_REF,
                 "gamma_star": GAMMA_REF, "Omega": OMEGA_REF}
    cases = []
    fixed_spectrum = {"name": "matrix", "system": reference, "amplitude": 1.0,
                      "noise_seed": MATRIX_NOISE_SEED}
    for lw, det, om in itertools.product(MATRIX_LINEWIDTH, MATRIX_DETUNING,
                                         MATRIX_OMEGA):
        start = {"omega_c": F_REF + det, "kappa": KAPPA_REF * lw,
                 "omega_s": F_REF - det, "gamma_star": GAMMA_REF * lw,
                 "Omega": OMEGA_REF * om}
        cases.append({"kind": "matrix", "spectrum": fixed_spectrum,
                      "start": start, "start_amplitude": 1.0, "amplitude_free": False,
                      "label": f"lw={lw} det={det / 1e6:+.0f}MHz Om={om}x"})
    # Every parameter is stratified over the round, so each round spans
    # the same ranges whatever the seed.
    rng = _rng(seed, 2)
    u = list(zip(*(_strata(rng, SEEDED_FITS, SEEDED_FITS) for _ in range(12))))
    for k in range(SEEDED_FITS):
        true = _true_system(u[k][:5])
        amplitude_free = k % 3 == 2
        spec = {"name": f"seeded{k:02d}", "system": true,
                "amplitude": 0.5 + 0.45 * u[k][10] if amplitude_free else 1.0,
                "noise_seed": int(rng.integers(2**31))}
        # A free amplitude starts within 15 % of A0, as a guess read off
        # the peak heights would.
        start_amplitude = (spec["amplitude"] * (0.85 + 0.3 * u[k][11])
                           if amplitude_free else 1.0)
        cases.append({"kind": "seeded", "spectrum": spec,
                      "start": _mild_start(u[k][5:10], true),
                      "start_amplitude": start_amplitude,
                      "amplitude_free": amplitude_free, "label": spec["name"]})
    return cases


def cli_cases(seed, n):
    """``n`` README pipeline passes with seeded parameters.

    The sheets are the README's own (the middle of the design range), so
    that the field solve costs the same in every pass; the design
    workload covers other geometries.
    """
    rng = _rng(seed, 3)
    cases = []
    for _ in range(n):
        circuit = _circuit(rng)
        true = _true_system(rng.uniform(size=5).tolist())
        cases.append({**circuit, **_sheets(0.5, 0.5, 0.5),
                      "direction": _direction(rng),
                      "ppm": 40.0 * rng.uniform(0.9, 1.1),
                      "system": true, "start": _mild_start(rng.uniform(size=5).tolist(), true),
                      "noise_seed": int(rng.integers(2**31)),
                      "check_seed": int(rng.integers(2**31))})
    return cases


def as_ghz(hz):
    return repr(hz / 1e9)


def as_mhz(hz):
    return repr(hz / 1e6)


def as_mm(m):
    return repr(m * 1e3)


def cli_steps(case):
    """The README pipeline as (step name, argv) pairs, in run order."""
    f = case["f_target"]
    sys_, start = case["system"], case["start"]
    region = ["--region-center-mm", *(as_mm(c) for c in REGION_CENTER),
              "--region-extents-mm", *(as_mm(e) for e in REGION_EXTENTS)]
    system = ["--omega-c-GHz", as_ghz(sys_["omega_c"]), "--kappa-MHz", as_mhz(sys_["kappa"]),
              "--omega-s-GHz", as_ghz(sys_["omega_s"]),
              "--gamma-star-MHz", as_mhz(sys_["gamma_star"]),
              "--Omega-MHz", as_mhz(sys_["Omega"])]
    guess = ["--omega-c-GHz", as_ghz(start["omega_c"]), "--kappa-MHz", as_mhz(start["kappa"]),
             "--omega-s-GHz", as_ghz(start["omega_s"]),
             "--gamma-star-MHz", as_mhz(start["gamma_star"]),
             "--Omega-MHz", as_mhz(start["Omega"])]
    return [
        ("constants", ["constants"]),
        ("design", ["design", "--A-mm2", repr(case["A"] * 1e6), "--l-mm", as_mm(case["l"]),
                    "--w-mm", as_mm(case["w"]), "--target-freq-GHz", as_ghz(f),
                    "--out", "design.json"]),
        ("spins", ["spins", "--direction", *(repr(c) for c in case["direction"]),
                   "--tune-to-GHz", as_ghz(f), "--out", "sweep.csv"]),
        ("fieldmap", ["fieldmap", "--sheet-length-mm", as_mm(case["L"]),
                      "--sheet-width-mm", as_mm(case["W"]),
                      "--sheet-gap-mm", as_mm(case["G"]),
                      "--grid-extents-mm", *(as_mm(e) for e in SAMPLE_EXTENTS),
                      "--grid-dims", *(str(n) for n in SAMPLE_DIMS),
                      "--normalize-to-GHz", as_ghz(f), *region,
                      "--out-map", "map.csv", "--out-report", "homogeneity.json"]),
        ("couple", ["couple", "--map", "map.csv", "--density-ppm", repr(case["ppm"]),
                    *region, "--kappa-MHz", as_mhz(sys_["kappa"]),
                    "--gamma-star-MHz", as_mhz(sys_["gamma_star"]),
                    "--out", "coupling.json"]),
        ("spectrum", ["spectrum", *system,
                      "--f-min-GHz", as_ghz(F_REF - SPECTRUM_HALF_SPAN),
                      "--f-max-GHz", as_ghz(F_REF + SPECTRUM_HALF_SPAN),
                      "--noise-fraction", repr(NOISE_FRACTION),
                      "--seed", str(case["noise_seed"]), "--out", "spectrum.csv"]),
        ("map2d", ["spectrum", *system, "--map2d",
                   "--delta-min-MHz", "-30", "--delta-max-MHz", "30", "--n-delta", "41",
                   "--probe-min-MHz", "-30", "--probe-max-MHz", "30", "--n-probe", "201",
                   "--out", "crossing.csv"]),
        ("fit", ["fit", "--data", "spectrum.csv", *guess, "--out", "fit.json"]),
    ]
