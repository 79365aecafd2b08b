"""Checks of the toolkit's outputs against computations made apart from it.

Nothing here imports the toolkit: each check recomputes its quantity
from the benchmark's own inputs with numpy and scipy, or tests a
property the method must have, and raises :class:`CheckFailed` when the
output disagrees.  None of the checks compares against a stored copy of
earlier output.
"""

import math
import os
import re
import warnings

import numpy as np
from scipy import constants as sc
from scipy import integrate, optimize

PLANCK_H = sc.h
MU_0 = sc.mu_0
BOHR_MAGNETON = sc.physical_constants["Bohr magneton"][0]
EPSILON_0 = sc.epsilon_0
NV_D = 2.87e9
NV_G = 2.0028
CARBON_SITES_M3 = 1.76e29
# Single-spin coupling per tesla: sqrt(2/3) angular projection times
# g mu_B / 2h times the spin-1 matrix element 1/sqrt(2).
G0_PER_TESLA = (math.sqrt(2.0 / 3.0) * NV_G * BOHR_MAGNETON / (2.0 * PLANCK_H)
                / math.sqrt(2.0))
NV_AXIS0 = np.ones(3) / math.sqrt(3.0)

FIELD_RTOL = 1e-6          # dblquad vs solver, relative to |B| at the node
SYMMETRY_RTOL = 1e-7       # mirror images, relative to max |B| of the map
STATS_RTOL = 1e-9          # recomputed homogeneity / coupling statistics
ZEEMAN_TOL_HZ = 1.0
FIT_OMEGA_RTOL = 0.02
FIT_OTHER_RTOL = 0.05


class CheckFailed(AssertionError):
    """An output of the toolkit disagrees with the independent computation."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(name, got, want, rtol, atol=0.0):
    require(abs(got - want) <= rtol * abs(want) + atol,
            f"{name}: got {got!r}, expected {want!r} (rtol {rtol:g})")


# --- circuit -----------------------------------------------------------

def lc_frequency(area, gap, length, width):
    c = EPSILON_0 * area / (2.0 * gap)
    inductance = MU_0 / (2.0 * math.pi) * length * (math.log(length / width)
                                                    + width / length)
    return 1.0 / (2.0 * math.pi * math.sqrt(inductance * c))


def check_design(case, gap, f_c):
    """The solved gap tunes the LC circuit to the target frequency."""
    require(gap > 0, f"gap {gap!r} is not positive")
    _close("f_c", f_c, case["f_target"], 1e-9)
    _close("f_c from the gap", lc_frequency(case["A"], gap, case["l"], case["w"]),
           case["f_target"], 1e-9)


# --- NV spin -----------------------------------------------------------

_SZ = np.diag([1.0, 0.0, -1.0])
_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2.0)
_SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2.0)


def nv_transitions(b_vec, axis=NV_AXIS0):
    """(lower, upper) transition frequencies of one NV axis, in Hz."""
    e_z = np.asarray(axis, dtype=float)
    helper = np.array([1.0, 0.0, 0.0]) if abs(e_z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e_x = np.cross(helper, e_z)
    e_x /= np.linalg.norm(e_x)
    e_y = np.cross(e_z, e_x)
    gamma = NV_G * BOHR_MAGNETON / PLANCK_H
    b = np.asarray(b_vec, dtype=float)
    h = NV_D * _SZ @ _SZ + gamma * (b @ e_x * _SX + b @ e_y * _SY + b @ e_z * _SZ)
    values, vectors = np.linalg.eigh(h)
    ground = int(np.argmax(np.abs(vectors[1]) ** 2))
    f = sorted(float(values[i] - values[ground]) for i in range(3) if i != ground)
    return f[0], f[1]


def check_zeeman(b_mag, direction, f_target):
    require(0 <= b_mag < 0.5, f"tuned field {b_mag!r} T out of range")
    upper = nv_transitions(b_mag * np.asarray(direction))[1]
    require(abs(upper - f_target) <= ZEEMAN_TOL_HZ,
            f"tuned upper transition {upper!r} Hz misses {f_target!r} Hz "
            f"by more than {ZEEMAN_TOL_HZ} Hz")


# --- field maps --------------------------------------------------------

def sheet_field(point, length, width, gap, current=1.0):
    """Biot-Savart field of the two sheets at ``point`` by scipy dblquad.

    For a sheet in z = z0 with surface current K along x the field is
    mu0 K / 4 pi * integral of x_hat x s / |s|^3, i.e. By = -w s0 and
    Bz = s1 with s0 = int 1/r^3 and s1 = int (y - y')/r^3.
    """
    x, y, z = (float(c) for c in point)
    hl, hw = length / 2.0, width / 2.0
    field = np.zeros(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # Lower sheet carries +K along x, upper sheet -K.
        for z0, k in ((-gap / 2.0, current), (gap / 2.0, -current)):
            w = z - z0

            def r3(yp, xp):
                return ((x - xp) ** 2 + (y - yp) ** 2 + w * w) ** 1.5

            s0 = integrate.dblquad(lambda yp, xp: 1.0 / r3(yp, xp),
                                   -hl, hl, -hw, hw, epsabs=0.0, epsrel=1e-10)[0]
            s1 = integrate.dblquad(lambda yp, xp: (y - yp) / r3(yp, xp),
                                   -hl, hl, -hw, hw, epsabs=0.0, epsrel=1e-10)[0]
            field += MU_0 * k / (4.0 * math.pi) * np.array([0.0, -w * s0, s1])
    return field


def pick_nodes(dims, seed, count):
    rng = np.random.default_rng(seed)
    return [tuple(int(rng.integers(n)) for n in dims) for _ in range(count)]


def grid_axes(origin, spacing, dims):
    return [origin[i] + spacing[i] * np.arange(dims[i]) for i in range(3)]


def check_field_nodes(b, origin, spacing, sheet_dims, nodes, scale=1.0):
    """b[node] equals ``scale`` times the dblquad field at every node."""
    axes = grid_axes(origin, spacing, b.shape[:3])
    for node in nodes:
        point = [axes[i][node[i]] for i in range(3)]
        want = scale * sheet_field(point, *sheet_dims)
        err = float(np.linalg.norm(b[node] - want))
        require(err <= FIELD_RTOL * float(np.linalg.norm(want)),
                f"field at node {node}: {b[node]!r} vs dblquad {want!r} "
                f"(relative error {err / float(np.linalg.norm(want)):.3g})")


def field_scale(b, origin, spacing, sheet_dims, node):
    """Ratio between a stored map and the unit-current field at one node."""
    axes = grid_axes(origin, spacing, b.shape[:3])
    want = sheet_field([axes[i][node[i]] for i in range(3)], *sheet_dims)
    return float(np.linalg.norm(b[node]) / np.linalg.norm(want))


def check_mirror_symmetry(b):
    """x -> -x leaves B unchanged; y -> -y keeps By and flips Bz."""
    scale = float(np.max(np.abs(b)))
    require(float(np.max(np.abs(b[..., 0]))) <= SYMMETRY_RTOL * scale,
            "Bx must vanish for currents along x")
    x_err = float(np.max(np.abs(b - b[::-1])))
    require(x_err <= SYMMETRY_RTOL * scale, f"x mirror broken by {x_err / scale:.3g}")
    mirrored = b[:, ::-1].copy()
    mirrored[..., 2] *= -1.0
    y_err = float(np.max(np.abs(b - mirrored)))
    require(y_err <= SYMMETRY_RTOL * scale, f"y mirror broken by {y_err / scale:.3g}")


def check_normalization(raw_b, raw_energy, norm_b, norm_energy, norm_freq, f_c):
    """The normalized map holds exactly h f_c and is a uniform rescale."""
    require(norm_energy == PLANCK_H * f_c,
            f"normalized energy {norm_energy!r} J is not h f_c = {PLANCK_H * f_c!r} J")
    require(norm_freq == f_c, f"photon frequency {norm_freq!r} is not {f_c!r}")
    factor = math.sqrt(PLANCK_H * f_c / raw_energy)
    err = float(np.max(np.abs(norm_b - factor * raw_b)))
    require(err <= 1e-14 * float(np.max(np.abs(norm_b))),
            f"normalized map is not raw * {factor!r} (max error {err!r} T)")


def region_stats(b, origin, spacing, center, extents):
    """Volume-weighted mean, rms and max deviation of |B| over a box.

    |B| is averaged over the 8 corners of each cell; each cell weighs
    its overlap volume with the box.
    """
    mag = np.linalg.norm(b, axis=3)
    nx, ny, nz = mag.shape
    cells = np.zeros((nx - 1, ny - 1, nz - 1))
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                cells += mag[dx:nx - 1 + dx, dy:ny - 1 + dy, dz:nz - 1 + dz]
    cells /= 8.0
    overlap = []
    for i, n in enumerate(mag.shape):
        lo = origin[i] + spacing[i] * np.arange(n - 1)
        hi = lo + spacing[i]
        r_lo, r_hi = center[i] - extents[i] / 2.0, center[i] + extents[i] / 2.0
        overlap.append(np.clip(np.minimum(hi, r_hi) - np.maximum(lo, r_lo), 0.0, None))
    weights = np.einsum("i,j,k->ijk", *overlap)
    total = weights.sum()
    mean = float((weights * cells).sum() / total)
    dev = cells / mean - 1.0
    rms = math.sqrt(float((weights * dev**2).sum() / total))
    return mean, rms, float(np.abs(dev[weights > 0]).max())


def check_homogeneity(report, stats):
    mean, rms, max_dev = stats
    _close("mean |B|", report["mean_field_T"], mean, STATS_RTOL)
    _close("rms deviation", report["rms_deviation"], rms, STATS_RTOL, 1e-15)
    _close("max deviation", report["max_deviation"], max_dev, STATS_RTOL, 1e-15)


def check_coupling(report, stats, ppm, extents, kappa, gamma_star):
    """N = ppm 1e-6 rho_C V, Omega = g0 sqrt(N), C = Omega^2/(kappa gamma*)."""
    mean, rms, _ = stats
    n = ppm * 1e-6 * CARBON_SITES_M3 * float(np.prod(extents))
    _close("N_spins", report["N_spins"], n, 1e-12)
    _close("g0 mean", report["g0_mean_Hz"], G0_PER_TESLA * mean, STATS_RTOL)
    _close("g0 rms deviation", report["g0_rms_deviation"], rms, STATS_RTOL, 1e-15)
    _close("Omega", report["Omega_Hz"], report["g0_mean_Hz"] * math.sqrt(n), 1e-12)
    _close("cooperativity", report["cooperativity"],
           report["Omega_Hz"] ** 2 / (kappa * gamma_star), 1e-12)


def check_round_trip(a, b):
    """Two (origin, spacing, b, energy, photon frequency) tuples are bit-equal."""
    for name, x, y in zip(("origin", "spacing", "samples", "energy", "frequency"), a, b):
        require(np.array_equal(np.asarray(x), np.asarray(y)),
                f"map {name} changed in the CSV round trip")


def read_map_csv(path):
    """Own reader of an exported map: (origin, spacing, b, meta dict)."""
    meta = {}
    with open(path + ".meta") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            meta[key] = float(value)
    dims = tuple(int(meta[k]) for k in ("nx", "ny", "nz"))
    origin = np.array([meta[f"origin_{a}_m"] for a in "xyz"])
    spacing = np.array([meta[f"spacing_{a}_m"] for a in "xyz"])
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(rows.shape == (int(np.prod(dims)), 6),
            f"{path}: {rows.shape[0]} rows for a {dims} grid")
    index = np.rint((rows[:, :3] - origin) / spacing).astype(int)
    b = np.full((*dims, 3), np.nan)
    b[index[:, 0], index[:, 1], index[:, 2]] = rows[:, 3:]
    require(not np.isnan(b).any(), f"{path}: grid nodes missing")
    return origin, spacing, b, meta


# --- spectroscopy ------------------------------------------------------

PARAMS = ("omega_c", "kappa", "omega_s", "gamma_star", "Omega")


def transmission(p, freq):
    """|S21|^2 of the coupled cavity-ensemble model (HWHM linewidths)."""
    ds = freq - p["omega_s"] - 1j * p["gamma_star"]
    dc = freq - p["omega_c"] - 1j * p["kappa"]
    return np.abs(p["kappa"] * ds / (dc * ds - p["Omega"] ** 2)) ** 2


def noisy_spectrum(system, amplitude, noise_seed, n_points=1201,
                   f_min=None, f_max=None, fraction=0.01):
    freq = np.linspace(f_min, f_max, n_points)
    clean = amplitude * transmission(system, freq)
    factors = 1.0 + fraction * np.random.default_rng(noise_seed).standard_normal(n_points)
    return freq, np.clip(clean * factors, 0.0, None)


def lsq_optimum(freq, data, generating, amplitude, amplitude_free):
    """Least-squares optimum by scipy, started from the generating values.

    Returns (parameter dict with "amplitude", residual sum of squares).
    With the amplitude fixed it stays at ``amplitude``.
    """
    x0 = np.array([generating[k] for k in PARAMS]
                  + ([amplitude] if amplitude_free else []))

    def unpack(x):
        p = dict(zip(PARAMS, x))
        p["amplitude"] = x[5] if amplitude_free else amplitude
        return p

    def residuals(x):
        p = unpack(x)
        return p["amplitude"] * transmission(p, freq) - data

    sol = optimize.least_squares(residuals, x0, x_scale=np.abs(x0), xtol=1e-15,
                                 ftol=1e-15, gtol=1e-15, method="lm")
    r = residuals(sol.x)
    return {k: float(v) for k, v in unpack(sol.x).items()}, float(r @ r)


def check_fit(fitted, residual, generating, optimum, optimum_residual):
    """Fit recovers Omega within 2 % of the generating value and kappa,
    gamma* and A0 within 5 % of the independent least-squares optimum,
    with a residual no worse than that optimum's.

    kappa and A0 are strongly correlated: with A0 free and 1 % noise the
    optimum itself scatters by several percent around the generating
    A0, so those bounds are taken about the optimum.
    """
    _close("Omega", fitted["Omega"], generating["Omega"], FIT_OMEGA_RTOL)
    for name in ("kappa", "gamma_star", "amplitude"):
        _close(name, fitted[name], optimum[name], FIT_OTHER_RTOL)
    require(residual <= optimum_residual * (1.0 + 1e-6),
            f"fit residual {residual!r} exceeds the optimum {optimum_residual!r}")


def check_spectrum_values(name, got, want):
    err = float(np.max(np.abs(got - want) / (np.abs(want) + 1e-300)))
    require(np.shape(got) == np.shape(want) and err <= 1e-9,
            f"{name}: values differ from the model by {err:.3g} (relative)")


# --- command line ------------------------------------------------------

_WROTE = re.compile(r"^wrote (.+)$")


def listing(directory):
    """{file name: (size, mtime_ns)} of a directory."""
    out = {}
    for entry in os.scandir(directory):
        st = entry.stat()
        out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


def check_cli_step(name, returncode, stdout, before, after):
    """Exit 0, and the ``wrote`` lines name exactly the files written.

    A map's ``.meta`` sidecar is written next to the map it belongs to
    without a line of its own.
    """
    require(returncode == 0, f"step {name} exited {returncode}")
    wrote = [m.group(1) for m in map(_WROTE.match, stdout.splitlines()) if m]
    changed = {f for f, sig in after.items() if before.get(f) != sig}
    for path in wrote:
        require(path in changed, f"step {name} names {path} but did not write it")
    extra = changed - set(wrote) - {p + ".meta" for p in wrote}
    require(not extra, f"step {name} wrote {sorted(extra)} without naming them")
    return wrote
