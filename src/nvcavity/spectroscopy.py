"""Steady-state transmission of the coupled cavity-ensemble system.

The transmission model is

    |S21|^2 = | kappa (w - omega_s - i gamma*)
               / ((w - omega_c - i kappa)(w - omega_s - i gamma*) - Omega^2) |^2

with kappa and gamma* the HALF widths at half maximum of cavity and
spin ensemble.  All quantities, probe frequency included, are ordinary
frequencies in Hz; the expression is invariant under a uniform 2*pi
rescaling, so angular units work too as long as they are consistent.

Fitting runs a derivative-free simplex first and polishes with a
damped finite-difference Gauss-Newton stage.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from ._fileio import atomic_write_text
from .errors import (DomainError, FitConvergenceError, NoSplittingError,
                     ValidationError)

_MODULE = "spectroscopy"

_SPECTRUM_HEADER = "freq_Hz,S21_sq"
_GRID_HEADER = "delta_s_Hz,nu_p_Hz,S21_sq"

_PARAM_NAMES = ("omega_c", "kappa", "omega_s", "gamma_star", "Omega")
_FIT_PARAM_NAMES = _PARAM_NAMES + ("amplitude",)


@dataclass(frozen=True)
class CoupledSystem:
    """The five transmission-model parameters, all in Hz.

    kappa and gamma_star are HWHM linewidths; Omega is the collective
    coupling.
    """

    omega_c: float
    kappa: float
    omega_s: float
    gamma_star: float
    Omega: float

    def __post_init__(self):
        for name in ("omega_c", "omega_s"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be a positive frequency",
                                  module=_MODULE)
        for name in ("kappa", "gamma_star"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise DomainError(f"{name} must be a positive HWHM linewidth",
                                  module=_MODULE)
        if not (self.Omega >= 0 and math.isfinite(self.Omega)):
            raise DomainError("Omega must be >= 0", module=_MODULE)

    @property
    def cooperativity(self) -> float:
        return self.Omega**2 / (self.kappa * self.gamma_star)


@dataclass(frozen=True)
class Spectrum:
    """|S21|^2 samples over strictly increasing probe frequencies."""

    freq_hz: np.ndarray
    s21_sq: np.ndarray
    system: CoupledSystem | None = None

    def __post_init__(self):
        freq = np.asarray(self.freq_hz, dtype=float)
        vals = np.asarray(self.s21_sq, dtype=float)
        object.__setattr__(self, "freq_hz", freq)
        object.__setattr__(self, "s21_sq", vals)
        if freq.ndim != 1 or freq.shape != vals.shape or freq.size < 1:
            raise ValidationError("frequencies and values must be equal-length "
                                  "1D arrays", module=_MODULE)
        if not np.all(np.isfinite(freq)) or not np.all(np.isfinite(vals)):
            raise ValidationError("spectrum samples must be finite", module=_MODULE)
        if np.any(np.diff(freq) <= 0):
            raise ValidationError("frequencies must be strictly increasing",
                                  module=_MODULE)
        if np.any(vals < 0):
            raise ValidationError("|S21|^2 values must be >= 0", module=_MODULE)


@dataclass(frozen=True)
class SpectrumGrid:
    """|S21|^2 over cavity detuning delta_s (rows) x probe offset nu_p.

    Both axes are offsets from the spin frequency of the template
    system: row i uses omega_c = omega_s + delta_s[i], and the probe
    runs over omega_s + nu_p.
    """

    delta_s_hz: np.ndarray
    nu_p_hz: np.ndarray
    s21_sq: np.ndarray
    system: CoupledSystem

    def __post_init__(self):
        delta = np.asarray(self.delta_s_hz, dtype=float)
        nu = np.asarray(self.nu_p_hz, dtype=float)
        vals = np.asarray(self.s21_sq, dtype=float)
        object.__setattr__(self, "delta_s_hz", delta)
        object.__setattr__(self, "nu_p_hz", nu)
        object.__setattr__(self, "s21_sq", vals)
        if delta.ndim != 1 or nu.ndim != 1 or vals.shape != (delta.size, nu.size):
            raise ValidationError("grid values must have shape "
                                  "(len(delta_s), len(nu_p))", module=_MODULE)
        if not (np.all(np.isfinite(delta)) and np.all(np.isfinite(nu))
                and np.all(np.isfinite(vals))):
            raise ValidationError("grid samples must be finite", module=_MODULE)
        if np.any(vals < 0):
            raise ValidationError("|S21|^2 values must be >= 0", module=_MODULE)


def s21_squared(sys: CoupledSystem, omega):
    """Transmission |S21|^2 at probe frequency ``omega`` [Hz].

    Accepts a scalar or an array of frequencies.  The denominator
    cannot vanish for positive linewidths, so no singular points exist
    on the real axis.
    """
    omega = np.asarray(omega, dtype=float)
    ds = omega - sys.omega_s - 1j * sys.gamma_star
    dc = omega - sys.omega_c - 1j * sys.kappa
    ratio = sys.kappa * ds / (dc * ds - sys.Omega**2)
    result = ratio.real**2 + ratio.imag**2
    return float(result) if result.ndim == 0 else result


def spectrum(sys: CoupledSystem, f_min: float, f_max: float,
             n_points: int) -> Spectrum:
    """Evaluate the transmission on a uniform probe grid."""
    if not (f_min < f_max):
        raise DomainError("f_min must be < f_max", module=_MODULE)
    if n_points < 2:
        raise DomainError("n_points must be >= 2", module=_MODULE)
    freqs = np.linspace(f_min, f_max, int(n_points))
    return Spectrum(freq_hz=freqs, s21_sq=s21_squared(sys, freqs), system=sys)


def avoided_crossing_map(sys: CoupledSystem, delta_range, probe_range,
                         dims) -> SpectrumGrid:
    """Transmission versus cavity detuning and probe offset.

    For each cavity detuning delta_s the cavity is moved to
    omega_s + delta_s and the probe swept over omega_s + nu_p; the
    delta_s = 0 row therefore reproduces :func:`spectrum` on the same
    absolute probe grid bit for bit.
    """
    d_min, d_max = (float(v) for v in delta_range)
    p_min, p_max = (float(v) for v in probe_range)
    n_delta, n_probe = (int(v) for v in dims)
    if not (d_min < d_max and p_min < p_max):
        raise DomainError("detuning and probe ranges must be increasing",
                          module=_MODULE)
    if n_delta < 2 or n_probe < 2:
        raise DomainError("grid dims must be >= 2", module=_MODULE)
    deltas = np.linspace(d_min, d_max, n_delta)
    # Build the absolute probe grid the same way spectrum() does, so the
    # zero-detuning row matches it bitwise; the stored nu_p offsets are
    # derived from that grid.
    probe_abs = np.linspace(sys.omega_s + p_min, sys.omega_s + p_max, n_probe)
    values = np.empty((n_delta, n_probe))
    for i, delta in enumerate(deltas):
        row_sys = replace(sys, omega_c=sys.omega_s + delta)
        values[i] = s21_squared(row_sys, probe_abs)
    return SpectrumGrid(delta_s_hz=deltas, nu_p_hz=probe_abs - sys.omega_s,
                        s21_sq=values, system=sys)


def _refine_peak(freqs: np.ndarray, vals: np.ndarray, i: int) -> float:
    """Vertex of the parabola through the three samples around ``i``."""
    t = freqs[i - 1:i + 2] - freqs[i]
    y = vals[i - 1:i + 2]
    a, b, _ = np.polyfit(t, y, 2)
    if a >= 0:
        return float(freqs[i])
    return float(freqs[i] - b / (2.0 * a))


def peak_splitting(spec: Spectrum, noise_floor: float = 0.0) -> float:
    """Distance in Hz between the two highest interior local maxima.

    Each peak position is refined by quadratic interpolation through
    the three samples around the maximum; maxima at or below
    ``noise_floor`` are ignored.
    """
    vals = spec.s21_sq
    freqs = spec.freq_hz
    candidates = [i for i in range(1, len(vals) - 1)
                  if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
                  and vals[i] > noise_floor]
    if len(candidates) < 2:
        raise NoSplittingError(
            f"found {len(candidates)} usable local maxima, need 2",
            module=_MODULE)
    top_two = sorted(sorted(candidates, key=lambda i: vals[i])[-2:])
    lo = _refine_peak(freqs, vals, top_two[0])
    hi = _refine_peak(freqs, vals, top_two[1])
    return abs(hi - lo)


def q_to_kappa(f_c: float, q: float, convention: str = "standard") -> float:
    """Cavity HWHM linewidth from a quality factor.

    The standard convention defines Q = f_c / FWHM, giving
    kappa = f_c / (2 Q); the alternative "paper" convention returns
    f_c / Q, which some publications quote as an HWHM.  Both are
    provided because measured (Q, kappa) pairs in the literature do not
    always satisfy the standard relation.
    """
    if not (f_c > 0 and math.isfinite(f_c)):
        raise DomainError("f_c must be > 0", module=_MODULE)
    if not (q > 0 and math.isfinite(q)):
        raise DomainError("Q must be > 0", module=_MODULE)
    if convention == "standard":
        return f_c / (2.0 * q)
    if convention == "paper":
        return f_c / q
    raise DomainError("convention must be 'standard' or 'paper'", module=_MODULE)


def with_multiplicative_noise(spec: Spectrum, fraction: float,
                              seed: int) -> Spectrum:
    """Multiply every sample by (1 + fraction * standard normal).

    Deterministic for a given seed; results are clipped at zero to keep
    the spectrum valid.
    """
    if not (fraction >= 0 and math.isfinite(fraction)):
        raise DomainError("noise fraction must be >= 0", module=_MODULE)
    rng = np.random.default_rng(seed)
    factors = 1.0 + fraction * rng.standard_normal(spec.s21_sq.size)
    noisy = np.clip(spec.s21_sq * factors, 0.0, None)
    return Spectrum(freq_hz=spec.freq_hz, s21_sq=noisy, system=spec.system)


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters plus diagnostics.

    residual is the sum of squared differences; curvature is the
    finite-difference J^T J over the fitted parameters (a covariance
    proxy up to noise scaling), ordered like param_names.
    """

    system: CoupledSystem
    amplitude: float
    residual: float
    curvature: np.ndarray
    param_names: tuple[str, ...]
    n_iterations: int

    def as_dict(self) -> dict:
        return {
            "omega_c_Hz": self.system.omega_c,
            "kappa_Hz": self.system.kappa,
            "omega_s_Hz": self.system.omega_s,
            "gamma_star_Hz": self.system.gamma_star,
            "Omega_Hz": self.system.Omega,
            "amplitude": self.amplitude,
            "residual": self.residual,
            "n_iterations": self.n_iterations,
            "free_parameters": list(self.param_names),
            "curvature": np.asarray(self.curvature).tolist(),
            "units": "Hz",
            "linewidth_convention": "HWHM",
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _params_valid(p: dict) -> bool:
    return (p["omega_c"] > 0 and p["omega_s"] > 0 and p["kappa"] > 0
            and p["gamma_star"] > 0 and p["Omega"] >= 0 and p["amplitude"] > 0
            and all(math.isfinite(v) for v in p.values()))


def fit_spectrum(data: Spectrum, initial: CoupledSystem, free=None,
                 initial_amplitude: float = 1.0,
                 max_iterations: int = 200) -> FitResult:
    """Least-squares fit of the transmission model to a spectrum.

    ``free`` names the parameters allowed to vary (default: the five
    system parameters; add "amplitude" to fit an overall scale A0 for
    data that is not normalized to unit bare-cavity transmission).
    A Nelder-Mead stage provides a robust start, then finite-difference
    Gauss-Newton iterations (with Levenberg damping) polish it until
    relative step and relative residual change both drop below 1e-10.
    Raises a fit-convergence error carrying the best state reached if
    the iteration cap is hit first.
    """
    if free is None:
        free = _PARAM_NAMES
    free = tuple(dict.fromkeys(free))
    unknown = [name for name in free if name not in _FIT_PARAM_NAMES]
    if unknown:
        raise DomainError(f"unknown fit parameters {unknown}; valid names are "
                          f"{list(_FIT_PARAM_NAMES)}", module=_MODULE)
    if not free:
        raise DomainError("at least one parameter must be free", module=_MODULE)
    if not (initial_amplitude > 0 and math.isfinite(initial_amplitude)):
        raise DomainError("initial_amplitude must be > 0", module=_MODULE)
    if max_iterations < 1:
        raise DomainError("max_iterations must be >= 1", module=_MODULE)
    if data.freq_hz.size <= len(free):
        raise DomainError("spectrum has too few points for the number of "
                          "free parameters", module=_MODULE)

    freqs = data.freq_hz
    target = data.s21_sq
    base = {"omega_c": initial.omega_c, "kappa": initial.kappa,
            "omega_s": initial.omega_s, "gamma_star": initial.gamma_star,
            "Omega": initial.Omega, "amplitude": initial_amplitude}
    scales = np.array([abs(base[name]) if base[name] != 0 else 1.0
                       for name in free])

    def unpack(x: np.ndarray) -> dict:
        p = dict(base)
        for name, value, scale in zip(free, x, scales):
            p[name] = value * scale
        return p

    def residuals(x: np.ndarray):
        p = unpack(x)
        if not _params_valid(p):
            return None
        ds = freqs - p["omega_s"] - 1j * p["gamma_star"]
        dc = freqs - p["omega_c"] - 1j * p["kappa"]
        ratio = p["kappa"] * ds / (dc * ds - p["Omega"]**2)
        model = p["amplitude"] * (ratio.real**2 + ratio.imag**2)
        return model - target

    def objective(x: np.ndarray) -> float:
        r = residuals(x)
        return 1e300 if r is None else float(r @ r)

    # The default simplex perturbs every coordinate by 5%, which for a
    # GHz-scale frequency is a jump far outside the measured span; size
    # the frequency steps from the data span instead.
    span = float(freqs[-1] - freqs[0])
    x0 = np.ones(len(free))
    simplex = [x0]
    for j, name in enumerate(free):
        step = 0.05
        if name in ("omega_c", "omega_s"):
            step = min(0.05, 0.1 * span / scales[j])
        vertex = x0.copy()
        vertex[j] += step
        simplex.append(vertex)
    nm = optimize.minimize(objective, x0, method="Nelder-Mead",
                           options={"maxiter": 400 * len(free),
                                    "maxfev": 400 * len(free),
                                    "initial_simplex": np.array(simplex),
                                    "xatol": 1e-8, "fatol": 1e-14})
    x = np.asarray(nm.x, dtype=float)
    if residuals(x) is None:
        x = x0  # simplex wandered out of the physical domain

    r = residuals(x)
    ssq = float(r @ r)
    lam = 1e-3
    converged = False
    n_gauss_newton = 0
    for _ in range(max_iterations):
        # Central differences keep the Jacobian accurate enough near the
        # optimum for the step to shrink below the convergence threshold.
        jac = np.empty((r.size, len(free)))
        for j in range(len(free)):
            h = 1e-6 * max(abs(x[j]), 1e-2)
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            rp, rm = residuals(xp), residuals(xm)
            if rp is None or rm is None:
                base_r = residuals(x)
                one_sided = rp if rp is not None else rm
                if one_sided is None:
                    jac[:, j] = 0.0
                    continue
                sign = 1.0 if rp is not None else -1.0
                jac[:, j] = sign * (one_sided - base_r) / h
            else:
                jac[:, j] = (rp - rm) / (2.0 * h)
        a = jac.T @ jac
        g = jac.T @ r
        damping = np.diag(np.where(np.diag(a) > 0, np.diag(a), 1.0))
        accepted = False
        for _ in range(25):
            try:
                delta = np.linalg.solve(a + lam * damping, -g)
            except np.linalg.LinAlgError:
                lam = max(lam * 10.0, 1e-10)
                continue
            x_new = x + delta
            r_new = residuals(x_new)
            if r_new is not None:
                ssq_new = float(r_new @ r_new)
                if ssq_new <= ssq * (1.0 + 1e-15):
                    accepted = True
                    break
            lam = max(lam * 10.0, 1e-10)
        n_gauss_newton += 1
        if not accepted:
            break
        rel_step = float(np.linalg.norm(delta)) / max(1.0, float(np.linalg.norm(x)))
        rel_drop = abs(ssq - ssq_new) / max(ssq, 1e-300)
        x, r, ssq = x_new, r_new, ssq_new
        lam = max(lam / 10.0, 1e-12)
        if rel_step < 1e-10 and rel_drop < 1e-10:
            converged = True
            break

    params = unpack(x)
    fitted = CoupledSystem(omega_c=params["omega_c"], kappa=params["kappa"],
                           omega_s=params["omega_s"],
                           gamma_star=params["gamma_star"],
                           Omega=params["Omega"])
    jac_unscaled = jac / scales[None, :]
    curvature = jac_unscaled.T @ jac_unscaled
    result = FitResult(system=fitted, amplitude=params["amplitude"],
                       residual=ssq, curvature=curvature,
                       param_names=free,
                       n_iterations=int(nm.nit) + n_gauss_newton)
    if not converged:
        raise FitConvergenceError(
            f"fit did not converge within {max_iterations} Gauss-Newton "
            f"iterations (residual {ssq:.6g})", best=result)
    return result


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def write_spectrum(path, spec: Spectrum) -> None:
    """Write a spectrum as ``freq_Hz,S21_sq`` CSV (atomic)."""
    lines = [_SPECTRUM_HEADER]
    lines.extend(f"{_format_float(f)},{_format_float(v)}"
                 for f, v in zip(spec.freq_hz, spec.s21_sq))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_spectrum(path, magnitude: str = "linear") -> Spectrum:
    """Read a ``freq_Hz,S21_sq`` CSV; rows may arrive unsorted.

    With ``magnitude="linear"`` (the default) the second column is
    |S21|^2 directly and negative values are rejected; with
    ``magnitude="dB"`` it is 10 log10 |S21|^2 and is converted.
    """
    if magnitude not in ("linear", "dB"):
        raise DomainError("magnitude must be 'linear' or 'dB'", module=_MODULE)
    try:
        with open(path) as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}", module=_MODULE) from exc
    if not raw_lines or raw_lines[0].strip() != _SPECTRUM_HEADER:
        raise ValidationError(f"{path}: first line must be the header "
                              f"{_SPECTRUM_HEADER!r}", module=_MODULE)
    rows = []
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 2 columns, got "
                                  f"{len(parts)}", module=_MODULE)
        try:
            f, v = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: unparsable number",
                                  module=_MODULE) from exc
        if not (math.isfinite(f) and math.isfinite(v)):
            raise ValidationError(f"{path}:{lineno}: non-finite value",
                                  module=_MODULE)
        if magnitude == "dB":
            v = 10.0 ** (v / 10.0)
        elif v < 0:
            raise ValidationError(f"{path}:{lineno}: negative |S21|^2 "
                                  f"(pass dB data through the dB conversion)",
                                  module=_MODULE)
        rows.append((f, v, lineno))
    if not rows:
        raise ValidationError(f"{path}: no data rows", module=_MODULE)
    rows.sort(key=lambda row: row[0])
    for (f1, _, l1), (f2, _, l2) in zip(rows, rows[1:]):
        if f1 == f2:
            raise ValidationError(f"{path}:{l2}: duplicate frequency {f1!r} "
                                  f"(also on line {l1})", module=_MODULE)
    freqs = np.array([row[0] for row in rows])
    vals = np.array([row[1] for row in rows])
    return Spectrum(freq_hz=freqs, s21_sq=vals)


def write_grid(path, grid: SpectrumGrid) -> None:
    """Write an avoided-crossing map as long-format CSV (atomic)."""
    lines = [_GRID_HEADER]
    for i, delta in enumerate(grid.delta_s_hz):
        for j, nu in enumerate(grid.nu_p_hz):
            lines.append(f"{_format_float(delta)},{_format_float(nu)},"
                         f"{_format_float(grid.s21_sq[i, j])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_fit_result(path, result: FitResult) -> None:
    """Serialize a fit result to JSON (atomic)."""
    atomic_write_text(path, result.to_json() + "\n")
