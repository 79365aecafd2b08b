"""Steady-state transmission of the coupled cavity-ensemble system.

The transmission model is

    |S21|^2 = | kappa (w - omega_s - i gamma*)
               / ((w - omega_c - i kappa)(w - omega_s - i gamma*) - Omega^2) |^2

with kappa and gamma* the HALF widths at half maximum of cavity and
spin ensemble.  All quantities, probe frequency included, are ordinary
frequencies in Hz; the expression is invariant under a uniform 2*pi
rescaling, so angular units work too as long as they are consistent.

Fitting is one Levenberg-Marquardt solve, a short numpy solver with
MINPACK's scaling and stopping tests, fed the exact Jacobian of the
model, d|S21|^2/dp = 2 Re(conj(t) dt/dp).  Model and Jacobian come from one
evaluation, so each solver point costs one; the Jacobian also gives the
exact curvature J^T J reported with each fit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._fileio import read_table, write_json, write_table
from .errors import (DomainError, FitConvergenceError, NoSplittingError,
                     ValidationError, require_allocatable)

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
        if not (self.Omega >= 0 and math.isfinite(self.Omega * self.Omega)):
            raise DomainError("Omega must be >= 0, with a finite square", module=_MODULE)

    @property
    def cooperativity(self) -> float:
        return self.Omega**2 / (self.kappa * self.gamma_star)


@dataclass(frozen=True)
class Spectrum:
    """|S21|^2 samples over strictly increasing probe frequencies."""

    freq_hz: np.ndarray
    s21_sq: np.ndarray

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
    on the real axis; a transmission that overflows is a domain error.
    """
    omega = np.asarray(omega, dtype=float)
    with np.errstate(all="ignore"):  # rejected below, not warned about
        ds = omega - sys.omega_s - 1j * sys.gamma_star
        dc = omega - sys.omega_c - 1j * sys.kappa
        ratio = sys.kappa * ds / (dc * ds - sys.Omega**2)
        result = ratio.real**2 + ratio.imag**2
    if not np.all(np.isfinite(result)):
        raise DomainError("transmission overflows for these parameters", module=_MODULE)
    return float(result) if result.ndim == 0 else result


def spectrum(sys: CoupledSystem, f_min: float, f_max: float,
             n_points: int) -> Spectrum:
    """Evaluate the transmission on a uniform probe grid."""
    if not (f_min < f_max and math.isfinite(float(f_max) - float(f_min))):
        raise DomainError(f"probe range [{f_min!r}, {f_max!r}] Hz must increase and "
                          f"have finite ends and span", module=_MODULE)
    if n_points < 2:
        raise DomainError("n_points must be >= 2", module=_MODULE)
    require_allocatable(n_points, "probe points")
    freqs = np.linspace(f_min, f_max, int(n_points))
    return Spectrum(freq_hz=freqs, s21_sq=s21_squared(sys, freqs))


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
    probe_lo, probe_hi = sys.omega_s + p_min, sys.omega_s + p_max
    if not (d_min < d_max and p_min < p_max and math.isfinite(d_max - d_min)
            and math.isfinite(probe_hi - probe_lo)):
        raise DomainError(f"detuning range [{d_min!r}, {d_max!r}] Hz and probe range "
                          f"omega_s + [{p_min!r}, {p_max!r}] Hz must increase and have "
                          f"finite ends and spans", module=_MODULE)
    if n_delta < 2 or n_probe < 2:
        raise DomainError("grid dims must be >= 2", module=_MODULE)
    require_allocatable(n_delta * n_probe, "map points")
    deltas = np.linspace(d_min, d_max, n_delta)
    # Build the absolute probe grid the same way spectrum() does, so the
    # zero-detuning row matches it bitwise; the stored nu_p offsets are
    # derived from that grid.
    probe_abs = np.linspace(probe_lo, probe_hi, n_probe)
    values = np.empty((n_delta, n_probe))
    for i, delta in enumerate(deltas):
        row_sys = replace(sys, omega_c=sys.omega_s + delta)
        values[i] = s21_squared(row_sys, probe_abs)
    return SpectrumGrid(delta_s_hz=deltas, nu_p_hz=probe_abs - sys.omega_s,
                        s21_sq=values)


def _refine_peak(freqs: np.ndarray, vals: np.ndarray, i: int) -> float:
    """Vertex of the parabola through the three samples around ``i``."""
    t = freqs[i - 1:i + 2] - freqs[i]
    y = vals[i - 1:i + 2]
    a, b, _ = np.polyfit(t, y, 2)
    if a >= 0:
        return float(freqs[i])
    return float(freqs[i] - b / (2.0 * a))


def _prominence(y: np.ndarray, k: int) -> float:
    """Height of ``y[k]`` above the higher of the lowest points between
    it and the nearest higher sample (or the end) on either side."""
    higher = np.flatnonzero(y > y[k])
    left = higher[higher < k]
    right = higher[higher > k]
    left_min = y[left[-1] if left.size else 0:k + 1].min()
    right_min = y[k:right[0] if right.size else y.size].min()
    return float(y[k] - max(left_min, right_min))


def peak_splitting(spec: Spectrum) -> float:
    """Distance in Hz between the two most prominent interior maxima.

    Candidate maxima are the local maxima of a moving average over up
    to 15 samples, so a noise spike beside a peak does not count as a
    second peak.  The two with the largest prominence on that average
    are kept; a prominence below 2 % of the highest averaged sample
    rules a candidate out.  Each peak is placed at the highest raw
    sample in its averaging window and refined by quadratic
    interpolation through the three raw samples around it.
    """
    vals = spec.s21_sq
    freqs = spec.freq_hz
    width = 2 * min(7, vals.size // 40) + 1
    # smooth[k] averages the raw window vals[k:k + width].
    smooth = np.convolve(vals, np.full(width, 1.0 / width), mode="valid")
    inner = smooth[1:-1]
    candidates = np.flatnonzero((inner > smooth[:-2]) & (inner > smooth[2:])) + 1
    threshold = 0.02 * smooth.max()
    peaks = []
    for k in candidates:
        i = k + int(np.argmax(vals[k:k + width]))
        prominence = _prominence(smooth, k)
        if prominence >= threshold:
            peaks.append((prominence, i))
    if len(peaks) < 2:
        raise NoSplittingError(
            f"found {len(peaks)} usable local maxima, need 2", module=_MODULE)
    (_, i), (_, j) = sorted(peaks)[-2:]
    return abs(_refine_peak(freqs, vals, j) - _refine_peak(freqs, vals, i))


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
    the spectrum valid, and a sample that overflows is a domain error.
    """
    if not (fraction >= 0 and math.isfinite(fraction)):
        raise DomainError("noise fraction must be >= 0", module=_MODULE)
    if seed < 0:
        raise DomainError("noise seed must be >= 0", module=_MODULE)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        factors = 1.0 + fraction * rng.standard_normal(spec.s21_sq.size)
        noisy = np.clip(spec.s21_sq * factors, 0.0, None)
    if not np.all(np.isfinite(noisy)):
        raise DomainError(f"noise fraction {fraction!r} makes a sample overflow",
                          module=_MODULE)
    return Spectrum(freq_hz=spec.freq_hz, s21_sq=noisy)


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters plus diagnostics.

    residual is the sum of squared differences; curvature is the exact
    J^T J of the residuals over the fitted parameters in their physical
    units (a covariance proxy up to noise scaling), ordered like
    param_names.  n_iterations counts the solver's model evaluations,
    each of which gives the residuals and the Jacobian together.
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


def _model_and_jacobian(freqs: np.ndarray, p: np.ndarray):
    """A0 |t|^2 and its exact derivatives, one column per parameter.

    ``p`` holds the parameters in ``_FIT_PARAM_NAMES`` order.  With
    t = kappa ds / D, ds = w - omega_s - i gamma*, dc = w - omega_c - i kappa
    and D = dc ds - Omega^2, each column is A0 * 2 Re(conj(t) dt/dp); the
    amplitude column is |t|^2 itself.
    """
    omega_c, kappa, omega_s, gamma_star, omega, amplitude = p
    ds = freqs - omega_s - 1j * gamma_star
    dc = freqs - omega_c - 1j * kappa
    inv_d = 1.0 / (dc * ds - omega**2)
    t = kappa * ds * inv_d
    dt = np.stack([t * ds * inv_d,
                   (1.0 + 1j * t) * ds * inv_d,
                   (t * dc - kappa) * inv_d,
                   1j * (t * dc - kappa) * inv_d,
                   2.0 * omega * t * inv_d], axis=1)
    t_sq = t.real**2 + t.imag**2
    jac = np.empty((freqs.size, 6))
    jac[:, :5] = 2.0 * amplitude * (t.conj()[:, None] * dt).real
    jac[:, 5] = t_sq
    return amplitude * t_sq, jac


def _levenberg_marquardt(fun, x0: np.ndarray, max_nfev: int):
    """Minimize the cost |r(x)|^2, where ``fun(x)`` returns (r, J).

    Each step solves (Js^T Js + lam I) z = -Js^T r and moves x by z / D,
    where D holds the largest column norms of J seen so far and
    Js = J / D (Marquardt's scaling, as in MINPACK; More, LNM 630, 1978).
    lam starts at 1e-3 max diag(Js^T Js) and follows Nielsen's update.
    A trial point whose cost or Jacobian is not finite is a rejected step.
    The solve has converged when max |Js^T r| <= tol |r|, when the actual
    and predicted cost reductions are both <= tol cost, or when
    |z| <= tol (|D x| + tol), with tol = 1e-12; it gives up after
    ``max_nfev`` calls of ``fun``, or at once if the start's cost or
    Jacobian is not finite.  Returns (x, calls of fun, converged).
    """
    tol = 1e-12
    x = x0
    r, jac = fun(x)
    nfev, cost, moved = 1, r @ r, True
    col_max = np.zeros(x.size)
    lam, nu = None, 2.0
    while True:
        if moved:
            col_max = np.maximum(col_max, np.linalg.norm(jac, axis=0))
            d = np.where(col_max > 0, col_max, 1.0)
            js = jac / d
            a, g = js.T @ js, js.T @ r
            if not (math.isfinite(cost) and np.all(np.isfinite(a))):
                return x, nfev, False
            if np.max(np.abs(g)) <= tol * math.sqrt(cost):
                return x, nfev, True
            if lam is None:
                lam = 1e-3 * np.max(np.diag(a))
        if nfev >= max_nfev:
            return x, nfev, False
        z = np.linalg.solve(a + lam * np.eye(x.size), -g)
        x_trial = x + z / d
        r_trial, jac_trial = fun(x_trial)
        nfev += 1
        cost_trial = r_trial @ r_trial
        actual = cost - cost_trial
        predicted = z @ (a @ z) + 2.0 * lam * (z @ z)
        converged = (abs(actual) <= tol * cost and predicted <= tol * cost
                     or np.linalg.norm(z) <= tol * (np.linalg.norm(d * x) + tol))
        moved = bool(actual > 0 and np.all(np.isfinite(jac_trial)))
        if moved:
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * actual / predicted - 1.0)**3)
            nu = 2.0
            x, r, jac, cost = x_trial, r_trial, jac_trial, cost_trial
        else:
            lam, nu = lam * nu, 2.0 * nu
        if converged:
            return x, nfev, True


def fit_spectrum(data: Spectrum, initial: CoupledSystem, free=None,
                 initial_amplitude: float | None = None,
                 max_iterations: int = 200) -> FitResult:
    """Least-squares fit of the transmission model to a spectrum.

    ``free`` names the parameters allowed to vary (default: the five
    system parameters; add "amplitude" to fit an overall scale A0 for
    data that is not normalized to unit bare-cavity transmission).
    A0 starts at ``initial_amplitude``; when that is None it starts at 1
    if A0 is fixed, and at the least-squares scale of the start model,
    (m . d) / (m . m), if A0 is free.
    One unbounded Levenberg-Marquardt solve (``_levenberg_marquardt``)
    runs with the exact Jacobian of the model, in the coordinates
    p / p0 for the frequencies and Omega and log(p / p0) for kappa,
    gamma* and A0, which keeps those three positive.  Each solver point
    costs one model evaluation, which gives residuals and Jacobian.
    ``max_iterations`` caps the solver's model evaluations;
    ``n_iterations`` reports how many it made.  The model depends on
    Omega only through Omega^2, so |Omega| is reported; a free Omega
    cannot leave 0, so a start there is a domain error.  Raises a
    fit-convergence error when the cap stops the solver (or a start
    whose cost or Jacobian is not finite does), or when it ends at a
    non-positive frequency or a non-finite value; its ``best``
    holds the final state, or the start when the final state is not
    physical.
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
    if "Omega" in free and initial.Omega == 0:
        raise DomainError("a free Omega cannot start at 0, where its "
                          "Jacobian column vanishes", module=_MODULE)
    if max_iterations < 1:
        raise DomainError("max_iterations must be >= 1", module=_MODULE)
    if data.freq_hz.size <= len(free):
        raise DomainError("spectrum has too few points for the number of "
                          "free parameters", module=_MODULE)

    freqs = data.freq_hz
    if initial_amplitude is None:
        initial_amplitude = 1.0
        if "amplitude" in free:
            # The model is linear in A0, so this start is exact in A0.
            m = s21_squared(initial, freqs)
            with np.errstate(all="ignore"):  # rejected just below
                initial_amplitude = float(m @ data.s21_sq / (m @ m))
            if not (initial_amplitude > 0 and math.isfinite(initial_amplitude)):
                raise DomainError(f"the default initial_amplitude, the least-squares "
                                  f"scale (m . d) / (m . m) of the start model m on "
                                  f"the data d, is {initial_amplitude:.6g}, not "
                                  f"positive and finite", module=_MODULE)
    if not (initial_amplitude > 0 and math.isfinite(initial_amplitude)):
        raise DomainError(f"initial_amplitude must be > 0, got "
                          f"{initial_amplitude:.6g}", module=_MODULE)
    start = np.array([initial.omega_c, initial.kappa, initial.omega_s,
                      initial.gamma_star, initial.Omega, initial_amplitude])
    index = [_FIT_PARAM_NAMES.index(name) for name in free]
    # kappa, gamma* and A0 move as p0 exp(x), so they stay positive; a
    # linear kappa can cross zero into the kappa < 0, A0 -> inf valley.
    logged = np.isin(index, (1, 3, 5))

    def unpack(x: np.ndarray) -> np.ndarray:
        p = start.copy()
        p[index] = start[index] * np.where(logged, np.exp(x), x)
        return p

    def residuals_and_jacobian(x: np.ndarray):
        p = unpack(x)
        model, jac = _model_and_jacobian(freqs, p)
        dp_dx = np.where(logged, p[index], start[index])
        return model - data.s21_sq, jac[:, index] * dp_dx

    # Trial steps far from the data can overflow; the solver rejects them,
    # and a start that overflows is reported, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        x, nfev, converged = _levenberg_marquardt(
            residuals_and_jacobian, np.where(logged, 0.0, 1.0), max_iterations)
        p = unpack(x)
        p[4] = abs(p[4])
        # Omega is now >= 0; every other parameter must be positive.
        physical = bool(np.all(np.isfinite(p)) and np.all(np.delete(p, 4) > 0))
        best = p if physical else start
        model, jac = _model_and_jacobian(freqs, best)
        r = model - data.s21_sq
        jac = jac[:, index]
        residual, curvature = float(r @ r), jac.T @ jac
    result = FitResult(system=CoupledSystem(*best[:5].tolist()),
                       amplitude=float(best[5]), residual=residual,
                       curvature=curvature, param_names=free, n_iterations=nfev)
    if not converged:
        raise FitConvergenceError(
            f"fit stopped after {nfev} model evaluations (cap {max_iterations}) "
            f"without converging (residual {result.residual:.6g})", best=result)
    if not physical:
        state = ", ".join(f"{n} = {v:.6g}" for n, v in zip(_FIT_PARAM_NAMES, p))
        raise FitConvergenceError(f"fit ended at a non-physical state ({state}); "
                                  "the start is kept as the best state", best=result)
    return result


def write_spectrum(path, spec: Spectrum) -> None:
    """Write a spectrum as ``freq_Hz,S21_sq`` CSV (atomic)."""
    rows = zip(spec.freq_hz.tolist(), spec.s21_sq.tolist())
    write_table(path, _SPECTRUM_HEADER, rows)


def read_spectrum(path, magnitude: str = "linear") -> Spectrum:
    """Read a ``freq_Hz,S21_sq`` CSV; rows may arrive unsorted.

    With ``magnitude="linear"`` (the default) the second column is
    |S21|^2 directly and negative values are rejected; with
    ``magnitude="dB"`` it is 10 log10 |S21|^2 and is converted.
    """
    if magnitude not in ("linear", "dB"):
        raise DomainError("magnitude must be 'linear' or 'dB'", module=_MODULE)
    data, line_numbers = read_table(path, _SPECTRUM_HEADER, 2, _MODULE)
    if not line_numbers:
        raise ValidationError(f"{path}: no data rows", module=_MODULE)
    if magnitude == "dB":
        # One Python power per value: numpy's vectorized power can differ
        # in the last bit.
        linear = data[:, 1].tolist()
        for k, v in enumerate(linear):
            try:
                linear[k] = 10.0 ** (v / 10.0)
            except OverflowError:
                raise ValidationError(f"{path}:{line_numbers[k]}: dB value {v!r} "
                                      f"overflows |S21|^2", module=_MODULE) from None
        data[:, 1] = linear
    else:
        negative = np.flatnonzero(data[:, 1] < 0)
        if negative.size:
            raise ValidationError(f"{path}:{line_numbers[negative[0]]}: negative "
                                  f"|S21|^2 (pass dB data through the dB conversion)",
                                  module=_MODULE)
    order = np.argsort(data[:, 0], kind="stable")
    freqs = data[order, 0]
    same = np.flatnonzero(freqs[1:] == freqs[:-1])
    if same.size:
        k = same[0]
        raise ValidationError(f"{path}:{line_numbers[order[k + 1]]}: duplicate "
                              f"frequency {float(freqs[k])!r} (also on line "
                              f"{line_numbers[order[k]]})", module=_MODULE)
    return Spectrum(freq_hz=freqs, s21_sq=data[order, 1])


def write_grid(path, grid: SpectrumGrid) -> None:
    """Write an avoided-crossing map as long-format CSV (atomic)."""
    delta, nu = np.meshgrid(grid.delta_s_hz, grid.nu_p_hz, indexing="ij")
    rows = np.column_stack([delta.ravel(), nu.ravel(), grid.s21_sq.ravel()])
    write_table(path, _GRID_HEADER, rows.tolist())


def write_fit_result(path, result: FitResult) -> None:
    """Serialize a fit result to JSON (atomic)."""
    write_json(path, result.as_dict())
