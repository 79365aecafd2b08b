"""NV ground-state spin-1 triplet under a static magnetic field.

The Hamiltonian (divided by h, so everything is in hertz) is

    H/h = D Sz^2 + (g mu_B / h) B0 . S

with Sz quantized along a chosen NV axis and the full static field
vector retained, longitudinal and transverse components alike.  Static
fields are plain 3-vectors in tesla, given in the diamond crystal frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._fileio import write_table
from .constants import BOHR_MAGNETON, NV_G_FACTOR, NV_ZERO_FIELD_SPLITTING_HZ, PLANCK_H
from .errors import DomainError, NoSolutionError

_MODULE = "nvspin"

# Spin-1 operators in the {+1, 0, -1} basis.
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
SPIN1_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / math.sqrt(2)

# The four crystallographic NV axes (normalized <111> directions).
NV_AXES = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
) / math.sqrt(3)


@dataclass(frozen=True)
class SpinSpecies:
    """Spin species constants: zero-field splitting D [Hz] and g-factor."""

    zero_field_splitting: float = NV_ZERO_FIELD_SPLITTING_HZ
    g_factor: float = NV_G_FACTOR

    def __post_init__(self):
        if not 0 < self.zero_field_splitting < math.inf:
            raise DomainError("zero_field_splitting must be positive and finite",
                              module=_MODULE)
        if not (self.g_factor > 0 and math.isfinite(self.zeeman_hz_per_t)):
            raise DomainError("g_factor must be positive, with a finite Zeeman "
                              "slope g mu_B / h", module=_MODULE)

    @property
    def zeeman_hz_per_t(self) -> float:
        """Linear Zeeman slope g mu_B / h in Hz/T."""
        return self.g_factor * BOHR_MAGNETON / PLANCK_H


@dataclass(frozen=True)
class SpinLevels:
    """Eigenvalues [Hz] sorted ascending and the two transitions from the
    ground (max |m_s=0> overlap) sublevel, sorted.

    ``ground_ambiguous`` is set when the overlap assignment of the ground
    sublevel is nearly degenerate (large transverse fields); values are
    still returned but should not be trusted blindly.
    """

    eigenvalues: tuple[float, float, float]
    f_lower: float
    f_upper: float
    ground_ambiguous: bool = False


def _unit_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)):
        raise DomainError(f"{name} must be a finite 3-vector", module=_MODULE)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"{name} must be normalized (|{name}| = {norm:.12g})",
                          module=_MODULE)
    return v


def _field_vector(b0) -> np.ndarray:
    b0 = np.asarray(b0, dtype=float)
    if b0.shape != (3,) or not np.all(np.isfinite(b0)):
        raise DomainError("static field must be a finite 3-vector in tesla",
                          module=_MODULE)
    return b0


def _unit_direction(direction) -> np.ndarray:
    """``direction`` divided by its norm, which must be nonzero and finite."""
    direction = np.asarray(direction, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = float(np.linalg.norm(direction))
    if norm == 0 and direction.shape == (3,) and np.all(np.isfinite(direction)):
        # The squares of a tiny nonzero vector underflow; rescale it first.
        largest = np.max(np.abs(direction))
        if largest > 0:
            direction = direction / largest
            norm = float(np.linalg.norm(direction))
    if direction.shape != (3,) or not (norm > 0 and math.isfinite(norm)):
        raise DomainError("direction must be a nonzero finite 3-vector", module=_MODULE)
    return direction / norm


def _local_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two transverse unit vectors completing ``axis`` to a right-handed frame."""
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    x = seed - np.dot(seed, axis) * axis
    x /= np.linalg.norm(x)
    y = np.cross(axis, x)
    return x, y


def hamiltonian(species: SpinSpecies, axis, b0) -> np.ndarray:
    """3x3 spin Hamiltonian H/h in hertz, with Sz along ``axis``.

    The Zeeman term uses the full field vector expressed in the
    axis-local frame, so transverse components are retained.
    """
    axis = _unit_vector(axis, "axis")
    b0 = _field_vector(b0)
    ex, ey = _local_frame(axis)
    bx, by, bz = np.dot(b0, ex), np.dot(b0, ey), np.dot(b0, axis)
    zeeman = species.zeeman_hz_per_t
    h = species.zero_field_splitting * (SPIN1_Z @ SPIN1_Z)
    h = h + zeeman * (bx * SPIN1_X + by * SPIN1_Y + bz * SPIN1_Z)
    return h


# Overlap ratio below which the ground-state assignment counts as ambiguous.
_AMBIGUOUS_OVERLAP_RATIO = 1.0 + 1e-6


def transition_frequencies(species: SpinSpecies, axis, b0) -> SpinLevels:
    """Diagonalize the spin Hamiltonian and extract the two transitions.

    The ground sublevel is the eigenvector with maximal overlap with
    |m_s=0>, which stays correct at transverse fields where plain energy
    ordering would mislabel the states.
    """
    h = hamiltonian(species, axis, b0)
    eigvals, eigvecs = np.linalg.eigh(h)
    overlaps = np.abs(eigvecs[1, :]) ** 2  # |<m_s=0|v_i>|^2
    order = np.argsort(overlaps)
    ground = int(order[-1])
    ambiguous = bool(overlaps[order[-1]] < _AMBIGUOUS_OVERLAP_RATIO * overlaps[order[-2]])
    others = [i for i in range(3) if i != ground]
    f_a, f_b = (float(eigvals[i] - eigvals[ground]) for i in others)
    f_lower, f_upper = sorted((f_a, f_b))
    return SpinLevels(eigenvalues=tuple(float(v) for v in eigvals),
                      f_lower=f_lower, f_upper=f_upper,
                      ground_ambiguous=ambiguous)


# Search range [T] and frequency tolerance [Hz] of zeeman_tune.
_TUNE_B_MAX = 0.5
_TUNE_TOL_HZ = 1.0


def zeeman_tune(species: SpinSpecies, axes, direction, f_target: float,
                which: str = "upper") -> float:
    """Field magnitude along ``direction`` that tunes the selected
    transition of sub-ensemble 0 to ``f_target`` [Hz].

    Solves on the monotone branch starting at B = 0 by bracketing and
    bisection to within 1 Hz; raises NoSolutionError when the target is
    not reached on that branch within [0, 0.5] T.
    """
    if which not in ("lower", "upper"):
        raise DomainError("which must be 'lower' or 'upper'", module=_MODULE)
    if f_target <= 0:
        raise DomainError("f_target must be > 0", module=_MODULE)
    axes = np.asarray(axes, dtype=float)
    direction = _unit_direction(direction)
    axis = axes[0] if axes.ndim == 2 else axes

    def freq(b_mag: float) -> float:
        levels = transition_frequencies(species, axis, b_mag * direction)
        return levels.f_lower if which == "lower" else levels.f_upper

    f0 = freq(0.0)
    if abs(f0 - f_target) <= _TUNE_TOL_HZ:
        return 0.0
    increasing = which == "upper"
    if (f_target > f0) != increasing:
        raise NoSolutionError(
            f"target {f_target:.6g} Hz is on the wrong side of the zero-field "
            f"value {f0:.6g} Hz for the {which} branch", module=_MODULE)

    # Walk the monotone branch from 0 until the target is bracketed or
    # monotonicity breaks.
    n_scan = 256
    b_lo, f_lo = 0.0, f0
    b_hi = None
    f_prev = f0
    for k in range(1, n_scan + 1):
        b = _TUNE_B_MAX * k / n_scan
        f = freq(b)
        if (f < f_prev) if increasing else (f > f_prev):
            break  # left the monotone branch
        if (f >= f_target) if increasing else (f <= f_target):
            b_hi = b
            break
        b_lo, f_lo, f_prev = b, f, f
    if b_hi is None:
        raise NoSolutionError(
            f"target {f_target:.6g} Hz not reachable on the monotone {which} "
            f"branch within [0, {_TUNE_B_MAX}] T", module=_MODULE)

    for _ in range(200):
        b_mid = 0.5 * (b_lo + b_hi)
        f_mid = freq(b_mid)
        if abs(f_mid - f_target) <= _TUNE_TOL_HZ:
            return b_mid
        if (f_mid < f_target) == increasing:
            b_lo = b_mid
        else:
            b_hi = b_mid
    raise NoSolutionError("bisection failed to reach the 1 Hz tolerance",
                          module=_MODULE)


def write_transition_sweep(path, species: SpinSpecies, direction,
                           b_values) -> list:
    """Write a transition-frequency sweep CSV and return its rows.

    Columns: B_magnitude_T, axis_index, f_lower_Hz, f_upper_Hz; one row
    per (field magnitude, NV axis) pair, over the four axes of NV_AXES.
    """
    direction = _unit_direction(direction)
    rows = []
    for b_mag in np.asarray(b_values, dtype=float):
        for idx, axis in enumerate(NV_AXES):
            levels = transition_frequencies(species, axis, b_mag * direction)
            rows.append((b_mag, idx, levels.f_lower, levels.f_upper))
    write_table(path, "B_magnitude_T,axis_index,f_lower_Hz,f_upper_Hz", rows)
    return rows
