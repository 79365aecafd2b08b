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
SPIN1_Z = np.diag([1.0, 0.0, -1.0])
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2)
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
    ground (max |m_s=0> overlap) sublevel, sorted."""

    eigenvalues: tuple[float, float, float]
    f_lower: float
    f_upper: float


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


def _unit_axis(axis) -> np.ndarray:
    """``axis`` as a finite 3-vector of norm 1 (to 1e-9)."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,) or not np.all(np.isfinite(axis)):
        raise DomainError("axis must be a finite 3-vector", module=_MODULE)
    norm = float(np.linalg.norm(axis))
    if abs(norm - 1.0) > 1e-9:
        raise DomainError(f"axis must be normalized (|axis| = {norm:.12g})",
                          module=_MODULE)
    return axis


def _zeeman_field(species: SpinSpecies, fields) -> np.ndarray:
    """``fields`` as (n, 3) rows in tesla.  The first row that is not finite,
    or whose level span 2 g mu_B |B| / h overflows, is rejected."""
    fields = np.asarray(fields, dtype=float)
    if fields.ndim == 2 and fields.shape[1] == 3:
        with np.errstate(over="ignore"):
            finite = np.isfinite(2.0 * species.zeeman_hz_per_t * np.hypot(
                np.hypot(fields[:, 0], fields[:, 1]), fields[:, 2]))
        if finite.all():
            return fields
        b0 = fields[np.argmin(finite)]
        if np.all(np.isfinite(b0)):
            raise DomainError(f"Zeeman term g mu_B |B| / h overflows at |B| = "
                              f"{math.hypot(*b0):.6g} T", module=_MODULE)
    raise DomainError("static field must be a finite 3-vector in tesla",
                      module=_MODULE)


def _hamiltonians(species: SpinSpecies, axis: np.ndarray,
                  fields: np.ndarray) -> np.ndarray:
    """H/h with Sz along ``axis`` for each row of ``fields``, shape (n, 3, 3).

    B_par and |B_perp| are formed elementwise, so a row rounds the same
    alone or in a stack, and by hypot, so no square overflows.
    """
    (ax, ay, az), (bx, by, bz) = axis, fields.T
    b_par = bx * ax + by * ay + bz * az
    b_perp = np.hypot(np.hypot(bx - b_par * ax, by - b_par * ay), bz - b_par * az)
    zeeman = species.zeeman_hz_per_t * (b_perp[:, None, None] * SPIN1_X
                                        + b_par[:, None, None] * SPIN1_Z)
    return species.zero_field_splitting * (SPIN1_Z @ SPIN1_Z) + zeeman


def hamiltonian(species: SpinSpecies, axis, b0) -> np.ndarray:
    """Real symmetric 3x3 spin Hamiltonian H/h in hertz, Sz along ``axis``.

    H = D Sz^2 + (g mu_B / h) (B_perp Sx + B_par Sz): the transverse field
    lies along Sx.  A rotation about the axis, diag(e^-i phi, 1, e^i phi)
    in the {+1, 0, -1} basis, keeps the eigenvalues and |m_s=0> weights.
    """
    return _hamiltonians(species, _unit_axis(axis), _zeeman_field(species, [b0]))[0]


def _transitions(h: np.ndarray):
    """Eigenvalues and sorted (f_lower, f_upper) of each Hamiltonian in ``h``.

    The ground sublevel is the eigenvector with maximal overlap with
    |m_s=0>, which stays correct at transverse fields where plain energy
    ordering would mislabel the states.
    """
    eigvals, eigvecs = np.linalg.eigh(h)
    overlaps = np.abs(eigvecs[..., 1, :]) ** 2  # |<m_s=0|v_i>|^2
    # On an exact tie argsort's last index wins (argmax would take the first).
    ground = np.argsort(overlaps, axis=-1)[..., -1:]
    others = (ground + np.array([1, 2])) % 3
    f_ab = (np.take_along_axis(eigvals, others, axis=-1)
            - np.take_along_axis(eigvals, ground, axis=-1))
    return eigvals, np.sort(f_ab, axis=-1)


def transition_frequencies(species: SpinSpecies, axis, b0) -> SpinLevels:
    """Diagonalize the spin Hamiltonian and extract the two transitions
    from the ground (max |m_s=0> overlap) sublevel."""
    eigvals, (f_lower, f_upper) = _transitions(hamiltonian(species, axis, b0))
    return SpinLevels(eigenvalues=tuple(float(v) for v in eigvals),
                      f_lower=float(f_lower), f_upper=float(f_upper))


# Search range [T] and frequency tolerance [Hz] of zeeman_tune.
_TUNE_B_MAX = 0.5
_TUNE_TOL_HZ = 1.0


def zeeman_tune(species: SpinSpecies, axes, direction, f_target: float,
                which: str = "upper") -> float:
    """Smallest field magnitude along ``direction`` in [0, 0.5] T at which
    the selected transition of sub-ensemble 0, the first of ``axes``, is
    within 1 Hz of ``f_target`` [Hz]; NoSolutionError when there is none.

    With beta = g mu_B |B| / h and theta the field's angle to the axis, each
    level lam solves lam (D - lam)^2 = beta^2 (lam - D sin^2 theta).  A ground
    level u and the level u + f share beta^2; eliminating it leaves a cubic in
    u, and each real root gives a candidate field that one eigensolve checks.
    """
    if which not in ("lower", "upper"):
        raise DomainError("which must be 'lower' or 'upper'", module=_MODULE)
    if f_target <= 0:
        raise DomainError("f_target must be > 0", module=_MODULE)
    direction = _unit_direction(direction)
    axis = _unit_axis(np.asarray(axes, dtype=float)[0])
    d_hz, zeeman = species.zero_field_splitting, species.zeeman_hz_per_t
    if abs(d_hz - f_target) <= _TUNE_TOL_HZ:
        return 0.0
    if (f_target > d_hz) != (which == "upper"):
        raise NoSolutionError(
            f"target {f_target:.6g} Hz is on the wrong side of the zero-field "
            f"value {d_hz:.6g} Hz for the {which} branch", module=_MODULE)
    if f_target <= d_hz + 2.0 * zeeman * _TUNE_B_MAX:  # levels span <= D + 2 beta
        q = max(d_hz, f_target)  # in units of q no term of the cubic overflows
        d, f = d_hz / q, f_target / q
        sd = (1.0 - min(1.0, float(axis @ direction) ** 2)) * d
        u = np.roots([-2.0, 3 * sd - 3 * f + 2 * d,
                      2 * f * d + 3 * f * sd - f * f - 4 * sd * d, sd * (f - d) ** 2])
        w = np.array([u, u + f])[:, u.imag == 0].real  # each real root u
        with np.errstate(all="ignore"):
            # beta^2 from the level it is least sensitive to; 0/0 on the axis.
            slope = np.abs(1 / w - 2 / (d - w) - 1 / (w - sd))
            w = np.choose(np.argmin(np.nan_to_num(slope, nan=np.inf), axis=0), w)
            b_mags = q * np.sqrt(w * (d - w) ** 2 / (w - sd)) / zeeman
            b_mags = np.sort(b_mags[b_mags <= _TUNE_B_MAX]).tolist()
        for b_mag in b_mags:
            levels = transition_frequencies(species, axis, b_mag * direction)
            if abs(getattr(levels, "f_" + which) - f_target) <= _TUNE_TOL_HZ:
                return b_mag
    raise NoSolutionError(
        f"target {f_target:.6g} Hz not reachable on the {which} branch "
        f"within [0, {_TUNE_B_MAX}] T", module=_MODULE)


def write_transition_sweep(path, species: SpinSpecies, direction,
                           b_values) -> list:
    """Write a transition-frequency sweep CSV and return its rows.

    Columns: B_magnitude_T, axis_index, f_lower_Hz, f_upper_Hz; one row
    per (field magnitude, NV axis) pair, over the four axes of NV_AXES.
    """
    direction = _unit_direction(direction)
    b_values = np.asarray(b_values, dtype=float)
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, which _zeeman_field rejects
        fields = _zeeman_field(species, b_values[:, None] * direction)
    # One stacked eigensolve over (field, axis), in row order.
    h = np.stack([_hamiltonians(species, axis, fields) for axis in NV_AXES], axis=1)
    freqs = _transitions(h)[1].tolist()
    rows = [(b_mag, idx, *freqs[i][idx])
            for i, b_mag in enumerate(b_values.tolist()) for idx in range(len(NV_AXES))]
    write_table(path, "B_magnitude_T,axis_index,f_lower_Hz,f_upper_Hz", rows)
    return rows
