"""Lumped-element circuit model of the bow-tie cavity.

The cavity is an LC oscillator: the two bow-tie top surfaces form two
equal parallel-plate capacitors in series against the lid, and the
current path between them acts as a flat-wire inductor.  All routines
are pure functions of the geometry, in SI units.
"""

import math
from dataclasses import dataclass

from .constants import EPSILON_0, MU_0
from .errors import DomainError

_MODULE = "circuit"


def _require_positive(value: float, name: str) -> float:
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be a positive finite number, got {value!r}",
                          module=_MODULE)
    return value


def _omega_squared(f_target: float) -> float:
    _require_positive(f_target, "f_target")
    try:
        return (2.0 * math.pi * f_target) ** 2
    except OverflowError:
        raise DomainError(f"f_target {f_target!r} Hz is too high", module=_MODULE) from None


@dataclass(frozen=True)
class CavityGeometry:
    """Bow-tie geometry. Lengths in meters, area in square meters.

    plate_area   top area of one bow-tie element (capacitor plate)
    gap          separation between bow-tie top surface and cover lid
    path_length  length of the current path closing the LC circuit
    path_width   width of that path (bow-tie width)
    """

    plate_area: float
    gap: float
    path_length: float
    path_width: float

    def __post_init__(self):
        for name in ("plate_area", "gap", "path_length", "path_width"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive finite number, got {value!r}",
                                  module=_MODULE)
        if self.path_width >= self.path_length:
            raise DomainError(
                f"flat-wire model requires path_width < path_length "
                f"(got w={self.path_width}, l={self.path_length})", module=_MODULE)


@dataclass(frozen=True)
class CircuitParams:
    """Derived circuit quantities: C [F], L [H], angular and plain frequency."""

    c_total: float
    l_total: float
    omega_c_rad_per_s: float
    f_c: float  # Hz


def series_capacitance(geom: CavityGeometry, relative_permittivity: float = 1.0) -> float:
    """Total capacitance of the two plate capacitors in series, in farads.

    C_tot = eps0 * eps_r * A / (2 d).  ``relative_permittivity`` covers
    dielectric-loaded gaps; the default is a vacuum/air gap.
    """
    _require_positive(relative_permittivity, "relative_permittivity")
    return EPSILON_0 * relative_permittivity * geom.plate_area / (2.0 * geom.gap)


def flat_wire_inductance(geom: CavityGeometry, inductance_scale: float = 1.0) -> float:
    """Inductance of the current path as a flat wire, in henries.

    L_tot = k_L * (mu0 / 2 pi) * l * (ln(l/w) + w/l).  The prefactor
    mu0/2pi fixes the proportionality of the flat-wire scaling law;
    ``inductance_scale`` (k_L) is a dimensionless calibration constant
    for matching a measured or simulated resonance.
    """
    l, w = geom.path_length, geom.path_width
    _require_positive(inductance_scale, "inductance_scale")
    return inductance_scale * (MU_0 / (2.0 * math.pi)) * l * (math.log(l / w) + w / l)


def eigenfrequency(geom: CavityGeometry, inductance_scale: float = 1.0,
                   relative_permittivity: float = 1.0) -> CircuitParams:
    """Cavity eigenfrequency from geometry: omega_c = 1/sqrt(L_tot C_tot)."""
    c_total = series_capacitance(geom, relative_permittivity)
    l_total = flat_wire_inductance(geom, inductance_scale)
    # With C, L and LC positive and finite, f_c is positive and finite too.
    if not all(0 < v < math.inf for v in (c_total, l_total, l_total * c_total)):
        raise DomainError(f"circuit out of range: C_total={c_total!r} F, "
                          f"L_total={l_total!r} H", module=_MODULE)
    omega_c = 1.0 / math.sqrt(l_total * c_total)
    return CircuitParams(c_total=c_total, l_total=l_total,
                         omega_c_rad_per_s=omega_c, f_c=omega_c / (2.0 * math.pi))


def gap_for_frequency(geom: CavityGeometry, f_target: float,
                      inductance_scale: float = 1.0,
                      relative_permittivity: float = 1.0) -> float:
    """Plate gap d that tunes the cavity to ``f_target`` (hertz).

    Inverts the LC eigenfrequency: with C = eps0 eps_r A/(2d) and
    omega^2 = 1/(LC), the gap is d = eps0 eps_r A L omega^2 / 2.
    ``geom.gap`` is ignored; the other geometry fields are kept fixed.
    """
    omega_sq = _omega_squared(f_target)
    _require_positive(relative_permittivity, "relative_permittivity")
    l_total = flat_wire_inductance(geom, inductance_scale)
    gap = EPSILON_0 * relative_permittivity * geom.plate_area * l_total * omega_sq / 2.0
    return _require_positive(gap, f"gap for f_target {f_target!r} Hz")


def inductance_scale_for_frequency(geom: CavityGeometry, f_target: float,
                                   relative_permittivity: float = 1.0) -> float:
    """Calibration constant k_L that makes ``geom`` resonate at ``f_target``.

    Companion inverse to :func:`gap_for_frequency` for calibrating the
    flat-wire proportionality against a known resonance.
    """
    omega_sq = _omega_squared(f_target)
    c_total = series_capacitance(geom, relative_permittivity)
    denominator = flat_wire_inductance(geom, 1.0) * c_total * omega_sq
    k_l = 1.0 / denominator if denominator > 0 else math.inf
    return _require_positive(k_l, f"k_L for f_target {f_target!r} Hz")
