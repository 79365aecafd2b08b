"""Spin-ensemble coupling strengths from vacuum-normalized field maps.

A single NV couples to the cavity's vacuum field with

    |g0| = sqrt(2/3) * (mu_B g / 2 h) * |B_vac| * |S|    [Hz]

where the sqrt(2/3) is the angular average of the field projection onto
the four crystallographic axis families and |S| the spin-1 transition
matrix element.  N spins couple collectively with Omega = g0 * sqrt(N),
and the cooperativity C = Omega^2 / (kappa * gamma_star) measures the
coupling against cavity and spin linewidths.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOHR_MAGNETON, CARBON_SITE_DENSITY_M3, PLANCK_H, SPIN_MATRIX_ELEMENT
from .errors import DomainError
from .fieldmap import FieldMap, SampleRegion, homogeneity
from .nvspin import SpinSpecies

_MODULE = "coupling"

# Angular projection factor replacing explicit per-axis geometry.
_TETRAHEDRAL_PROJECTION = math.sqrt(2.0 / 3.0)

_NV = SpinSpecies()


@dataclass(frozen=True)
class EnsembleSpec:
    """Spin ensemble: density_ppm NV centers per million carbon sites of
    diamond, over a host sample region."""

    density_ppm: float
    region: SampleRegion

    def __post_init__(self):
        if not (self.density_ppm >= 0 and math.isfinite(self.density_ppm)):
            raise DomainError("density_ppm must be >= 0 and finite", module=_MODULE)


@dataclass(frozen=True)
class CouplingReport:
    """Coupling summary over a sample region.

    g0_mean is the volume-weighted mean single-spin coupling over the
    region; its deviations are fractions of that mean.  cooperativity is
    None when no linewidths were supplied.
    """

    g0_mean: float  # Hz
    g0_rms_deviation: float
    g0_max_deviation: float
    n_spins: float
    omega: float  # Hz
    cooperativity: float | None

    def as_dict(self) -> dict:
        return {
            "g0_mean_Hz": self.g0_mean,
            "g0_rms_deviation": self.g0_rms_deviation,
            "g0_max_deviation": self.g0_max_deviation,
            "N_spins": self.n_spins,
            "Omega_Hz": self.omega,
            "cooperativity": self.cooperativity,
        }


def _coupling_rate_per_tesla(species: SpinSpecies) -> float:
    return (_TETRAHEDRAL_PROJECTION * species.g_factor * BOHR_MAGNETON
            / (2.0 * PLANCK_H) * SPIN_MATRIX_ELEMENT)


def single_spin_coupling(b_vac) -> float:
    """Single-spin coupling |g0| in Hz for a vacuum field ``b_vac``.

    ``b_vac`` is the vacuum field as a 3-vector [T] or its magnitude;
    the sqrt(2/3) projection factor stands in for the angle between
    field and spin axis.
    """
    b_vac = np.asarray(b_vac, dtype=float)
    if not np.all(np.isfinite(b_vac)):
        raise DomainError("b_vac must be finite", module=_MODULE)
    if b_vac.ndim == 0:
        magnitude = abs(float(b_vac))
    elif b_vac.shape == (3,):
        magnitude = float(np.linalg.norm(b_vac))
    else:
        raise DomainError("b_vac must be a 3-vector or a scalar magnitude",
                          module=_MODULE)
    return _coupling_rate_per_tesla(_NV) * magnitude


def spin_count(ens: EnsembleSpec) -> float:
    """Number of spins in the ensemble region."""
    return (ens.density_ppm * 1e-6 * CARBON_SITE_DENSITY_M3
            * float(np.prod(ens.region.extents)))


def collective_coupling(g0_mean: float, n_spins: float) -> float:
    """Ensemble coupling Omega = g0 * sqrt(N) in Hz."""
    if not (n_spins >= 0 and math.isfinite(n_spins)):
        raise DomainError("n_spins must be >= 0 and finite", module=_MODULE)
    if not (g0_mean >= 0 and math.isfinite(g0_mean)):
        raise DomainError("g0_mean must be >= 0 and finite", module=_MODULE)
    return g0_mean * math.sqrt(n_spins)


def cooperativity(omega: float, kappa: float, gamma_star: float) -> float:
    """Cooperativity C = Omega^2 / (kappa * gamma_star)."""
    if not (kappa > 0 and math.isfinite(kappa)):
        raise DomainError("kappa must be > 0", module=_MODULE)
    if not (gamma_star > 0 and math.isfinite(gamma_star)):
        raise DomainError("gamma_star must be > 0", module=_MODULE)
    if not (omega >= 0 and math.isfinite(omega)):
        raise DomainError("omega must be >= 0 and finite", module=_MODULE)
    rates = kappa * gamma_star
    coop = omega * omega / rates if rates > 0 else math.inf
    if not math.isfinite(coop):
        raise DomainError("cooperativity overflows: kappa * gamma_star is too "
                          "small for omega", module=_MODULE)
    return coop


def coupling_report(fmap: FieldMap, ens: EnsembleSpec,
                    species: SpinSpecies = _NV,
                    kappa: float | None = None,
                    gamma_star: float | None = None) -> CouplingReport:
    """Full coupling summary of a vacuum-normalized map over a region.

    g0 is the coupling rate times |B|, so its statistics are the
    :func:`~nvcavity.fieldmap.homogeneity` report over the region, the
    mean scaled by the rate and the relative deviations unchanged.
    Cooperativity is filled in when both linewidths (HWHM, Hz) are given.
    """
    if not fmap.normalized:
        raise DomainError(
            "coupling_report needs a vacuum-normalized map; call "
            "normalize_to_vacuum first", module=_MODULE)
    field = homogeneity(fmap, ens.region)
    rate = _coupling_rate_per_tesla(species)
    g0_mean = rate * field.mean_field_t
    n = spin_count(ens)
    omega = collective_coupling(g0_mean, n)
    coop = None
    if kappa is not None and gamma_star is not None:
        coop = cooperativity(omega, kappa, gamma_star)
    elif (kappa is None) != (gamma_star is None):
        raise DomainError("kappa and gamma_star must be given together",
                          module=_MODULE)
    return CouplingReport(g0_mean=g0_mean, g0_rms_deviation=field.rms_deviation,
                          g0_max_deviation=field.max_deviation, n_spins=n,
                          omega=omega, cooperativity=coop)

