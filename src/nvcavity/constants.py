"""Physical constants registry.

Every derived number in the toolkit traces back to the values below, so
they live in one place and can be printed with ``nvcavity constants``.
The five CODATA values are CODATA 2022 literals, checked bit for bit
against :mod:`scipy.constants` by a test, so results no longer depend on
which CODATA table the installed scipy carries, and importing the
toolkit does not import scipy.
"""

EPSILON_0 = 8.8541878188e-12  # vacuum permittivity [F/m]
MU_0 = 1.25663706127e-06  # vacuum permeability [H/m]
PLANCK_H = 6.62607015e-34  # Planck constant [J s] (exact)
HBAR = 1.0545718176461565e-34  # reduced Planck constant h / 2 pi [J s]
BOHR_MAGNETON = 9.2740100657e-24  # Bohr magneton [J/T]

# NV defaults; both are overridable through SpinSpecies.
NV_ZERO_FIELD_SPLITTING_HZ = 2.87e9  # D/h [Hz]
NV_G_FACTOR = 2.0028  # electron g-factor of the NV ground state

# Diamond carbon site density, for ppm -> m^-3 conversion of defect densities.
CARBON_SITE_DENSITY_M3 = 1.76e29  # [m^-3] (= 1.76e23 cm^-3)

# Spin transition matrix element |<+-1|Sx|0>| of a spin-1 triplet.
SPIN_MATRIX_ELEMENT = 2.0**-0.5

# Default upper edges of the homogeneity histogram bins, as fractions of
# the region mean.  A report setting, not a physical value, so it is not
# in the registry; it lives here so the CLI's option table can read it
# without importing the field solver.
DEFAULT_CONTOUR_BINS = (0.01, 0.02, 0.05, 0.10)


def registry() -> list[dict]:
    """All constants as (name, value, unit, description) records."""
    return [
        {"name": "epsilon_0", "value": EPSILON_0, "unit": "F/m",
         "description": "vacuum permittivity"},
        {"name": "mu_0", "value": MU_0, "unit": "H/m",
         "description": "vacuum permeability"},
        {"name": "planck_h", "value": PLANCK_H, "unit": "J s",
         "description": "Planck constant"},
        {"name": "hbar", "value": HBAR, "unit": "J s",
         "description": "reduced Planck constant"},
        {"name": "bohr_magneton", "value": BOHR_MAGNETON, "unit": "J/T",
         "description": "Bohr magneton"},
        {"name": "nv_zero_field_splitting", "value": NV_ZERO_FIELD_SPLITTING_HZ,
         "unit": "Hz", "description": "NV ground-state zero-field splitting D/h"},
        {"name": "nv_g_factor", "value": NV_G_FACTOR, "unit": "1",
         "description": "NV electron g-factor"},
        {"name": "carbon_site_density", "value": CARBON_SITE_DENSITY_M3,
         "unit": "m^-3", "description": "carbon site density of diamond"},
        {"name": "spin_matrix_element", "value": SPIN_MATRIX_ELEMENT, "unit": "1",
         "description": "spin-1 transition matrix element |<+-1|Sx|0>|"},
    ]
