"""The constants registry against scipy's CODATA table."""

import pytest
from scipy import constants as sc

from nvcavity import constants


@pytest.mark.parametrize("name, want", [
    ("EPSILON_0", sc.epsilon_0),
    ("MU_0", sc.mu_0),
    ("PLANCK_H", sc.h),
    ("HBAR", sc.hbar),
    ("BOHR_MAGNETON", sc.physical_constants["Bohr magneton"][0]),
])
def test_codata_literals_are_scipy_values(name, want):
    assert getattr(constants, name) == want
