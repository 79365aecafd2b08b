"""Tests for ensemble coupling rates, spin counts, and cooperativity."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcavity import coupling as cp
from nvcavity import fieldmap as fm
from nvcavity._fileio import write_json
from nvcavity.constants import BOHR_MAGNETON, NV_G_FACTOR, PLANCK_H
from nvcavity.errors import DomainError
from nvcavity.nvspin import SpinSpecies

# Ensemble-averaged coupling rate per tesla, including the
# tetrahedral projection factor and the default |S| = 1/sqrt(2).
RATE_PER_TESLA = (math.sqrt(2.0 / 3.0) * NV_G_FACTOR * BOHR_MAGNETON
                  / (2.0 * PLANCK_H) / math.sqrt(2.0))

REFERENCE_REGION = fm.SampleRegion(center=(0.0, 0.0, 0.0),
                               extents=(4.2e-3, 3.4e-3, 0.92e-3))


def normalized_uniform_map(magnitude, f_c=3.121e9, dims=(3, 3, 3),
                           spacing=(3e-3, 3e-3, 1e-3)):
    spacing = np.asarray(spacing, dtype=float)
    b = np.zeros(dims + (3,))
    b[..., 1] = magnitude
    origin = -spacing * (np.array(dims) - 1) / 2.0
    fmap = fm.FieldMap(origin=origin, spacing=spacing, b=b,
                       energy_j=PLANCK_H * f_c)
    return fm.normalize_to_vacuum(fmap, f_c)


class TestSingleSpinCoupling:
    def test_zero_field(self):
        assert cp.single_spin_coupling(0.0) == 0.0
        assert cp.single_spin_coupling((0.0, 0.0, 0.0)) == 0.0

    def test_rate_formula(self):
        g0 = cp.single_spin_coupling(1.0)
        assert g0 == pytest.approx(RATE_PER_TESLA, rel=1e-12)

    def test_picotesla_vacuum_field_gives_70_mHz(self):
        # A zero-point field of 8.74e-12 T gives a ~70 mHz single-spin rate.
        g0 = cp.single_spin_coupling(8.74e-12)
        assert g0 == pytest.approx(0.070, rel=0.02)

    def test_70_mHz_inversion_roundtrip(self):
        b_req = 0.070 / cp.single_spin_coupling(1.0)
        assert b_req == pytest.approx(8.650466862599202e-12, rel=1e-8)
        assert cp.single_spin_coupling(b_req) == pytest.approx(0.070,
                                                               rel=1e-12)

    def test_linearity(self):
        b = np.array([3e-12, -4e-12, 12e-12])
        assert cp.single_spin_coupling(2 * b) == pytest.approx(
            2 * cp.single_spin_coupling(b), rel=1e-15)

    def test_vector_magnitude_equals_scalar(self):
        assert cp.single_spin_coupling((0.0, 0.0, 5e-12)) == pytest.approx(
            cp.single_spin_coupling(5e-12), rel=1e-15)


class TestSpinCount:
    def test_reference_sample(self):
        ens = cp.EnsembleSpec(density_ppm=40.0, region=REFERENCE_REGION)
        n = cp.spin_count(ens)
        expected = 40e-6 * 1.76e29 * 4.2e-3 * 3.4e-3 * 0.92e-3
        assert n == pytest.approx(expected, rel=1e-12)
        assert 9.0e16 <= n <= 9.5e16

    def test_zero_density(self):
        ens = cp.EnsembleSpec(density_ppm=0.0, region=REFERENCE_REGION)
        assert cp.spin_count(ens) == 0.0

    def test_additive_over_disjoint_halves(self):
        left = fm.SampleRegion(center=(-1e-3, 0.0, 0.0),
                               extents=(2e-3, 3e-3, 1e-3))
        right = fm.SampleRegion(center=(1e-3, 0.0, 0.0),
                                extents=(2e-3, 3e-3, 1e-3))
        full = fm.SampleRegion(center=(0.0, 0.0, 0.0),
                               extents=(4e-3, 3e-3, 1e-3))
        parts = sum(cp.spin_count(cp.EnsembleSpec(density_ppm=12.0, region=r))
                    for r in (left, right))
        whole = cp.spin_count(cp.EnsembleSpec(density_ppm=12.0, region=full))
        assert parts == pytest.approx(whole, rel=1e-12)

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            cp.EnsembleSpec(density_ppm=-1.0, region=REFERENCE_REGION)


class TestCollectiveCoupling:
    def test_reference_ensemble_order_of_magnitude(self):
        n = 40e-6 * 1.76e29 * 4.2e-3 * 3.4e-3 * 0.92e-3
        omega = cp.collective_coupling(0.070, n)
        assert omega == pytest.approx(21.3e6, rel=0.02)
        # Same order as the measured 12.46 MHz, not the same value.
        assert 1.0 < omega / 12.46e6 < 10.0

    def test_zero_spins(self):
        assert cp.collective_coupling(0.070, 0.0) == 0.0

    def test_scale_law_exact(self):
        n = 9.2488704e16
        omega = cp.collective_coupling(0.07, n)
        assert cp.collective_coupling(0.07, 4.0 * n) == 2.0 * omega
        assert cp.collective_coupling(0.07, 16.0 * n) == 4.0 * omega


class TestCooperativity:
    def test_reference_point(self):
        c = cp.cooperativity(12.46e6, 1.91e6, 3.0e6)
        assert c == pytest.approx(27.1, abs=0.05)

    def test_zero_coupling(self):
        assert cp.cooperativity(0.0, 1.91e6, 3.0e6) == 0.0

    def test_quadratic_in_omega(self):
        base = cp.cooperativity(5e6, 1.91e6, 3.0e6)
        assert cp.cooperativity(10e6, 1.91e6, 3.0e6) == pytest.approx(
            4.0 * base, rel=1e-15)

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(DomainError):
            cp.cooperativity(1e6, 0.0, 3e6)
        with pytest.raises(DomainError):
            cp.cooperativity(1e6, 1.9e6, -3e6)


class TestCouplingReport:
    def region(self):
        return fm.SampleRegion(center=(0.0, 0.0, 0.0),
                               extents=(4e-3, 4e-3, 1.5e-3))

    def test_uniform_map_has_no_spread(self):
        fmap = normalized_uniform_map(2e-12)
        ens = cp.EnsembleSpec(density_ppm=40.0, region=self.region())
        report = cp.coupling_report(fmap, ens)
        assert report.g0_rms_deviation == 0.0
        assert report.g0_max_deviation == 0.0
        assert report.omega == report.g0_mean * math.sqrt(report.n_spins)
        assert report.cooperativity is None

    def test_g0_statistics_match_field_statistics(self):
        b = np.zeros((3, 2, 2, 3))
        b[0, :, :, 2] = 1e-12
        b[1, :, :, 2] = 1e-12
        b[2, :, :, 2] = 5e-12
        fmap = fm.FieldMap(origin=(0.0, 0.0, 0.0),
                           spacing=(1e-3, 1e-3, 1e-3), b=b,
                           energy_j=PLANCK_H * 3.121e9)
        fmap = fm.normalize_to_vacuum(fmap, 3.121e9)
        region = fm.SampleRegion(center=(1e-3, 0.5e-3, 0.5e-3),
                                 extents=(2e-3, 1e-3, 1e-3))
        field_stats = fm.homogeneity(fmap, region)
        ens = cp.EnsembleSpec(density_ppm=40.0, region=region)
        report = cp.coupling_report(fmap, ens)
        assert report.g0_rms_deviation == pytest.approx(
            field_stats.rms_deviation, rel=1e-12)
        assert report.g0_max_deviation == pytest.approx(
            field_stats.max_deviation, rel=1e-12)
        rate = cp.single_spin_coupling(1.0)
        assert report.g0_mean == pytest.approx(
            rate * field_stats.mean_field_t, rel=1e-12)

    def test_unnormalized_map_rejected(self):
        b = np.full((3, 3, 3, 3), 1e-12)
        fmap = fm.FieldMap(origin=(-3e-3, -3e-3, -1e-3),
                           spacing=(3e-3, 3e-3, 1e-3), b=b, energy_j=1e-22)
        ens = cp.EnsembleSpec(density_ppm=40.0, region=self.region())
        with pytest.raises(DomainError):
            cp.coupling_report(fmap, ens)

    def test_single_linewidth_rejected(self):
        fmap = normalized_uniform_map(2e-12)
        ens = cp.EnsembleSpec(density_ppm=40.0, region=self.region())
        with pytest.raises(DomainError):
            cp.coupling_report(fmap, ens, kappa=1.91e6)

    def test_cooperativity_from_linewidths(self):
        fmap = normalized_uniform_map(2e-12)
        ens = cp.EnsembleSpec(density_ppm=40.0, region=self.region())
        report = cp.coupling_report(fmap, ens, kappa=1.91e6, gamma_star=3e6)
        assert report.cooperativity == pytest.approx(
            report.omega**2 / (1.91e6 * 3e6), rel=1e-12)

    def test_species_g_factor_scales_rate(self):
        fmap = normalized_uniform_map(2e-12)
        ens = cp.EnsembleSpec(density_ppm=40.0, region=self.region())
        base = cp.coupling_report(fmap, ens)
        heavier = cp.coupling_report(
            fmap, ens, species=SpinSpecies(g_factor=2 * 2.0028))
        assert heavier.g0_mean == pytest.approx(2.0 * base.g0_mean, rel=1e-12)

    def test_report_serialization(self, tmp_path):
        fmap = normalized_uniform_map(2e-12)
        ens = cp.EnsembleSpec(density_ppm=40.0, region=self.region())
        report = cp.coupling_report(fmap, ens, kappa=1.91e6, gamma_star=3e6)
        out = tmp_path / "report.json"
        write_json(out, report.as_dict())
        payload = json.loads(out.read_text())
        for key in ("g0_mean_Hz", "g0_rms_deviation", "g0_max_deviation",
                    "N_spins", "Omega_Hz", "cooperativity"):
            assert key in payload
        assert payload["Omega_Hz"] == report.omega


_LENGTHS = st.floats(1e-4, 2e-3)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), dims=st.tuples(*[st.integers(2, 6)] * 3),
       spacing=st.tuples(*[_LENGTHS] * 3),
       origin=st.tuples(*[st.floats(-5e-3, 5e-3)] * 3))
def test_statistics_are_the_scaled_homogeneity_report(data, dims, spacing,
                                                       origin):
    n = 3 * int(np.prod(dims))
    b = np.array(data.draw(st.lists(st.floats(-1e-11, 1e-11), min_size=n,
                                    max_size=n))).reshape(dims + (3,))
    b[..., 1] += 2e-11  # keeps the mean |B| above zero
    f_c = 3.121e9
    fmap = fm.FieldMap(origin=origin, spacing=spacing, b=b,
                       energy_j=PLANCK_H * f_c, photon_frequency_hz=f_c)
    # A region inside the hull: per axis a center fraction and a half-width
    # fraction that keeps both faces on the grid.
    span = np.asarray(spacing) * (np.array(dims) - 1)
    centers, halves = [], []
    for _ in range(3):
        c = data.draw(st.floats(0.05, 0.95))
        centers.append(c)
        halves.append(data.draw(st.floats(0.01, min(c, 1.0 - c))))
    region = fm.SampleRegion(center=np.asarray(origin) + np.array(centers) * span,
                             extents=2.0 * np.array(halves) * span)
    field = fm.homogeneity(fmap, region)
    report = cp.coupling_report(fmap, cp.EnsembleSpec(density_ppm=4.5,
                                                      region=region))
    assert report.g0_rms_deviation == field.rms_deviation
    assert report.g0_max_deviation == field.max_deviation
    assert report.g0_mean == cp.single_spin_coupling(1.0) * field.mean_field_t
