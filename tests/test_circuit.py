"""Tests for the lumped-element circuit model."""

import math

import numpy as np
import pytest

from nvcavity.circuit import (
    CavityGeometry,
    eigenfrequency,
    flat_wire_inductance,
    gap_for_frequency,
    inductance_scale_for_frequency,
    series_capacitance,
)
from nvcavity.constants import EPSILON_0, MU_0
from nvcavity.errors import DomainError


def make_geom(A=100e-6, d=1e-3, l=10e-3, w=1e-3):
    return CavityGeometry(plate_area=A, gap=d, path_length=l, path_width=w)


class TestSeriesCapacitance:
    def test_constants_cancel(self):
        # A = 2/eps0 m^2, d = 1 m makes the prefactors drop out exactly.
        geom = make_geom(A=2.0 / EPSILON_0, d=1.0, l=1.0, w=0.5)
        assert series_capacitance(geom) == pytest.approx(1.0, rel=1e-15)

    def test_millimetre_scale_plates(self):
        # eps0 * 100 mm^2 / (2 * 1 mm), evaluated directly
        geom = make_geom()
        assert series_capacitance(geom) == pytest.approx(4.4270939094e-13, rel=1e-9)

    def test_inverse_in_gap(self):
        g1 = make_geom(d=1e-3)
        g2 = make_geom(d=2e-3)
        assert series_capacitance(g2) == pytest.approx(series_capacitance(g1) / 2, rel=1e-14)

    def test_dielectric_gap(self):
        geom = make_geom()
        assert series_capacitance(geom, relative_permittivity=5.7) == pytest.approx(
            5.7 * series_capacitance(geom), rel=1e-14)

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(DomainError):
            make_geom(A=-1e-6)
        with pytest.raises(DomainError):
            make_geom(d=0.0)


class TestFlatWireInductance:
    def test_log_unity_point(self):
        # l = w*e makes the log term exactly 1; w/l adds exp(-1).
        w = 1e-3
        geom = make_geom(l=w * math.e, w=w)
        expected = (MU_0 / (2 * math.pi)) * w * math.e * (1.0 + math.exp(-1.0))
        assert flat_wire_inductance(geom) == pytest.approx(expected, rel=1e-14)

    def test_ten_to_one_path(self):
        # (mu0/2pi) * 0.01 * (ln 10 + 0.1), evaluated directly
        geom = make_geom(l=10e-3, w=1e-3)
        assert flat_wire_inductance(geom) == pytest.approx(4.8051701854e-09, rel=1e-9)

    def test_scale_invariance_of_shape(self):
        geom = make_geom(l=10e-3, w=1e-3)
        scaled = make_geom(l=30e-3, w=3e-3)
        assert flat_wire_inductance(scaled) == pytest.approx(
            3.0 * flat_wire_inductance(geom), rel=1e-14)

    def test_calibration_constant_is_linear(self):
        geom = make_geom()
        assert flat_wire_inductance(geom, 1.7) == pytest.approx(
            1.7 * flat_wire_inductance(geom), rel=1e-14)

    def test_wide_path_rejected(self):
        with pytest.raises(DomainError):
            make_geom(l=1e-3, w=1e-3)  # w == l invalidates the log model


class TestEigenfrequency:
    def test_nanohenry_picofarad(self):
        # 1/(2 pi sqrt(LC)) for L = 1 nH, C = 1 pF is 5.0329 GHz; build a
        # geometry that produces those element values.
        w = 1e-3
        geom_l = make_geom(l=w * math.e, w=w)
        l_unit = flat_wire_inductance(geom_l)
        k_l = 1e-9 / l_unit
        d = EPSILON_0 * 100e-6 / (2 * 1e-12)  # gap giving C = 1 pF at A = 100 mm^2
        geom = make_geom(A=100e-6, d=d, l=w * math.e, w=w)
        params = eigenfrequency(geom, inductance_scale=k_l)
        assert params.c_total == pytest.approx(1e-12, rel=1e-12)
        assert params.l_total == pytest.approx(1e-9, rel=1e-12)
        assert params.f_c == pytest.approx(5.03292121e9, rel=1e-7)

    def test_invariants_by_construction(self):
        params = eigenfrequency(make_geom())
        assert params.omega_c_rad_per_s == pytest.approx(
            1.0 / math.sqrt(params.l_total * params.c_total), rel=1e-15)
        assert params.f_c == pytest.approx(params.omega_c_rad_per_s / (2 * math.pi),
                                           rel=1e-15)

    def test_gap_doubling_scales_frequency(self):
        f1 = eigenfrequency(make_geom(d=1e-3)).f_c
        f2 = eigenfrequency(make_geom(d=2e-3)).f_c
        assert f2 == pytest.approx(math.sqrt(2) * f1, rel=1e-13)

    def test_mm_scale_geometry_lands_in_ghz(self):
        f = eigenfrequency(make_geom()).f_c
        assert 0.1e9 < f < 100e9

    def test_calibration_to_measured_cavity(self):
        # The fabricated-cavity dimensions are unpublished, so hitting the
        # measured 2.775 GHz unloaded resonance is a calibration exercise:
        # solve the gap (or the inductance constant) for a plausible geometry.
        f_target = 2.775e9
        geom = make_geom(A=100e-6, l=10e-3, w=2e-3)
        d = gap_for_frequency(geom, f_target)
        assert 0.05e-3 < d < 5e-3  # mechanically adjustable range
        calibrated = CavityGeometry(plate_area=geom.plate_area, gap=d,
                                    path_length=geom.path_length,
                                    path_width=geom.path_width)
        assert eigenfrequency(calibrated).f_c == pytest.approx(f_target, rel=1e-12)

        k_l = inductance_scale_for_frequency(make_geom(), f_target)
        assert eigenfrequency(make_geom(), inductance_scale=k_l).f_c == pytest.approx(
            f_target, rel=1e-12)


class TestGapForFrequency:
    def test_roundtrip_single(self):
        geom = make_geom()
        f = eigenfrequency(geom).f_c
        assert gap_for_frequency(geom, f) == pytest.approx(geom.gap, rel=1e-12)

    def test_quadratic_in_target(self):
        geom = make_geom()
        d1 = gap_for_frequency(geom, 3e9)
        d2 = gap_for_frequency(geom, 6e9)
        assert d2 == pytest.approx(4.0 * d1, rel=1e-13)

    def test_roundtrip_random_geometries(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            A = 10.0 ** rng.uniform(-6, -3)       # 1 mm^2 .. 1000 mm^2
            d = 10.0 ** rng.uniform(-4.5, -2.5)   # ~0.03 .. 3 mm
            l = 10.0 ** rng.uniform(-3, -1.5)
            w = l * rng.uniform(0.05, 0.9)
            k = rng.uniform(0.3, 3.0)
            geom = CavityGeometry(plate_area=A, gap=d, path_length=l, path_width=w)
            f = eigenfrequency(geom, inductance_scale=k).f_c
            d_solved = gap_for_frequency(geom, f, inductance_scale=k)
            assert abs(d_solved - d) / d < 1e-12

    def test_rejects_nonpositive_target(self):
        with pytest.raises(DomainError):
            gap_for_frequency(make_geom(), -1.0)


class TestMonotonicity:
    def test_frequency_decreasing_in_area(self):
        areas = np.linspace(20e-6, 500e-6, 25)
        freqs = [eigenfrequency(make_geom(A=a)).f_c for a in areas]
        assert all(b < a for a, b in zip(freqs, freqs[1:]))

    def test_frequency_increasing_in_gap(self):
        gaps = np.linspace(0.2e-3, 5e-3, 25)
        freqs = [eigenfrequency(make_geom(d=d)).f_c for d in gaps]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_frequency_decreasing_in_path_length(self):
        w = 1e-3
        lengths = np.linspace(2e-3, 50e-3, 25)
        freqs = [eigenfrequency(make_geom(l=l, w=w)).f_c for l in lengths]
        assert all(b < a for a, b in zip(freqs, freqs[1:]))


@pytest.mark.parametrize("func, args", [
    (series_capacitance, (math.inf,)),
    (series_capacitance, (math.nan,)),
    (flat_wire_inductance, (math.inf,)),
    (gap_for_frequency, (math.inf,)),
    (gap_for_frequency, (3e9, 1.0, math.inf)),
    (gap_for_frequency, (1e159,)),  # (2 pi f)^2 overflows
    (inductance_scale_for_frequency, (math.nan,)),
])
def test_non_finite_inputs_rejected(func, args):
    with pytest.raises(DomainError):
        func(make_geom(), *args)
