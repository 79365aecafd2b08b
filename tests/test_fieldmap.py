"""Tests for field-map generation, normalization, and homogeneity."""

import math
import os
import tempfile

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from nvcavity import fieldmap as fm
from nvcavity._fileio import read_table
from nvcavity.constants import MU_0, PLANCK_H
from nvcavity.errors import DomainError, SingularityError, ValidationError


def uniform_map(b_vector, dims=(3, 3, 3), spacing=(1e-3, 1e-3, 1e-3),
                energy_j=None):
    b = np.broadcast_to(np.asarray(b_vector, dtype=float),
                        dims + (3,)).copy()
    spacing = np.asarray(spacing, dtype=float)
    origin = -spacing * (np.array(dims) - 1) / 2.0
    if energy_j is None:
        volume = np.prod((np.array(dims) - 1) * spacing)
        energy_j = np.dot(b_vector, b_vector) / MU_0 * volume
    return fm.FieldMap(origin=origin, spacing=spacing, b=b, energy_j=energy_j)


def solver_field(point, half_len, half_wid, k_current=1.0):
    """Field of a sheet in z = 0 carrying ``k_current`` along +x, from
    ``biot_savart_map`` at one node of a 2x2x2 grid whose other nodes lie
    further from the sheet.  Returns the node and the field there."""
    sheet = fm.CurrentSheet(center=(0.0, 0.0, 0.0), length=2 * half_len,
                            width=2 * half_wid, surface_current=k_current)
    point = np.asarray(point, dtype=float)
    step = np.where(point < 0, -0.25e-3, 0.25e-3)
    grid = fm.GridSpec(origin=np.minimum(point, point + step),
                       spacing=np.abs(step), dims=(2, 2, 2))
    index = tuple(int(s < 0) for s in step)
    node = np.array([axis[i] for axis, i in zip(grid.axes(), index)])
    return node, fm.biot_savart_map((sheet,), grid).b[index]


def assert_field_close(got, want, k_current=1.0):
    """Within 1e-9 of |want|, with a floor at the rounding level of a
    unit-current sheet's field for nodes where the field nearly cancels."""
    floor = 1e-14 * MU_0 * abs(k_current)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want) + floor


def dblquad_field(point, half_len, half_wid, k_current=1.0):
    """The same field by scipy's adaptive dblquad on the raw Biot-Savart
    integrand: B = mu0 K / 4pi * (0, -z s0, s1) with s0 = int 1/r^3 and
    s1 = int (y - y')/r^3 over the sheet."""
    x, y, z = (float(c) for c in point)

    def r3(up, vp):
        return ((x - up)**2 + (y - vp)**2 + z**2) ** 1.5

    s0, _ = integrate.dblquad(lambda vp, up: 1.0 / r3(up, vp),
                              -half_len, half_len, -half_wid, half_wid,
                              epsabs=0.0, epsrel=1e-12)
    s1, _ = integrate.dblquad(lambda vp, up: (y - vp) / r3(up, vp),
                              -half_len, half_len, -half_wid, half_wid,
                              epsabs=0.0, epsrel=1e-12)
    prefactor = MU_0 * k_current / (4.0 * math.pi)
    return prefactor * np.array([0.0, -z * s0, s1])


def line_integral_field(point, half_len, half_wid, k_current=1.0):
    """The same field with the integral over y' done by hand and the one
    over x' by mpmath's tanh-sinh rule, split below the point."""
    with mpmath.workdps(30):
        x, y, z = (mpmath.mpf(float(c)) for c in point)
        a, b = mpmath.mpf(half_len), mpmath.mpf(half_wid)
        y1, y2 = y - b, y + b

        def s0(up):
            p2 = (x - up)**2 + z * z
            return (y2 / mpmath.sqrt(p2 + y2 * y2)
                    - y1 / mpmath.sqrt(p2 + y1 * y1)) / p2

        def s1(up):
            p2 = (x - up)**2 + z * z
            return 1 / mpmath.sqrt(p2 + y1 * y1) - 1 / mpmath.sqrt(p2 + y2 * y2)

        breaks = sorted({-a, a, min(max(x, -a), a)})
        normal = -z * mpmath.quad(s0, breaks) if z != 0 else 0
        along = mpmath.quad(s1, breaks)
    prefactor = MU_0 * k_current / (4.0 * math.pi)
    return prefactor * np.array([0.0, float(normal), float(along)])


class TestGridSpec:
    def test_centered_grid(self):
        grid = fm.GridSpec.centered((4e-3, 2e-3, 1e-3), (5, 3, 2))
        xs, ys, zs = grid.axes()
        assert xs[0] == pytest.approx(-2e-3) and xs[-1] == pytest.approx(2e-3)
        assert ys[1] == pytest.approx(0.0)
        assert len(zs) == 2
        assert grid.spacing[0] == pytest.approx(1e-3)

    def test_degenerate_axis_rejected(self):
        with pytest.raises(DomainError):
            fm.GridSpec.centered((1e-3, 1e-3, 1e-3), (5, 1, 5))

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(DomainError):
            fm.GridSpec.centered((1e-3, 0.0, 1e-3), (3, 3, 3))


class TestBowtiePair:
    def test_counter_propagating_geometry(self):
        lower, upper = fm.bowtie_sheet_pair(length=6e-3, width=5e-3,
                                            gap=1e-3, surface_current=2.0)
        assert lower.center[2] == pytest.approx(-0.5e-3)
        assert upper.center[2] == pytest.approx(+0.5e-3)
        # Both currents run along x, the upper one reversed.
        assert lower.surface_current == 2.0
        assert upper.surface_current == -2.0

    def test_bad_gap_rejected(self):
        with pytest.raises(DomainError):
            fm.bowtie_sheet_pair(length=6e-3, width=5e-3, gap=0.0,
                                 surface_current=1.0)


class TestBiotSavart:
    def test_single_sheet_against_on_axis_closed_form(self):
        # On the axis of a rectangular sheet the field has a closed form,
        # B = (mu0 K / pi) arctan(ab / (h sqrt(a^2+b^2+h^2))), which tends
        # to the infinite-sheet value mu0 K / 2 as the sheet grows.
        k_current = 3.0
        a, b, h = 20e-3, 20e-3, 0.25e-3
        sheet = fm.CurrentSheet(center=(0.0, 0.0, 0.0), length=2 * a,
                                width=2 * b, surface_current=k_current)
        grid = fm.GridSpec(origin=(-0.1e-3, -0.1e-3, h),
                           spacing=(0.1e-3, 0.1e-3, 0.05e-3),
                           dims=(3, 3, 2))
        fmap = fm.biot_savart_map((sheet,), grid, rtol=1e-6)
        closed_form = (MU_0 * k_current / math.pi) * math.atan(
            a * b / (h * math.sqrt(a * a + b * b + h * h)))
        b_center = fmap.b[1, 1, 0]
        assert abs(b_center[1]) == pytest.approx(closed_form, rel=2e-6)
        assert abs(b_center[1]) == pytest.approx(MU_0 * k_current / 2.0,
                                                 rel=0.02)
        assert b_center[1] < 0  # above the sheet the field points along -y
        assert b_center[0] == 0.0
        assert abs(b_center[2]) < 1e-3 * closed_form

    def test_pair_focuses_field_between_and_cancels_outside(self):
        k_current = 1.5
        sheets = fm.bowtie_sheet_pair(length=30e-3, width=30e-3, gap=1e-3,
                                      surface_current=k_current)
        grid = fm.GridSpec(origin=(-0.2e-3, -0.2e-3, -0.2e-3),
                           spacing=(0.2e-3, 0.2e-3, 0.2e-3),
                           dims=(3, 3, 3))
        inside = fm.biot_savart_map(sheets, grid, rtol=1e-6)
        expected = MU_0 * k_current
        b_center = inside.b[1, 1, 1]
        assert abs(b_center[1]) == pytest.approx(expected, rel=0.05)
        assert b_center[1] < 0
        outside_grid = fm.GridSpec(origin=(-0.2e-3, -0.2e-3, 3e-3),
                                   spacing=(0.2e-3, 0.2e-3, 0.2e-3),
                                   dims=(2, 2, 2))
        outside = fm.biot_savart_map(sheets, outside_grid, rtol=1e-6)
        assert np.max(np.abs(outside.b)) < 0.05 * expected

    def test_linearity_is_exact(self):
        grid = fm.GridSpec.centered((1e-3, 1e-3, 0.4e-3), (3, 3, 2))
        maps = []
        for k_current in (1.0, 2.0):
            sheets = fm.bowtie_sheet_pair(length=8e-3, width=8e-3, gap=1e-3,
                                          surface_current=k_current)
            maps.append(fm.biot_savart_map(sheets, grid, rtol=1e-6))
        assert np.array_equal(2.0 * maps[0].b, maps[1].b)

    def test_current_reversal_negates_field_exactly(self):
        grid = fm.GridSpec.centered((1e-3, 1e-3, 0.4e-3), (3, 3, 2))
        forward, backward = [], []
        for sign in (1.0, -1.0):
            sheets = tuple(
                fm.CurrentSheet(center=s.center, length=s.length,
                                width=s.width,
                                surface_current=sign * s.surface_current)
                for s in fm.bowtie_sheet_pair(length=8e-3, width=8e-3,
                                              gap=1e-3, surface_current=2.5))
            fmap = fm.biot_savart_map(sheets, grid, rtol=1e-6)
            (forward if sign > 0 else backward).append(fmap.b)
        assert np.array_equal(forward[0], -backward[0])

    def test_mirror_symmetry(self):
        sheets = fm.bowtie_sheet_pair(length=10e-3, width=8e-3, gap=1e-3,
                                      surface_current=1.0)
        grid = fm.GridSpec.centered((2e-3, 2e-3, 0.5e-3), (5, 5, 3))
        b = fm.biot_savart_map(sheets, grid, rtol=1e-8).b
        scale = np.max(np.abs(b))
        # x -> -x leaves the fully x-symmetric source unchanged.
        assert np.max(np.abs(b - b[::-1, :, :])) < 1e-8 * scale
        # y -> -y: B_y is even, B_z odd, B_x identically zero.
        mirrored = b[:, ::-1, :].copy()
        mirrored[..., 2] *= -1.0
        assert np.max(np.abs(b - mirrored)) < 1e-8 * scale

    def test_quadrature_against_direct_integration(self):
        point = (0.7e-3, -0.4e-3, 0.6e-3)
        node, b_solver = solver_field(point, 2e-3, 1.5e-3, k_current=2.0)
        expected = dblquad_field(node, 2e-3, 1.5e-3, k_current=2.0)
        assert b_solver == pytest.approx(expected, rel=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(half_len=st.floats(0.5e-3, 10e-3), half_wid=st.floats(0.5e-3, 10e-3),
           fu=st.floats(-2.5, 2.5), fv=st.floats(-2.5, 2.5),
           fw=st.one_of(st.just(0.0), st.floats(0.02, 2.0)),
           w_sign=st.sampled_from((1.0, -1.0)))
    def test_closed_form_against_dblquad(self, half_len, half_wid, fu, fv, fw,
                                         w_sign):
        # Points above or below the sheet (the inside of a sheet pair's
        # gap and the outside of it), past its edges, and in its plane.
        assume(fw > 0 or max(abs(fu), abs(fv)) > 1.02)
        point = (fu * half_len, fv * half_wid,
                 w_sign * fw * min(half_len, half_wid))
        node, b_solver = solver_field(point, half_len, half_wid)
        expected = dblquad_field(node, half_len, half_wid)
        assert_field_close(b_solver, expected)

    @pytest.mark.parametrize("point_mm", [
        (-6.0, 3.3, 0.0),    # on the line of a long edge, past the short one
        (6.0, -3.3, 0.0),
        (-4.0, 5.0, 0.0),    # on the line of a short edge
        (1.0, 4.5, 0.0),
        (5.5, 4.2, 0.0),
        (-9.0, -0.7, 0.0),
    ])
    def test_in_plane_points_outside_the_sheet(self, point_mm):
        half_len, half_wid = 4e-3, 3.3e-3
        node, b_solver = solver_field(np.asarray(point_mm) * 1e-3,
                                      half_len, half_wid)
        expected = dblquad_field(node, half_len, half_wid)
        assert np.all(np.isfinite(b_solver))
        assert b_solver[1] == 0.0
        assert_field_close(b_solver, expected)

    @pytest.mark.parametrize("point", [
        (0.0, 3.3e-3 + 2e-9, 0.0),          # in plane, beside a long edge
        (4e-3 + 2e-9, 1e-3, 1e-9),          # beside a short edge
        (3e-3, 3.3e-3 + 1.5e-9, 1e-9),
        (0.5e-3, -3.3e-3 - 1.2e-9, -0.5e-9),
        (4e-3 + 1.5e-9, 2.3e-3, -1e-9),
        (-4e-3 - 1e-9, -3.3e-3 - 1e-9, 1e-9),  # beside a corner
        (4e-3 + 2e-9, 3.3e-3 + 2e-9, 0.0),
        (1e-3, -0.5e-3, 2e-9),              # just above the face
    ])
    def test_near_edge_points_just_outside_the_standoff(self, point):
        # dblquad cannot resolve nanometre distances, so the oracle here is
        # the sheet integral with the y' part done by hand and the x' part
        # by a 30-digit tanh-sinh rule.
        half_len, half_wid = 4e-3, 3.3e-3
        node, b_solver = solver_field(point, half_len, half_wid)
        expected = line_integral_field(node, half_len, half_wid)
        assert_field_close(b_solver, expected)

    def test_point_on_sheet_is_singular(self):
        sheet = fm.CurrentSheet(center=(0.0, 0.0, 0.0), length=4e-3,
                                width=4e-3, surface_current=1.0)
        grid = fm.GridSpec(origin=(0.0, 0.0, 0.0),
                           spacing=(1e-4, 1e-4, 1e-4), dims=(2, 2, 2))
        with pytest.raises(SingularityError):
            fm.biot_savart_map((sheet,), grid)

class TestModeEnergy:
    def test_uniform_field_energy(self):
        b0 = np.array([0.0, 2e-3, 0.0])
        fmap = uniform_map(b0, dims=(4, 3, 3), spacing=(1e-3, 2e-3, 0.5e-3))
        volume = 3 * 1e-3 * 2 * 2e-3 * 2 * 0.5e-3
        expected = 2.0 * np.dot(b0, b0) / (2.0 * MU_0) * volume
        assert fm.mode_energy(fmap) == pytest.approx(expected, rel=1e-12)

    def test_energy_scales_quadratically(self):
        rng = np.random.default_rng(20240818)
        b = rng.normal(scale=1e-3, size=(3, 4, 5, 3))
        base = fm.FieldMap(origin=(0, 0, 0), spacing=(1e-3, 1e-3, 1e-3),
                           b=b, energy_j=1.0)
        doubled = fm.FieldMap(origin=(0, 0, 0), spacing=(1e-3, 1e-3, 1e-3),
                              b=2 * b, energy_j=1.0)
        assert fm.mode_energy(doubled) == pytest.approx(
            4.0 * fm.mode_energy(base), rel=1e-12)


class TestNormalizeToVacuum:
    def test_energy_is_set_to_one_photon(self):
        f_c = 3.121e9
        fmap = uniform_map((0.0, 1e-3, 0.0), energy_j=5e-22)
        vac = fm.normalize_to_vacuum(fmap, f_c)
        assert vac.energy_j == PLANCK_H * f_c
        assert vac.photon_frequency_hz == f_c
        assert vac.normalized
        n_photons = 5e-22 / (PLANCK_H * f_c)
        assert vac.b == pytest.approx(fmap.b / math.sqrt(n_photons))

    def test_idempotent_bitwise(self):
        fmap = uniform_map((1e-4, 2e-4, -3e-4), energy_j=7.7e-23)
        once = fm.normalize_to_vacuum(fmap, 2.9e9)
        twice = fm.normalize_to_vacuum(once, 2.9e9)
        assert np.array_equal(once.b, twice.b)
        assert once.energy_j == twice.energy_j

    def test_single_photon_input_returned_unchanged(self):
        f_c = 3.0e9
        fmap = uniform_map((0.0, 5e-12, 0.0), energy_j=PLANCK_H * f_c)
        vac = fm.normalize_to_vacuum(fmap, f_c)
        assert np.array_equal(vac.b, fmap.b)

    def test_quadruple_energy_halves_field(self):
        f_c = 3.0e9
        fmap = uniform_map((0.0, 4e-12, 0.0), energy_j=4 * PLANCK_H * f_c)
        vac = fm.normalize_to_vacuum(fmap, f_c)
        assert vac.b == pytest.approx(fmap.b / 2.0, rel=1e-15)

    def test_bad_frequency_rejected(self):
        fmap = uniform_map((0.0, 1e-3, 0.0))
        with pytest.raises(DomainError):
            fm.normalize_to_vacuum(fmap, 0.0)

    @pytest.mark.parametrize("b_y, energy_j, f_c", [
        (1e-3, None, 1e-300),  # h f_c underflows to 0
        (1e-3, 1e100, 1e-290),  # the photon number overflows
        (1e300, 1e-300, 3e9),  # the scaled field overflows
    ])
    def test_out_of_range_photon_number_rejected(self, b_y, energy_j, f_c):
        fmap = uniform_map((0.0, b_y, 0.0), energy_j=energy_j)
        with pytest.raises(DomainError, match="out of range"):
            fm.normalize_to_vacuum(fmap, f_c)


def two_value_map():
    """3x2x2 grid whose two x-cells average to |B| = 1 and 3."""
    b = np.zeros((3, 2, 2, 3))
    b[0, :, :, 2] = 1.0
    b[1, :, :, 2] = 1.0
    b[2, :, :, 2] = 5.0
    return fm.FieldMap(origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
                       b=b, energy_j=1e-20)


class TestHomogeneity:
    def test_two_value_map_statistics_exact(self):
        fmap = two_value_map()
        region = fm.SampleRegion(center=(1e-3, 0.5e-3, 0.5e-3),
                                 extents=(2e-3, 1e-3, 1e-3))
        report = fm.homogeneity(fmap, region)
        assert report.mean_field_t == 2.0
        assert report.rms_deviation == 0.5
        assert report.max_deviation == 0.5

    def test_two_value_map_partial_overlap(self):
        fmap = two_value_map()
        # Full first cell, half of the second: mean = (1 + 3/2)/(3/2).
        region = fm.SampleRegion(center=(0.75e-3, 0.5e-3, 0.5e-3),
                                 extents=(1.5e-3, 1e-3, 1e-3))
        report = fm.homogeneity(fmap, region)
        assert report.mean_field_t == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_uniform_map_has_zero_deviation(self):
        fmap = uniform_map((0.0, 2e-3, 1e-3), dims=(4, 4, 4))
        region = fm.SampleRegion(center=(0.0, 0.0, 0.0),
                                 extents=(2e-3, 2e-3, 2e-3))
        report = fm.homogeneity(fmap, region)
        assert report.rms_deviation == 0.0
        assert report.max_deviation == 0.0
        edges, fractions = zip(*report.contour_histogram)
        assert fractions[0] == pytest.approx(1.0, abs=1e-12)
        assert sum(fractions[1:]) == pytest.approx(0.0, abs=1e-12)

    def test_histogram_fractions_sum_to_one(self):
        rng = np.random.default_rng(20240819)
        b = rng.normal(scale=1e-3, size=(5, 5, 5, 3))
        fmap = fm.FieldMap(origin=(0, 0, 0), spacing=(1e-3, 1e-3, 1e-3),
                           b=b, energy_j=1.0)
        region = fm.SampleRegion(center=(2e-3, 2e-3, 2e-3),
                                 extents=(3.3e-3, 2.7e-3, 3.9e-3))
        report = fm.homogeneity(fmap, region,
                                bins=(0.005, 0.01, 0.3, 0.8))
        fractions = [frac for _, frac in report.contour_histogram]
        assert math.fsum(fractions) == pytest.approx(1.0, abs=1e-9)
        assert report.rms_deviation <= report.max_deviation

    def test_single_cell_region_has_no_spread(self):
        fmap = two_value_map()
        region = fm.SampleRegion(center=(0.5e-3, 0.5e-3, 0.5e-3),
                                 extents=(0.6e-3, 0.6e-3, 0.6e-3))
        report = fm.homogeneity(fmap, region)
        assert report.mean_field_t == pytest.approx(1.0, rel=1e-12)
        assert report.max_deviation == 0.0

    def test_region_outside_hull_rejected(self):
        fmap = two_value_map()
        region = fm.SampleRegion(center=(5e-3, 0.5e-3, 0.5e-3),
                                 extents=(1e-3, 1e-3, 1e-3))
        with pytest.raises(DomainError):
            fm.homogeneity(fmap, region)

    def test_tiny_uniform_map(self):
        # |B|^2 underflows to 0 below about 1e-154 T; the mean must not.
        fmap = uniform_map([0.0, 1e-300, 0.0], energy_j=1.0)
        region = fm.SampleRegion(center=(0, 0, 0), extents=(1e-3, 1e-3, 1e-3))
        report = fm.homogeneity(fmap, region)
        assert report.mean_field_t == pytest.approx(1e-300, rel=1e-15)
        assert report.rms_deviation == report.max_deviation == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(-1000, 1000),
           lo=st.tuples(*[st.floats(-1e-3, 0.0)] * 3),
           size=st.tuples(*[st.floats(1e-5, 1e-3)] * 3))
    def test_power_of_two_scale_is_exact(self, seed, k, lo, size):
        # Scaling the field by 2^k scales the mean by 2^k exactly and keeps
        # every relative statistic bit for bit, from 2^-1000 to 2^1000.
        rng = np.random.default_rng(seed)
        b = rng.uniform(0.5, 1.0, (4, 3, 3, 3)) * rng.choice([-1.0, 1.0], (4, 3, 3, 3))
        grid = dict(origin=(-1.5e-3, -1e-3, -1e-3), spacing=(1e-3, 1e-3, 1e-3))
        region = fm.SampleRegion(center=np.add(lo, np.divide(size, 2)),
                                 extents=size)
        base = fm.homogeneity(fm.FieldMap(b=b, energy_j=1.0, **grid), region)
        scaled = fm.homogeneity(fm.FieldMap(b=np.ldexp(b, k), energy_j=1.0,
                                            **grid), region)
        assert scaled.mean_field_t == math.ldexp(base.mean_field_t, k)
        assert (scaled.rms_deviation, scaled.max_deviation,
                scaled.contour_histogram) == (base.rms_deviation,
                                              base.max_deviation,
                                              base.contour_histogram)

    def test_bad_bins_rejected(self):
        fmap = two_value_map()
        region = fm.SampleRegion(center=(1e-3, 0.5e-3, 0.5e-3),
                                 extents=(1e-3, 1e-3, 1e-3))
        with pytest.raises(DomainError):
            fm.homogeneity(fmap, region, bins=(0.05, 0.05))

    def test_report_dict_is_json_safe(self):
        import json

        fmap = two_value_map()
        region = fm.SampleRegion(center=(1e-3, 0.5e-3, 0.5e-3),
                                 extents=(2e-3, 1e-3, 1e-3))
        payload = fm.homogeneity(fmap, region).as_dict()
        text = json.dumps(payload)
        assert "Infinity" not in text
        assert json.loads(text)["mean_field_T"] == 2.0


class TestExportIngest:
    def make_random_map(self, normalized=False):
        rng = np.random.default_rng(20240820)
        b = rng.normal(scale=1e-4, size=(3, 4, 2, 3))
        fmap = fm.FieldMap(origin=(-1e-3, 0.0, 2e-3),
                           spacing=(0.5e-3, 0.25e-3, 1e-3),
                           b=b, energy_j=3.3e-21)
        if normalized:
            fmap = fm.normalize_to_vacuum(fmap, 3.121e9)
        return fmap

    def test_roundtrip_bit_exact(self, tmp_path):
        fmap = self.make_random_map(normalized=True)
        path = tmp_path / "map.csv"
        fm.export_map(path, fmap)
        back = fm.ingest_map(path)
        assert np.array_equal(back.b, fmap.b)
        assert np.array_equal(back.origin, fmap.origin)
        assert np.array_equal(back.spacing, fmap.spacing)
        assert back.energy_j == fmap.energy_j
        assert back.photon_frequency_hz == fmap.photon_frequency_hz

    def test_row_order_does_not_matter(self, tmp_path):
        fmap = self.make_random_map()
        path = tmp_path / "map.csv"
        fm.export_map(path, fmap)
        lines = path.read_text().splitlines()
        shuffled = [lines[0]] + lines[:0:-1]
        path.write_text("\n".join(shuffled) + "\n")
        back = fm.ingest_map(path)
        assert np.array_equal(back.b, fmap.b)

    def test_missing_node_named_in_error(self, tmp_path):
        fmap = self.make_random_map()
        path = tmp_path / "map.csv"
        fm.export_map(path, fmap)
        lines = path.read_text().splitlines()
        del lines[5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r"\(0, 2, 0\)"):
            fm.ingest_map(path)

    def test_duplicate_node_rejected(self, tmp_path):
        fmap = self.make_random_map()
        path = tmp_path / "map.csv"
        fm.export_map(path, fmap)
        lines = path.read_text().splitlines()
        lines.append(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            fm.ingest_map(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        fm.export_map(path, self.make_random_map())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(["x,y,z,Bx,By,Bz"] + lines[1:]) + "\n")
        with pytest.raises(ValidationError, match="first line must be the header"):
            fm.ingest_map(path)

    def test_off_lattice_point_rejected(self, tmp_path):
        fmap = self.make_random_map()
        path = tmp_path / "map.csv"
        fm.export_map(path, fmap)
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[0] = repr(float(parts[0]) + 0.2e-3)
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError):
            fm.ingest_map(path)

    def test_missing_sidecar_rejected(self, tmp_path):
        fmap = self.make_random_map()
        path = tmp_path / "map.csv"
        fm.export_map(path, fmap)
        (tmp_path / "map.csv.meta").unlink()
        with pytest.raises(ValidationError):
            fm.ingest_map(path)

    def test_sidecar_missing_key_rejected(self, tmp_path):
        fmap = self.make_random_map()
        path = tmp_path / "map.csv"
        fm.export_map(path, fmap)
        meta = tmp_path / "map.csv.meta"
        kept = [line for line in meta.read_text().splitlines()
                if not line.startswith("energy_J")]
        meta.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValidationError, match="energy_J"):
            fm.ingest_map(path)

    def test_hand_written_uniform_map(self, tmp_path):
        # A 2x2x2 grid of a uniform 1 mT field along y on 1 mm cells.
        path = tmp_path / "uniform.csv"
        rows = ["x_m,y_m,z_m,Bx_T,By_T,Bz_T"]
        for ix in range(2):
            for iy in range(2):
                for iz in range(2):
                    rows.append(f"{ix * 1e-3},{iy * 1e-3},{iz * 1e-3},"
                                f"0.0,0.001,0.0")
        path.write_text("\n".join(rows) + "\n")
        energy = (1e-3) ** 2 / MU_0 * (1e-3) ** 3
        (tmp_path / "uniform.csv.meta").write_text(
            "nx=2\nny=2\nnz=2\n"
            "origin_x_m=0\norigin_y_m=0\norigin_z_m=0\n"
            "spacing_x_m=0.001\nspacing_y_m=0.001\nspacing_z_m=0.001\n"
            f"energy_J={energy!r}\n")
        fmap = fm.ingest_map(path)
        assert fmap.dims == (2, 2, 2)
        assert np.all(fmap.b[..., 1] == 1e-3)
        assert fmap.energy_j == pytest.approx(energy, rel=1e-12)
        assert fm.mode_energy(fmap) == pytest.approx(energy, rel=1e-12)


def loop_ingest(path):
    """The old per-row ``ingest_map``, kept as the oracle of the array one:
    each row in file order is placed on the lattice axis by axis, then
    checked against the nodes the rows before it hold."""
    meta = fm._parse_sidecar(path)
    dims = (meta["nx"], meta["ny"], meta["nz"])
    origin = np.array([meta["origin_x_m"], meta["origin_y_m"], meta["origin_z_m"]])
    spacing = np.array([meta["spacing_x_m"], meta["spacing_y_m"], meta["spacing_z_m"]])
    data, line_numbers = read_table(path, fm._CSV_HEADER, 6, "fieldmap")
    with np.errstate(over="ignore"):
        off_scale = ~np.isfinite((data[:, :3] - origin) / spacing)
        too_large = ~np.isfinite(np.sum(data[:, 3:] * data[:, 3:], axis=1))
    if off_scale.any():
        row, ax = (int(i) for i in np.argwhere(off_scale)[0])
        raise ValidationError(
            f"{path}:{line_numbers[row]}: coordinate {float(data[row, ax])!r} is not "
            f"on the declared grid lattice (axis {ax})", module="fieldmap")
    if too_large.any():
        row = int(np.argmax(too_large))
        raise ValidationError(f"{path}:{line_numbers[row]}: field sample "
                              f"{data[row, 3:].tolist()} T overflows |B|^2",
                              module="fieldmap")
    n_nodes = dims[0] * dims[1] * dims[2]
    b = np.empty((*dims, 3))
    seen = np.zeros(dims, dtype=bool)
    tol = 1e-6 * spacing
    for vals, lineno in zip(data.tolist(), line_numbers):
        idx = []
        for ax in range(3):
            i = int(round((vals[ax] - origin[ax]) / spacing[ax]))
            if i < 0 or i >= dims[ax] \
                    or abs(vals[ax] - (origin[ax] + i * spacing[ax])) > tol[ax]:
                raise ValidationError(
                    f"{path}:{lineno}: coordinate {vals[ax]!r} is not on the "
                    f"declared grid lattice (axis {ax})", module="fieldmap")
            idx.append(i)
        idx = tuple(idx)
        if seen[idx]:
            raise ValidationError(f"{path}:{lineno}: duplicate node {idx}",
                                  module="fieldmap")
        seen[idx] = True
        b[idx] = vals[3:]
    if not seen.all():
        ix, iy, iz = (int(i[0]) for i in np.nonzero(~seen))
        x, y, z = origin + np.array([ix, iy, iz]) * spacing
        raise ValidationError(
            f"{path}: missing grid node ({ix}, {iy}, {iz}) at "
            f"({x:.9g}, {y:.9g}, {z:.9g}) m; found "
            f"{int(seen.sum())} of {n_nodes} nodes", module="fieldmap")
    return fm.FieldMap(origin=origin, spacing=spacing, b=b,
                       energy_j=meta["energy_J"],
                       photon_frequency_hz=meta.get("photon_frequency_Hz"))


def map_rows(dims, origin, spacing, seed, defects):
    """The node rows of a map, shuffled by ``seed``, with ``defects`` applied
    in order.  Each defect is (kind, row, k): a coordinate defect moves axis
    k % 3 of that row, "duplicate" inserts a copy of the row at position k,
    "missing" deletes the row and "huge" overflows field component k % 3."""
    rng = np.random.default_rng(seed)
    nodes = np.stack(np.meshgrid(*(o + s * np.arange(n) for o, s, n
                                   in zip(origin, spacing, dims)), indexing="ij"),
                     axis=-1).reshape(-1, 3)
    b = rng.normal(scale=10.0 ** rng.uniform(-9, -3), size=nodes.shape)
    rows = np.column_stack([nodes, b])[rng.permutation(len(nodes))].tolist()
    for kind, row, k in defects:
        if not rows:
            break
        row %= len(rows)
        ax = k % 3
        tol = 1e-6 * spacing[ax]
        moved = {"inside": rows[row][ax] + 0.999 * tol,
                 "outside": rows[row][ax] + 1.001 * tol,
                 "edge": rows[row][ax] - tol,
                 "below": origin[ax] - spacing[ax],
                 "above": origin[ax] + dims[ax] * spacing[ax],
                 "far": 1.5e308}
        if kind in moved:
            rows[row][ax] = float(moved[kind])
        elif kind == "duplicate":
            rows.insert(k % (len(rows) + 1), list(rows[row]))
        elif kind == "missing":
            del rows[row]
        elif kind == "huge":
            rows[row][3 + ax] = 1e200
    return rows


def outcome(ingest, path):
    """The map's bits, or the text of the ValidationError it raises."""
    try:
        fmap = ingest(path)
    except ValidationError as exc:
        return str(exc)
    return (fmap.b.shape, fmap.b.tobytes(), fmap.origin.tobytes(),
            fmap.spacing.tobytes(), fmap.energy_j, fmap.photon_frequency_hz)


DEFECT_KINDS = ["inside", "outside", "edge", "below", "above", "far",
                "duplicate", "missing", "huge"]


class TestIngestAgainstTheRowLoop:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dims=st.tuples(*[st.integers(1, 4)] * 3),
           origin=st.tuples(*[st.floats(-1e-2, 1e-2)] * 3),
           spacing=st.tuples(*[st.floats(1e-6, 1e-2)] * 3),
           seed=st.integers(0, 2**32 - 1),
           defects=st.lists(st.tuples(st.sampled_from(DEFECT_KINDS),
                                      st.integers(0, 63), st.integers(0, 63)),
                            max_size=2),
           blanks=st.lists(st.integers(0, 64), max_size=3))
    @example(dims=(2, 3, 2), origin=(-1e-3, 0.0, 2e-3), spacing=(5e-4, 2.5e-4, 1e-3),
             seed=1, defects=[], blanks=[0, 5, 64])
    @example(dims=(2, 3, 2), origin=(-1e-3, 0.0, 2e-3), spacing=(5e-4, 2.5e-4, 1e-3),
             seed=2, defects=[("inside", 3, 0)], blanks=[])
    @example(dims=(2, 3, 2), origin=(-1e-3, 0.0, 2e-3), spacing=(5e-4, 2.5e-4, 1e-3),
             seed=3, defects=[("outside", 3, 1)], blanks=[])
    @example(dims=(2, 3, 2), origin=(-1e-3, 0.0, 2e-3), spacing=(5e-4, 2.5e-4, 1e-3),
             seed=4, defects=[("below", 0, 2)], blanks=[2])
    @example(dims=(2, 3, 2), origin=(-1e-3, 0.0, 2e-3), spacing=(5e-4, 2.5e-4, 1e-3),
             seed=5, defects=[("above", 5, 0)], blanks=[])
    @example(dims=(3, 3, 2), origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
             seed=6, defects=[("outside", 5, 0), ("duplicate", 0, 1)], blanks=[])
    @example(dims=(3, 3, 2), origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
             seed=7, defects=[("outside", 1, 2), ("duplicate", 0, 5)], blanks=[3])
    @example(dims=(3, 2, 4), origin=(1e-3, -1e-3, 0.0), spacing=(1e-4, 2e-4, 3e-4),
             seed=8, defects=[("missing", 4, 0)], blanks=[])
    @example(dims=(3, 2, 4), origin=(1e-3, -1e-3, 0.0), spacing=(1e-4, 2e-4, 3e-4),
             seed=9, defects=[("duplicate", 4, 9), ("missing", 0, 0)], blanks=[1])
    @example(dims=(1, 1, 1), origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
             seed=10, defects=[("missing", 0, 0)], blanks=[])
    @example(dims=(2, 2, 2), origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
             seed=11, defects=[("duplicate", 2, 7), ("far", 1, 1)], blanks=[])
    @example(dims=(2, 2, 2), origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
             seed=12, defects=[("outside", 0, 0), ("huge", 6, 2)], blanks=[])
    @example(dims=(4, 1, 3), origin=(2e-3, 0.0, -5e-3), spacing=(7e-4, 1e-3, 3e-3),
             seed=13, defects=[("edge", 2, 2)], blanks=[])
    # Every x is 0 here, so "edge" puts one exactly at the tolerance.
    @example(dims=(1, 3, 2), origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
             seed=14, defects=[("edge", 4, 0)], blanks=[])
    # Two duplicates: the first in file order is named.
    @example(dims=(3, 3, 2), origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
             seed=15, defects=[("duplicate", 7, 9), ("duplicate", 2, 4)], blanks=[])
    # Two bad axes on one row: the first is named.
    @example(dims=(3, 3, 2), origin=(0.0, 0.0, 0.0), spacing=(1e-3, 1e-3, 1e-3),
             seed=16, defects=[("outside", 6, 0), ("below", 6, 2)], blanks=[])
    def test_same_map_or_same_error(self, dims, origin, spacing, seed, defects,
                                    blanks):
        rows = map_rows(dims, origin, spacing, seed, defects)
        lines = [",".join("%.17g" % v for v in row) for row in rows]
        for at in blanks:
            lines.insert(at % (len(lines) + 1), "")
        sidecar = [f"n{a}={n}" for a, n in zip("xyz", dims)]
        sidecar += [f"origin_{a}_m={o!r}" for a, o in zip("xyz", origin)]
        sidecar += [f"spacing_{a}_m={s!r}" for a, s in zip("xyz", spacing)]
        sidecar += ["energy_J=3.3e-21"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "map.csv")
            with open(path, "w") as fh:
                fh.write("\n".join([fm._CSV_HEADER, *lines]) + "\n")
            with open(path + ".meta", "w") as fh:
                fh.write("\n".join(sidecar) + "\n")
            assert outcome(fm.ingest_map, path) == outcome(loop_ingest, path)
