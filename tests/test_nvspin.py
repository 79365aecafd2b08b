"""Tests for the NV spin Hamiltonian and transition-frequency solver."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nvcavity.constants import BOHR_MAGNETON, PLANCK_H
from nvcavity.errors import DomainError, NoSolutionError
from nvcavity.nvspin import (
    NV_AXES,
    SPIN1_X,
    SPIN1_Y,
    SPIN1_Z,
    SpinSpecies,
    hamiltonian,
    transition_frequencies,
    write_transition_sweep,
    zeeman_tune,
)

NV = SpinSpecies()

_NONZERO = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0.1)
_UNIT_AXES = st.one_of(
    st.sampled_from([*NV_AXES, np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])]),
    _NONZERO.map(lambda v: np.asarray(v) / np.linalg.norm(v)))


def explicit_frame_hamiltonian(species, axis, b0):
    """H/h with the field in a transverse frame seeded from the axis's
    smallest component, the transverse y part along the complex Sy."""
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    x = seed - np.dot(seed, axis) * axis
    x /= np.linalg.norm(x)
    y = np.cross(axis, x)
    bx, by, bz = (float(np.dot(b0, u)) for u in (x, y, axis))
    return (species.zero_field_splitting * (SPIN1_Z @ SPIN1_Z)
            + species.zeeman_hz_per_t * (bx * SPIN1_X + by * SPIN1_Y + bz * SPIN1_Z))


class TestSpinMatrices:
    def test_commutator_algebra(self):
        # [Sx, Sy] = i Sz and cyclic permutations
        for a, b, c in ((SPIN1_X, SPIN1_Y, SPIN1_Z),
                        (SPIN1_Y, SPIN1_Z, SPIN1_X),
                        (SPIN1_Z, SPIN1_X, SPIN1_Y)):
            comm = a @ b - b @ a
            assert np.allclose(comm, 1j * c, atol=1e-15)

    def test_casimir(self):
        s2 = SPIN1_X @ SPIN1_X + SPIN1_Y @ SPIN1_Y + SPIN1_Z @ SPIN1_Z
        assert np.allclose(s2, 2.0 * np.eye(3), atol=1e-15)

    def test_axes_are_tetrahedral(self):
        for ax in NV_AXES:
            assert np.linalg.norm(ax) == pytest.approx(1.0, abs=1e-15)
        for i in range(4):
            for j in range(i + 1, 4):
                assert NV_AXES[i] @ NV_AXES[j] == pytest.approx(-1.0 / 3.0, abs=1e-14)


class TestZeroField:
    def test_transitions_are_degenerate_at_d(self):
        levels = transition_frequencies(NV, NV_AXES[0], np.zeros(3))
        assert levels.f_lower == pytest.approx(2.87e9, rel=1e-12)
        assert levels.f_upper == pytest.approx(2.87e9, rel=1e-12)


class TestAxialField:
    def test_linear_splitting_on_axis(self):
        # B parallel to the symmetry axis splits the transitions by
        # 2 * (g mu_B / h) * B with no mixing.
        b_mag = 5e-3
        zeeman = NV.zeeman_hz_per_t
        levels = transition_frequencies(NV, NV_AXES[0], b_mag * NV_AXES[0])
        assert levels.f_upper - levels.f_lower == pytest.approx(
            2 * zeeman * b_mag, rel=1e-10)
        assert levels.f_upper + levels.f_lower == pytest.approx(
            2 * 2.87e9, rel=1e-10)

    def test_zeeman_rate_value(self):
        # g mu_B / h at g = 2.0028
        assert NV.zeeman_hz_per_t == pytest.approx(
            2.0028 * BOHR_MAGNETON / PLANCK_H, rel=1e-15)
        assert NV.zeeman_hz_per_t == pytest.approx(28.0317e9, rel=1e-5)

    def test_analytic_eigenvalues_on_axis(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = rng.uniform(0, 0.1)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            levels = transition_frequencies(NV, axis, b * axis)
            z = NV.zeeman_hz_per_t * b
            expected = sorted([0.0, 2.87e9 - z, 2.87e9 + z])
            assert np.allclose(sorted(levels.eigenvalues), expected, atol=2.87e9 * 1e-12 + 1e-3)


class TestTransverseField:
    def test_quadratic_shift_small_field(self):
        # A transverse field enters the transition frequencies only at
        # second order: the m_s = 0 level drops by (zeeman b)^2 / D while
        # the symmetric |+1>+|-1> combination rises by the same amount, so
        # f_upper - D ~ 2 (zeeman b)^2 / D and f_lower - D ~ (zeeman b)^2 / D.
        axis = NV_AXES[0]
        # any vector orthogonal to the axis
        t = np.cross(axis, [0.0, 0.0, 1.0])
        t /= np.linalg.norm(t)
        z = NV.zeeman_hz_per_t
        d_split = NV.zero_field_splitting

        shifts = []
        for b in (1e-4, 2e-4):
            levels = transition_frequencies(NV, axis, b * t)
            shifts.append(levels.f_upper - d_split)
        assert shifts[1] / shifts[0] == pytest.approx(4.0, rel=1e-3)
        assert shifts[0] == pytest.approx(2 * (z * 1e-4) ** 2 / d_split, rel=1e-3)
        levels = transition_frequencies(NV, axis, 1e-4 * t)
        assert levels.f_lower - d_split == pytest.approx(
            (z * 1e-4) ** 2 / d_split, rel=1e-3)

    def test_analytic_transverse_eigenvalues(self):
        # For B exactly perpendicular to the axis, the 3x3 matrix block
        # decomposes: the antisymmetric combination of |+1>, |-1> stays
        # at D, and the symmetric 2x2 block gives (D +- sqrt(D^2 + 8c^2))/2
        # with c = zeeman*b/sqrt(2).
        axis = np.array([0.0, 0.0, 1.0])
        b = 1e-3
        levels = transition_frequencies(NV, axis, np.array([b, 0.0, 0.0]))
        d_split = NV.zero_field_splitting
        c = NV.zeeman_hz_per_t * b / math.sqrt(2)
        root = math.sqrt(d_split**2 + 8 * c**2)
        expected = sorted([(d_split - root) / 2, d_split, (d_split + root) / 2])
        assert np.allclose(sorted(levels.eigenvalues), expected, rtol=1e-12)

    def test_trace_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            b0 = rng.normal(size=3) * 0.1
            h = hamiltonian(NV, axis, b0)
            levels = transition_frequencies(NV, axis, b0)
            assert sum(levels.eigenvalues) == pytest.approx(
                float(np.trace(h).real), rel=1e-9)

    def test_lower_branch_turns_over(self):
        # Along [0,1,0] the projected field is b/sqrt(3); the lower branch
        # first decreases, bottoms out, then the transverse part pushes it up.
        direction = np.array([0.0, 1.0, 0.0])
        bs = np.linspace(0, 0.4, 200)
        lows = [transition_frequencies(NV, NV_AXES[0], b * direction).f_lower
                for b in bs]
        assert min(lows) < lows[0]
        assert lows[-1] > min(lows)


class TestTetrahedralEquivalence:
    def test_001_family_sees_four_equal_axes(self):
        # B along a cube edge makes |cos| = 1/sqrt(3) with every NV axis,
        # so all four orientation classes give identical spectra.
        direction = np.array([0.0, 1.0, 0.0])
        b = 0.015
        ref = transition_frequencies(NV, NV_AXES[0], b * direction)
        for ax in NV_AXES[1:]:
            lv = transition_frequencies(NV, ax, b * direction)
            assert lv.f_lower == pytest.approx(ref.f_lower, rel=1e-12)
            assert lv.f_upper == pytest.approx(ref.f_upper, rel=1e-12)

    def test_111_direction_splits_one_from_three(self):
        b = 0.015
        direction = NV_AXES[0]
        on_axis = transition_frequencies(NV, NV_AXES[0], b * direction)
        off = [transition_frequencies(NV, ax, b * direction) for ax in NV_AXES[1:]]
        for lv in off[1:]:
            assert lv.f_upper == pytest.approx(off[0].f_upper, rel=1e-12)
        assert abs(on_axis.f_upper - off[0].f_upper) > 1e6


class TestHamiltonianStructure:
    def test_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            b0 = rng.normal(size=3) * 0.05
            h = hamiltonian(NV, axis, b0)
            assert np.allclose(h, h.conj().T, atol=1e-6)

    def test_zero_field_diagonal(self):
        h = hamiltonian(NV, NV_AXES[0], np.zeros(3))
        assert np.allclose(h, np.diag([2.87e9, 0.0, 2.87e9]), atol=1e-6)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(axis=_UNIT_AXES, kind=st.sampled_from(["zero", "axial", "transverse",
                                                  "any"]),
           b=st.floats(0.0, 0.5), v=_NONZERO)
    def test_frame_invariance_of_spectrum(self, axis, kind, b, v):
        # The spectrum depends only on B_par and |B_perp|: it matches the
        # complex Hamiltonian in an explicit transverse frame, and the same
        # field at the same angle to the z axis.
        v = np.asarray(v) / np.linalg.norm(v)
        if kind == "transverse":
            v = np.cross(axis, v)
            assume(np.linalg.norm(v) > 0.1)
            v /= np.linalg.norm(v)
        b0 = {"zero": np.zeros(3), "axial": b * axis}.get(kind, b * v)
        vals, vecs = np.linalg.eigh(explicit_frame_hamiltonian(NV, axis, b0))
        ground = int(np.argmax(np.abs(vecs[1]) ** 2))
        f_lower, f_upper = sorted(vals[i] - vals[ground] for i in range(3)
                                  if i != ground)
        b_par = float(b0 @ axis)
        b_perp = float(np.linalg.norm(b0 - b_par * axis))
        ref = transition_frequencies(NV, np.array([0.0, 0.0, 1.0]),
                                     np.array([b_perp, 0.0, b_par]))
        lv = transition_frequencies(NV, axis, b0)
        # 1e-12 of the spectrum's scale: an eigenvalue or f_lower can be ~0.
        tol = 1e-12 * (NV.zero_field_splitting
                       + NV.zeeman_hz_per_t * np.linalg.norm(b0))
        assert np.allclose(lv.eigenvalues, vals, rtol=0, atol=tol)
        for f, f_oracle, f_ref in ((lv.f_lower, f_lower, ref.f_lower),
                                   (lv.f_upper, f_upper, ref.f_upper)):
            assert abs(f - f_oracle) <= tol and abs(f - f_ref) <= tol

    @pytest.mark.parametrize("b0", [[0.01, 0.0], [[0.0, 0.0, 0.01]], 0.01,
                                    [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
    def test_field_must_be_a_finite_3_vector(self, b0):
        with pytest.raises(DomainError, match="static field must be a finite "
                                              "3-vector in tesla"):
            hamiltonian(NV, NV_AXES[0], b0)

    def test_real_and_continuous_in_the_axis(self):
        # The two axes lie 1e-12 apart, on either side of a change in their
        # smallest component; a transverse frame seeded from that component
        # turns there, and for this field its Hamiltonian jumps by 4.7e8 Hz.
        b0 = np.array([0.004, -0.011, 0.007])
        h = []
        for axis in ([1.0, 1.0 + 1e-12, 1.0], [1.0 + 1e-12, 1.0, 1.0]):
            h.append(hamiltonian(NV, np.asarray(axis) / np.linalg.norm(axis), b0))
            assert h[-1].dtype == np.float64
            assert np.array_equal(h[-1], h[-1].T)
        assert np.max(np.abs(h[0] - h[1])) < 1.0


class TestZeemanTune:
    def test_tunes_upper_branch_to_cavity_frequency(self):
        direction = np.array([0.0, 1.0, 0.0])
        b = zeeman_tune(NV, NV_AXES, direction, 3.121e9, which="upper")
        lv = transition_frequencies(NV, NV_AXES[0], b * direction)
        assert abs(lv.f_upper - 3.121e9) <= 1.0
        assert 0.005 < b < 0.05  # tens of mT, well inside any lab magnet

    def test_tunes_lower_branch(self):
        direction = np.array([0.0, 1.0, 0.0])
        b = zeeman_tune(NV, NV_AXES, direction, 2.7e9, which="lower")
        lv = transition_frequencies(NV, NV_AXES[0], b * direction)
        assert abs(lv.f_lower - 2.7e9) <= 1.0

    def test_lower_branch_turnaround_raises(self):
        # Along [0,1,0] the lower transition bottoms out near 2.63 GHz
        # (the transverse component pushes it back up), so a target below
        # the minimum is unreachable on the branch from zero field.
        direction = np.array([0.0, 1.0, 0.0])
        with pytest.raises(NoSolutionError):
            zeeman_tune(NV, NV_AXES, direction, 2.6e9, which="lower")

    def test_zero_field_target_returns_zero(self):
        direction = np.array([0.0, 1.0, 0.0])
        assert zeeman_tune(NV, NV_AXES, direction, 2.87e9, which="upper") == 0.0

    def test_wrong_side_target_raises(self):
        direction = np.array([0.0, 1.0, 0.0])
        with pytest.raises(NoSolutionError):
            zeeman_tune(NV, NV_AXES, direction, 2.6e9, which="upper")
        with pytest.raises(NoSolutionError):
            zeeman_tune(NV, NV_AXES, direction, 3.2e9, which="lower")

    def test_unreachable_target_raises(self):
        direction = np.array([0.0, 1.0, 0.0])
        with pytest.raises(NoSolutionError):
            zeeman_tune(NV, NV_AXES, direction, 30e9, which="upper")

    def test_roundtrip_random_targets(self):
        rng = np.random.default_rng(20240818)
        direction = np.array([0.0, 1.0, 0.0])
        for _ in range(25):
            f_target = rng.uniform(2.9e9, 3.6e9)
            b = zeeman_tune(NV, NV_AXES, direction, f_target, which="upper")
            lv = transition_frequencies(NV, NV_AXES[0], b * direction)
            assert abs(lv.f_upper - f_target) <= 1.0

    def test_misordered_branch_name_rejected(self):
        with pytest.raises(DomainError):
            zeeman_tune(NV, NV_AXES, np.array([0.0, 1.0, 0.0]), 3.0e9, which="middle")


def walk_tune(species, axis, direction, f_target, which):
    """The field that the old ``zeeman_tune`` returned, or None: a walk of
    256 steps of 1.95 mT from zero field along the branch while it stays
    monotone, then bisection to 1 Hz.  The oracle of the closed form."""
    def freq(b):
        levels = transition_frequencies(species, axis, b * direction)
        return levels.f_lower if which == "lower" else levels.f_upper

    f0 = freq(0.0)
    if abs(f0 - f_target) <= 1.0:
        return 0.0
    increasing = which == "upper"
    if (f_target > f0) != increasing:
        return None
    b_lo, b_hi, f_prev = 0.0, None, f0
    for k in range(1, 257):
        b = 0.5 * k / 256
        f = freq(b)
        if (f < f_prev) if increasing else (f > f_prev):
            return None  # left the monotone branch
        if (f >= f_target) if increasing else (f <= f_target):
            b_hi = b
            break
        b_lo, f_prev = b, f
    if b_hi is None:
        return None
    for _ in range(200):
        b_mid = 0.5 * (b_lo + b_hi)
        f_mid = freq(b_mid)
        if abs(f_mid - f_target) <= 1.0:
            return b_mid
        if (f_mid < f_target) == increasing:
            b_lo = b_mid
        else:
            b_hi = b_mid
    return None


def at_angle(theta, phi):
    """The unit vector at angle ``theta`` from NV_AXES[0], azimuth ``phi``."""
    axis = NV_AXES[0]
    t1 = np.cross(axis, [0.0, 0.0, 1.0])
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(axis, t1)
    return (math.cos(theta) * axis
            + math.sin(theta) * (math.cos(phi) * t1 + math.sin(phi) * t2))


_D_HZ = NV.zero_field_splitting
# Angles from the axis: on it and near it, anywhere, and at and near 90 deg.
_ANGLES = st.one_of(st.just(0.0), st.floats(1e-9, 1e-2), st.floats(0.0, math.pi / 2),
                    st.just(math.pi / 2), st.floats(math.pi / 2 - 1e-2, math.pi / 2))
# Targets within 1 MHz of D, across both branches, and around 2D, where
# the upper branch meets the |m_s=0> level anticrossing (beta ~ D).
_TARGETS = st.one_of(st.floats(_D_HZ - 1e6, _D_HZ + 1e6),
                     st.floats(2.0e9, 17e9), st.floats(5.6e9, 5.9e9))


class TestZeemanTuneOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(theta=_ANGLES, phi=st.floats(0.0, 2 * math.pi), f_target=_TARGETS,
           which=st.sampled_from(["lower", "upper"]))
    def test_closed_form_solves_wherever_the_walk_does(self, theta, phi,
                                                       f_target, which):
        direction = at_angle(theta, phi)
        b_old = walk_tune(NV, NV_AXES[0], direction, f_target, which)
        try:
            b_new = zeeman_tune(NV, NV_AXES, direction, f_target, which)
        except NoSolutionError:
            assert b_old is None
            return
        levels = transition_frequencies(NV, NV_AXES[0], b_new * direction)
        f_new = levels.f_lower if which == "lower" else levels.f_upper
        # Only the zero-field return is 1 Hz off; a solved field is exact.
        assert abs(f_new - f_target) <= (1.0 if b_new == 0.0 else 0.01)
        if b_old is not None and abs(f_target - _D_HZ) > 1e6:
            assert b_new <= b_old * (1 + 1e-6)

    # Along [0 1 0] the lower branch bottoms out at f_min at B = 30.1365 mT.
    # The walk's 1.95 mT steps step over targets just above f_min.
    F_MIN_010 = 2630316038.79

    def test_lower_target_just_above_the_turning_point(self):
        direction = np.array([0.0, 1.0, 0.0])
        f_target = self.F_MIN_010 + 1e3
        b = zeeman_tune(NV, NV_AXES, direction, f_target, which="lower")
        levels = transition_frequencies(NV, NV_AXES[0], b * direction)
        assert abs(levels.f_lower - f_target) <= 0.01
        assert 0.0300 < b < 0.030136  # the smaller of the two fields
        with pytest.raises(NoSolutionError):
            zeeman_tune(NV, NV_AXES, direction, self.F_MIN_010 - 1e3, which="lower")

    def test_zero_field_target_needs_no_eigensolve(self, monkeypatch):
        import nvcavity.nvspin as nvspin

        def refuse(*args):
            raise AssertionError("no eigensolve expected")

        monkeypatch.setattr(nvspin, "transition_frequencies", refuse)
        direction = np.array([0.0, 1.0, 0.0])
        assert zeeman_tune(NV, NV_AXES, direction, _D_HZ + 0.5) == 0.0
        with pytest.raises(NoSolutionError, match="wrong side"):
            zeeman_tune(NV, NV_AXES, direction, _D_HZ - 2.0)
        with pytest.raises(NoSolutionError, match="not reachable"):
            zeeman_tune(NV, NV_AXES, direction, 30e9)

    def test_at_most_three_eigensolves(self, monkeypatch):
        import nvcavity.nvspin as nvspin

        calls = []
        real = nvspin.transition_frequencies

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(nvspin, "transition_frequencies", counted)
        rng = np.random.default_rng(5)
        for _ in range(50):
            direction = at_angle(rng.uniform(0, math.pi / 2), rng.uniform(0, 6.3))
            which = str(rng.choice(["lower", "upper"]))
            f_target = _D_HZ + (1 if which == "upper" else -1) * rng.uniform(1e3, 1e9)
            calls.clear()
            with contextlib.suppress(NoSolutionError):
                zeeman_tune(NV, NV_AXES, direction, f_target, which)
            assert len(calls) <= 3

    def test_lower_target_near_d_keeps_the_smallest_field(self):
        # Near zero field u ~ beta^2, so beta^2 must come from the level
        # that it is least sensitive to, or the tiny field is lost.
        direction = np.array([0.0, 1.0, 0.0])
        b = zeeman_tune(NV, NV_AXES, direction, _D_HZ - 2.0, which="lower")
        assert 0.0 < b < 1e-6
        levels = transition_frequencies(NV, NV_AXES[0], b * direction)
        assert abs(levels.f_lower - (_D_HZ - 2.0)) <= 0.01

    @pytest.mark.parametrize("d_hz, g_factor, f_target, which", [
        (5e-315, 2.0028, 3.121e9, "upper"),
        (1e-291, 2.0028, 3.121e9, "upper"),
        (2.87e9, 5e-324, 2.7e9, "lower"),
        (2.87e9, 2.0028, 1e300, "upper"),
        (2.87e9, 2.0028, 1e308, "upper"),
        (2.87e9, 2.0028, math.inf, "upper"),
        (2.87e9, 2.0028, math.nan, "lower"),
    ])
    def test_extreme_species_and_targets(self, d_hz, g_factor, f_target, which):
        # A field, or NoSolutionError; no warning and no other error.
        species = SpinSpecies(zero_field_splitting=d_hz, g_factor=g_factor)
        direction = np.array([0.0, 1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                b = zeeman_tune(species, NV_AXES, direction, f_target, which)
            except NoSolutionError:
                return
        levels = transition_frequencies(species, NV_AXES[0], b * direction)
        assert abs(getattr(levels, "f_" + which) - f_target) <= 1.0

    def test_bad_axis_rejected_before_any_return(self):
        direction = np.array([0.0, 1.0, 0.0])
        for axes in ([[1.0, 1.0, 1.0]], [[np.nan, 0.0, 0.0]], [[1.0, 0.0]]):
            with pytest.raises(DomainError, match="axis must be"):
                zeeman_tune(NV, axes, direction, _D_HZ)


class TestSweepFile:
    def test_writes_all_axes_and_fields(self, tmp_path):
        path = tmp_path / "sweep.csv"
        bs = np.linspace(0.0, 0.02, 5)
        direction = np.array([0.0, 1.0, 0.0])
        write_transition_sweep(path, NV, direction, bs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "B_magnitude_T,axis_index,f_lower_Hz,f_upper_Hz"
        assert len(lines) == 1 + 5 * 4

        # values in the file reproduce direct computation bit for bit
        row = lines[1 + 2 * 4].split(",")  # third field value, axis 0
        assert int(row[1]) == 0
        lv = transition_frequencies(NV, NV_AXES[0], bs[2] * direction)
        assert float(row[0]) == bs[2]
        assert float(row[2]) == lv.f_lower
        assert float(row[3]) == lv.f_upper

    # A zero, non-finite or overflowing direction has no unit vector; both
    # the tuner and the sweep reject it before any field is built.
    BAD_DIRECTIONS = [[0.0, 0.0, 0.0], [1e308, 1e308, 0.0], [np.nan, 1.0, 0.0],
                      [np.inf, 0.0, 0.0], [1.0, 0.0]]

    @pytest.mark.parametrize("direction", BAD_DIRECTIONS)
    def test_bad_direction_rejected_without_warnings(self, tmp_path, direction):
        path = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="direction must be a nonzero "
                                                  "finite 3-vector"):
                write_transition_sweep(path, NV, direction, [0.0, 0.01])
            with pytest.raises(DomainError, match="direction must be a nonzero "
                                                  "finite 3-vector"):
                zeeman_tune(NV, NV_AXES, direction, 3.0e9)
        assert not path.exists()

    # The squared components of these underflow, so a plain norm reads 0.
    @pytest.mark.parametrize("tiny, unit", [
        ([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([0.0, -5e-324, 0.0], [0.0, -1.0, 0.0]),
        ([1e-170, 1e-170, 0.0], [1.0, 1.0, 0.0])])
    def test_underflowing_direction_is_rescaled(self, tmp_path, tiny, unit):
        small, plain = tmp_path / "small.csv", tmp_path / "plain.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_transition_sweep(small, NV, tiny, [0.0, 0.01])
            b_small = zeeman_tune(NV, NV_AXES, tiny, 3.0e9)
        write_transition_sweep(plain, NV, unit, [0.0, 0.01])
        assert small.read_text() == plain.read_text()
        assert b_small == zeeman_tune(NV, NV_AXES, unit, 3.0e9)

    @pytest.mark.parametrize("b_values, message", [
        ([0.0, 1e300, np.nan], "overflows at [|]B[|] = 1e[+]300 T"),
        ([0.0, np.nan, 1e300], "static field must be a finite 3-vector"),
        ([0.01, np.inf], "static field must be a finite 3-vector"),
        ([0.01, 0.02, -1e305, 1e306], "overflows at [|]B[|] = 1e[+]305 T"),
    ])
    def test_first_bad_field_is_named(self, tmp_path, b_values, message):
        path = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                write_transition_sweep(path, NV, [1.0, 1.0, 1.0], b_values)
        assert not path.exists()

    # Along a direction with a zero component an infinite magnitude times 0
    # is nan; the sweep rejects it as it does along [1 1 1], without a
    # warning, and still names the first bad field.
    @pytest.mark.parametrize("direction", [[0.0, 1.0, 0.0], [0.0, 0.0, -2.0],
                                           [1.0, 1.0, 1.0]])
    @pytest.mark.parametrize("b_values, message", [
        ([0.01, np.inf], "static field must be a finite 3-vector"),
        ([-np.inf, 0.01], "static field must be a finite 3-vector"),
        ([0.0, 1e300, np.inf], "overflows at [|]B[|] = 1e[+]300 T"),
    ])
    def test_infinite_field_along_a_zero_component(self, tmp_path, direction,
                                                    b_values, message):
        path = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                write_transition_sweep(path, NV, direction, b_values)
        assert not path.exists()

    def test_unnormalized_direction_is_scaled(self, tmp_path):
        scaled, unit = tmp_path / "scaled.csv", tmp_path / "unit.csv"
        write_transition_sweep(scaled, NV, [0.0, 2.5, 0.0], [0.0, 0.01])
        write_transition_sweep(unit, NV, [0.0, 1.0, 0.0], [0.0, 0.01])
        assert scaled.read_text() == unit.read_text()


_DIRECTIONS = st.one_of(
    st.sampled_from([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0],
                     [1.0, -1.0, -1.0], [1.0, 1.0, 0.0]]),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda v: np.linalg.norm(v) > 1e-3))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(direction=_DIRECTIONS,
       fields=st.lists(st.floats(0.0, 0.5), max_size=6),
       d_ghz=st.floats(0.5, 5.0), g_factor=st.floats(1.0, 3.0))
def test_sweep_rows_equal_per_row_transitions(tmp_path_factory, direction,
                                              fields, d_ghz, g_factor):
    # The sweep diagonalizes every (field, axis) row in one stacked solve;
    # each row must equal the single-matrix result bit for bit.
    species = SpinSpecies(zero_field_splitting=d_ghz * 1e9, g_factor=g_factor)
    b_values = [0.0, *fields]
    unit = np.asarray(direction) / np.linalg.norm(direction)
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    rows = write_transition_sweep(path, species, direction, b_values)
    expected = []
    for b in b_values:
        for idx, axis in enumerate(NV_AXES):
            levels = transition_frequencies(species, axis, b * unit)
            expected.append((b, idx, levels.f_lower, levels.f_upper))
    assert rows == expected
