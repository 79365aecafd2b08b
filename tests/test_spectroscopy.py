"""Tests for the transmission model, peak extraction, and fitting."""

import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvcavity import spectroscopy as sp
from nvcavity.errors import (DomainError, FitConvergenceError,
                             NoSplittingError, ValidationError)

REFERENCE_POINT = sp.CoupledSystem(omega_c=3.121e9, kappa=1.91e6,
                               omega_s=3.121e9, gamma_star=3.0e6,
                               Omega=12.46e6)


def reference_spectrum(n_points=1201, half_span=30e6):
    return sp.spectrum(REFERENCE_POINT, REFERENCE_POINT.omega_c - half_span,
                       REFERENCE_POINT.omega_c + half_span, n_points)


class TestCoupledSystem:
    def test_cooperativity_property(self):
        assert REFERENCE_POINT.cooperativity == pytest.approx(27.1, abs=0.05)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            sp.CoupledSystem(omega_c=3e9, kappa=0.0, omega_s=3e9,
                             gamma_star=3e6, Omega=1e6)
        with pytest.raises(DomainError):
            sp.CoupledSystem(omega_c=3e9, kappa=2e6, omega_s=3e9,
                             gamma_star=3e6, Omega=-1e6)
        with pytest.raises(DomainError):
            sp.CoupledSystem(omega_c=-3e9, kappa=2e6, omega_s=3e9,
                             gamma_star=3e6, Omega=1e6)


class TestS21Squared:
    def test_bare_cavity_peak_is_unity(self):
        sys_ = sp.CoupledSystem(omega_c=3.121e9, kappa=1.91e6,
                                omega_s=3.121e9, gamma_star=3e6, Omega=0.0)
        assert sp.s21_squared(sys_, sys_.omega_c) == pytest.approx(1.0,
                                                                   rel=1e-12)

    def test_on_resonance_identity(self):
        rng = np.random.default_rng(20240821)
        for _ in range(300):
            omega = 10 ** rng.uniform(8, 10)
            sys_ = sp.CoupledSystem(
                omega_c=omega, omega_s=omega,
                kappa=10 ** rng.uniform(3, 8),
                gamma_star=10 ** rng.uniform(3, 8),
                Omega=10 ** rng.uniform(3, 8))
            expected = (1.0 + sys_.cooperativity) ** -2
            assert sp.s21_squared(sys_, omega) == pytest.approx(expected,
                                                                rel=1e-12)

    def test_symmetry_about_resonance(self):
        deltas = np.linspace(1e3, 40e6, 97)
        upper = sp.s21_squared(REFERENCE_POINT, REFERENCE_POINT.omega_c + deltas)
        lower = sp.s21_squared(REFERENCE_POINT, REFERENCE_POINT.omega_c - deltas)
        assert upper == pytest.approx(lower, rel=1e-12)

    def test_far_detuned_probe_transmits_nothing(self):
        # The tail falls off as (kappa/detuning)^2.
        assert sp.s21_squared(REFERENCE_POINT, 3.121e9 + 1e15) < 1e-17
        assert sp.s21_squared(REFERENCE_POINT, 1.0) < 1e-6
        tail = sp.s21_squared(REFERENCE_POINT,
                              3.121e9 + np.logspace(9, 13, 5))
        assert np.all(np.diff(tail) < 0)

    def test_never_exceeds_unity_on_scanned_grids(self):
        rng = np.random.default_rng(20240822)
        for _ in range(40):
            omega = 10 ** rng.uniform(9, 10)
            sys_ = sp.CoupledSystem(
                omega_c=omega, omega_s=omega * (1 + rng.uniform(-1e-3, 1e-3)),
                kappa=10 ** rng.uniform(4, 7),
                gamma_star=10 ** rng.uniform(4, 7),
                Omega=10 ** rng.uniform(4, 7.5))
            freqs = np.linspace(omega - 60e6, omega + 60e6, 2001)
            assert np.max(sp.s21_squared(sys_, freqs)) <= 1.0 + 1e-12

    def test_two_pi_rescaling_invariance(self):
        scaled = sp.CoupledSystem(
            omega_c=2 * math.pi * REFERENCE_POINT.omega_c,
            kappa=2 * math.pi * REFERENCE_POINT.kappa,
            omega_s=2 * math.pi * REFERENCE_POINT.omega_s,
            gamma_star=2 * math.pi * REFERENCE_POINT.gamma_star,
            Omega=2 * math.pi * REFERENCE_POINT.Omega)
        probes = REFERENCE_POINT.omega_c + np.linspace(-20e6, 20e6, 11)
        assert sp.s21_squared(scaled, 2 * math.pi * probes) == pytest.approx(
            sp.s21_squared(REFERENCE_POINT, probes), rel=1e-12)

    def test_scalar_and_array_agree(self):
        freqs = np.array([3.11e9, 3.121e9, 3.13e9])
        vec = sp.s21_squared(REFERENCE_POINT, freqs)
        for f, v in zip(freqs, vec):
            assert sp.s21_squared(REFERENCE_POINT, f) == v


class TestSpectrum:
    def test_grid_construction(self):
        spec = sp.spectrum(REFERENCE_POINT, 3.1e9, 3.14e9, 41)
        assert spec.freq_hz[0] == 3.1e9
        assert spec.freq_hz[-1] == 3.14e9
        assert spec.freq_hz.size == 41

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            sp.spectrum(REFERENCE_POINT, 3.14e9, 3.1e9, 41)
        with pytest.raises(DomainError):
            sp.spectrum(REFERENCE_POINT, 3.1e9, 3.14e9, 1)

    def test_reference_point_shows_two_peaks(self):
        spec = reference_spectrum()
        vals = spec.s21_sq
        maxima = [i for i in range(1, len(vals) - 1)
                  if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        assert len(maxima) == 2

    def test_detuned_spins_leave_bare_cavity_line(self):
        # The residual dispersive pull is Omega^2/detuning, so the spins
        # must sit many GHz away for the bare line to survive unmoved.
        sys_ = sp.CoupledSystem(omega_c=3.121e9, kappa=1.91e6,
                                omega_s=62.42e9, gamma_star=3e6,
                                Omega=12.46e6)
        spec = sp.spectrum(sys_, 3.111e9, 3.131e9, 4001)
        peak = spec.freq_hz[np.argmax(spec.s21_sq)]
        assert peak == pytest.approx(sys_.omega_c, abs=1e4)
        half = np.max(spec.s21_sq) / 2.0
        above = spec.freq_hz[spec.s21_sq >= half]
        hwhm = (above[-1] - above[0]) / 2.0
        assert hwhm == pytest.approx(sys_.kappa, rel=0.05)
        maxima = [i for i in range(1, spec.s21_sq.size - 1)
                  if spec.s21_sq[i] > spec.s21_sq[i - 1]
                  and spec.s21_sq[i] > spec.s21_sq[i + 1]]
        assert len(maxima) == 1

    def test_spectrum_validation(self):
        with pytest.raises(ValidationError):
            sp.Spectrum(freq_hz=np.array([1.0, 1.0, 2.0]),
                        s21_sq=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValidationError):
            sp.Spectrum(freq_hz=np.array([1.0, 2.0]),
                        s21_sq=np.array([0.1, -0.2]))


class TestAvoidedCrossingMap:
    def test_zero_detuning_row_is_bitwise_spectrum(self):
        grid = sp.avoided_crossing_map(REFERENCE_POINT, (-5e6, 5e6),
                                       (-30e6, 30e6), (41, 601))
        rows = np.where(grid.delta_s_hz == 0.0)[0]
        assert rows.size == 1
        reference = sp.spectrum(REFERENCE_POINT, REFERENCE_POINT.omega_s - 30e6,
                                REFERENCE_POINT.omega_s + 30e6, 601)
        assert np.array_equal(grid.s21_sq[rows[0]], reference.s21_sq)
        assert np.array_equal(grid.nu_p_hz,
                              reference.freq_hz - REFERENCE_POINT.omega_s)

    def test_branch_asymptotes_far_from_crossing(self):
        span = 4e8
        grid = sp.avoided_crossing_map(REFERENCE_POINT, (span - 1e6, span),
                                       (-0.2 * span, 1.2 * span), (2, 4001))
        row = grid.s21_sq[-1]
        nu = grid.nu_p_hz
        maxima = [i for i in range(1, len(row) - 1)
                  if row[i] > row[i - 1] and row[i] > row[i + 1]
                  and row[i] > 1e-6]
        peaks = sorted(nu[i] for i in maxima)
        assert len(peaks) == 2
        assert abs(peaks[0]) < 0.02 * span  # spin-like branch at nu_p ~ 0
        assert abs(peaks[1] - span) < 0.02 * span  # cavity-like at Delta_s

    def test_minimum_separation_at_zero_detuning(self):
        grid = sp.avoided_crossing_map(REFERENCE_POINT, (-20e6, 20e6),
                                       (-45e6, 45e6), (9, 1501))
        splittings = []
        for i in range(grid.delta_s_hz.size):
            row = sp.Spectrum(freq_hz=REFERENCE_POINT.omega_s + grid.nu_p_hz,
                              s21_sq=grid.s21_sq[i])
            splittings.append(sp.peak_splitting(row))
        assert int(np.argmin(splittings)) == int(
            np.argmin(np.abs(grid.delta_s_hz)))
        direct = sp.peak_splitting(sp.Spectrum(
            freq_hz=REFERENCE_POINT.omega_s + grid.nu_p_hz,
            s21_sq=grid.s21_sq[4]))
        assert min(splittings) == direct

    def test_bad_ranges_rejected(self):
        with pytest.raises(DomainError):
            sp.avoided_crossing_map(REFERENCE_POINT, (5e6, -5e6), (-1e6, 1e6),
                                    (5, 5))
        with pytest.raises(DomainError):
            sp.avoided_crossing_map(REFERENCE_POINT, (-5e6, 5e6), (-1e6, 1e6),
                                    (1, 5))


class TestPeakSplitting:
    def test_reference_point_splitting_near_two_omega(self):
        split = sp.peak_splitting(reference_spectrum(4001))
        assert split == pytest.approx(2 * REFERENCE_POINT.Omega, rel=0.02)

    def test_no_coupling_means_no_splitting(self):
        sys_ = sp.CoupledSystem(omega_c=3.121e9, kappa=1.91e6,
                                omega_s=3.121e9, gamma_star=3e6, Omega=0.0)
        spec = sp.spectrum(sys_, 3.111e9, 3.131e9, 801)
        with pytest.raises(NoSplittingError):
            sp.peak_splitting(spec)

    def test_monotonic_in_coupling(self):
        splits = []
        for omega in (6e6, 9e6, 12e6, 15e6, 18e6):
            sys_ = replace(REFERENCE_POINT, Omega=omega)
            spec = sp.spectrum(sys_, 3.121e9 - 50e6, 3.121e9 + 50e6, 3001)
            splits.append(sp.peak_splitting(spec))
        assert all(a < b for a, b in zip(splits, splits[1:]))

    def test_refinement_is_grid_resolution_stable(self):
        coarse = sp.peak_splitting(reference_spectrum(301))
        fine = sp.peak_splitting(reference_spectrum(6001))
        coarse_step = 60e6 / 300
        assert abs(coarse - fine) < coarse_step / 10

    @pytest.mark.parametrize("n_points", [1201, 2001])
    def test_noise_spikes_are_not_peaks(self, n_points):
        clean = reference_spectrum(n_points)
        expected = sp.peak_splitting(clean)
        for seed in range(12):
            noisy = sp.with_multiplicative_noise(clean, 0.01, seed)
            assert sp.peak_splitting(noisy) == pytest.approx(expected, rel=0.02)


class TestQToKappa:
    def test_paper_convention_gives_f_over_q(self):
        kappa = sp.q_to_kappa(3.121e9, 1637, convention="paper")
        assert kappa == pytest.approx(1.91e6, rel=5e-3)

    def test_standard_convention_is_exactly_half(self):
        paper = sp.q_to_kappa(3.121e9, 1637, convention="paper")
        standard = sp.q_to_kappa(3.121e9, 1637, convention="standard")
        assert standard == paper / 2.0

    def test_infinite_q_limit(self):
        assert sp.q_to_kappa(3.121e9, 1e30) < 1e-15

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            sp.q_to_kappa(3.121e9, 0.0)
        with pytest.raises(DomainError):
            sp.q_to_kappa(3.121e9, 1637, convention="fwhm")


class TestMultiplicativeNoise:
    def test_deterministic_per_seed(self):
        spec = reference_spectrum(301)
        a = sp.with_multiplicative_noise(spec, 0.01, seed=11)
        b = sp.with_multiplicative_noise(spec, 0.01, seed=11)
        c = sp.with_multiplicative_noise(spec, 0.01, seed=12)
        assert np.array_equal(a.s21_sq, b.s21_sq)
        assert not np.array_equal(a.s21_sq, c.s21_sq)

    def test_zero_fraction_is_identity(self):
        spec = reference_spectrum(301)
        out = sp.with_multiplicative_noise(spec, 0.0, seed=5)
        assert np.array_equal(out.s21_sq, spec.s21_sq)

    def test_large_noise_clipped_at_zero(self):
        spec = reference_spectrum(301)
        out = sp.with_multiplicative_noise(spec, 50.0, seed=5)
        assert np.min(out.s21_sq) >= 0.0


class TestFitSpectrum:
    def offset_guess(self):
        return sp.CoupledSystem(omega_c=3.1207e9, kappa=1.4e6,
                                omega_s=3.1214e9, gamma_star=2.2e6,
                                Omega=9e6)

    def test_noiseless_roundtrip(self):
        data = reference_spectrum(601)
        result = sp.fit_spectrum(data, self.offset_guess())
        for name in ("omega_c", "kappa", "omega_s", "gamma_star", "Omega"):
            assert getattr(result.system, name) == pytest.approx(
                getattr(REFERENCE_POINT, name), rel=1e-6)
        assert result.residual < 1e-15
        assert result.param_names == ("omega_c", "kappa", "omega_s",
                                      "gamma_star", "Omega")

    def test_masked_coupling_leaves_large_residual(self):
        data = reference_spectrum(601)
        full = sp.fit_spectrum(data, self.offset_guess())
        masked = sp.fit_spectrum(data, self.offset_guess(),
                                 free=("omega_c", "kappa", "gamma_star"))
        assert masked.system.Omega == self.offset_guess().Omega
        assert masked.residual > 1e6 * max(full.residual, 1e-30)

    def test_amplitude_recovery(self):
        data = reference_spectrum(601)
        scaled = sp.Spectrum(freq_hz=data.freq_hz,
                             s21_sq=0.37 * data.s21_sq)
        result = sp.fit_spectrum(
            scaled, self.offset_guess(),
            free=("omega_c", "kappa", "omega_s", "gamma_star", "Omega",
                  "amplitude"))
        assert result.amplitude == pytest.approx(0.37, rel=1e-6)
        assert result.system.Omega == pytest.approx(REFERENCE_POINT.Omega,
                                                    rel=1e-6)

    def test_noisy_recovery_single_seed(self):
        data = sp.with_multiplicative_noise(reference_spectrum(601), 0.01,
                                            seed=3)
        result = sp.fit_spectrum(data, self.offset_guess())
        assert result.system.Omega == pytest.approx(REFERENCE_POINT.Omega,
                                                    rel=0.02)
        assert result.system.kappa == pytest.approx(REFERENCE_POINT.kappa,
                                                    rel=0.05)
        assert result.system.gamma_star == pytest.approx(
            REFERENCE_POINT.gamma_star, rel=0.05)

    # The poor-start matrix: linewidth factor x detuning [Hz] x Omega factor.
    @pytest.mark.parametrize("linewidth, detuning, omega", itertools.product(
        (0.5, 1.0, 1.5), (-2e6, 0.0, 2e6), (0.5, 1.0, 2.0)))
    def test_poor_starts_recover_omega(self, linewidth, detuning, omega):
        data = sp.with_multiplicative_noise(reference_spectrum(1201), 0.01,
                                            seed=3)
        start = sp.CoupledSystem(
            omega_c=REFERENCE_POINT.omega_c + detuning,
            kappa=REFERENCE_POINT.kappa * linewidth,
            omega_s=REFERENCE_POINT.omega_s - detuning,
            gamma_star=REFERENCE_POINT.gamma_star * linewidth,
            Omega=REFERENCE_POINT.Omega * omega)
        result = sp.fit_spectrum(data, start)
        assert result.system.Omega == pytest.approx(REFERENCE_POINT.Omega,
                                                    rel=0.02)

    def test_free_amplitude_starts_at_least_squares_scale(self):
        # Benchmark fit case seed 709 "seeded23" (benchmarks/bench_inputs.py):
        # from A0 = 1 the fit ends at Omega = 16.0 MHz, residual 0.94.
        truth = sp.CoupledSystem(omega_c=3121459877.82534,
                                 kappa=1895772.8987184607,
                                 omega_s=3121678503.168574,
                                 gamma_star=2698829.19829411,
                                 Omega=12488828.45643378)
        clean = sp.spectrum(truth, 3.091e9, 3.151e9, 1201)
        data = sp.with_multiplicative_noise(
            sp.Spectrum(freq_hz=clean.freq_hz,
                        s21_sq=0.5877365875228507 * clean.s21_sq),
            0.01, seed=1645032158)
        start = sp.CoupledSystem(omega_c=3121823771.0632105,
                                 kappa=1504597.402628658,
                                 omega_s=3122109414.532285,
                                 gamma_star=2028660.9048528962,
                                 Omega=9647622.408101017)
        result = sp.fit_spectrum(data, start, free=sp._FIT_PARAM_NAMES)
        assert result.system.Omega == pytest.approx(truth.Omega, rel=0.02)
        assert result.amplitude == pytest.approx(0.5877365875228507, rel=0.05)
        assert result.residual < 1e-3

    def test_amplitude_alone_is_solved_by_its_start(self):
        # The model is linear in A0, so the projected start is the optimum.
        data = reference_spectrum(601)
        scaled = sp.Spectrum(freq_hz=data.freq_hz, s21_sq=0.37 * data.s21_sq)
        model = sp.s21_squared(self.offset_guess(), data.freq_hz)
        result = sp.fit_spectrum(scaled, self.offset_guess(),
                                 free=("amplitude",))
        assert result.amplitude == pytest.approx(
            model @ scaled.s21_sq / (model @ model), rel=1e-12)
        assert result.n_iterations == 1

    def test_fixed_amplitude_defaults_to_one(self):
        data = reference_spectrum(601)
        scaled = sp.Spectrum(freq_hz=data.freq_hz, s21_sq=0.37 * data.s21_sq)
        assert sp.fit_spectrum(scaled, self.offset_guess()).amplitude == 1.0

    def test_no_positive_amplitude_start_is_domain_error(self):
        freqs = reference_spectrum(601).freq_hz
        dark = sp.Spectrum(freq_hz=freqs, s21_sq=np.zeros_like(freqs))
        with pytest.raises(DomainError, match="initial_amplitude"):
            sp.fit_spectrum(dark, self.offset_guess(), free=("amplitude",))
        with pytest.raises(DomainError, match="initial_amplitude"):
            sp.fit_spectrum(reference_spectrum(601), self.offset_guess(),
                            initial_amplitude=-1.0)

    def test_non_physical_end_raises_with_best_state(self):
        # On bare-cavity data the only thing left to fit is the spins'
        # dispersive pull, so the spin line runs off below zero frequency.
        data = sp.spectrum(replace(REFERENCE_POINT, Omega=0.0),
                           3.091e9, 3.151e9, 601)
        start = replace(REFERENCE_POINT, omega_s=3.071e9, Omega=1e6)
        with pytest.raises(FitConvergenceError, match="non-physical") as excinfo:
            sp.fit_spectrum(data, start, free=("omega_s",))
        best = excinfo.value.best
        assert isinstance(best, sp.FitResult)
        assert best.system == start
        assert best.residual >= 0.0

    @pytest.mark.parametrize("free", [sp._PARAM_NAMES, sp._FIT_PARAM_NAMES])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(omega_c=st.floats(1e9, 1e10), detuning=st.floats(-3.0, 3.0),
           kappa=st.floats(3e5, 1e7), gamma_star=st.floats(3e5, 1e7),
           omega=st.floats(1e5, 3e7), amplitude=st.floats(0.1, 2.0))
    def test_jacobian_matches_central_differences(self, free, omega_c,
                                                  detuning, kappa, gamma_star,
                                                  omega, amplitude):
        if "amplitude" not in free:
            amplitude = 1.0
        params = {"omega_c": omega_c, "kappa": kappa,
                  "omega_s": omega_c + detuning * omega, "gamma_star": gamma_star,
                  "Omega": omega, "amplitude": amplitude}
        span = omega + 5 * max(kappa, gamma_star)
        freqs = np.linspace(omega_c - span, omega_c + span, 201)

        def residual(p):
            sys_ = sp.CoupledSystem(**{k: p[k] for k in sp._PARAM_NAMES})
            return p["amplitude"] * sp.s21_squared(sys_, freqs)

        _, jac = sp._model_and_jacobian(
            freqs, np.array([params[k] for k in sp._FIT_PARAM_NAMES]))
        for name in free:
            h = (1e-6 * amplitude if name == "amplitude"
                 else 1e-4 * min(kappa, gamma_star))
            column = jac[:, sp._FIT_PARAM_NAMES.index(name)]
            numeric = (residual({**params, name: params[name] + h})
                       - residual({**params, name: params[name] - h})) / (2 * h)
            scale = np.max(np.abs(column))
            assert np.max(np.abs(column - numeric)) <= 1e-6 * scale, name

    def test_free_omega_cannot_start_at_zero(self):
        # The Omega column of the Jacobian, 2 Omega t / D, vanishes at 0.
        data = sp.with_multiplicative_noise(reference_spectrum(1201), 0.01,
                                            seed=3)
        start = replace(self.offset_guess(), Omega=0.0)
        with pytest.raises(DomainError, match="Omega"):
            sp.fit_spectrum(data, start)
        held = sp.fit_spectrum(data, start, free=("omega_c", "kappa"))
        assert held.system.Omega == 0.0

    def test_overflowing_start_leaks_no_warning(self):
        # From Omega = 1 Hz the solver tries steps whose log-coordinate
        # exp() overflows; that must stay inside the fit.
        data = sp.with_multiplicative_noise(reference_spectrum(1201), 0.01,
                                            seed=3)
        start = replace(self.offset_guess(), Omega=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitConvergenceError):
                sp.fit_spectrum(data, start)

    def test_one_model_evaluation_per_solver_point(self, monkeypatch):
        # The spectrum and start of acceptance criterion 03.
        data = sp.with_multiplicative_noise(reference_spectrum(1201), 0.01,
                                            seed=0)
        calls = []
        model_and_jacobian = sp._model_and_jacobian

        def counted(freqs, p):
            calls.append(p)
            return model_and_jacobian(freqs, p)

        monkeypatch.setattr(sp, "_model_and_jacobian", counted)
        result = sp.fit_spectrum(data, self.offset_guess())
        assert result.n_iterations > 5
        # One per solver point, plus the final state's curvature.
        assert len(calls) == result.n_iterations + 1

    # Spectra over the benchmark's seeded-fit ranges, starts over the
    # poor-start matrix ranges; the amplitude is fixed at 1 or free.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
           amplitude_free=st.booleans(), noise_seed=st.integers(0, 2**31 - 1))
    def test_converges_wherever_minpack_does(self, u, amplitude_free,
                                             noise_seed):
        from scipy import optimize

        omega_s = REFERENCE_POINT.omega_s + 1e6 * (2 * u[0] - 1)
        truth = sp.CoupledSystem(
            omega_c=omega_s + 1e6 * (2 * u[1] - 1),
            kappa=REFERENCE_POINT.kappa * (0.85 + 0.3 * u[2]),
            omega_s=omega_s,
            gamma_star=REFERENCE_POINT.gamma_star * (0.85 + 0.3 * u[3]),
            Omega=REFERENCE_POINT.Omega * (0.85 + 0.3 * u[4]))
        amplitude = 0.5 + 0.45 * u[5] if amplitude_free else 1.0
        clean = sp.spectrum(truth, 3.091e9, 3.151e9, 601)
        data = sp.with_multiplicative_noise(
            sp.Spectrum(freq_hz=clean.freq_hz, s21_sq=amplitude * clean.s21_sq),
            0.01, seed=noise_seed)
        detuning = 2e6 * (2 * u[6] - 1)
        linewidth = 0.5 + u[7]
        start = sp.CoupledSystem(
            omega_c=truth.omega_c + detuning, kappa=truth.kappa * linewidth,
            omega_s=truth.omega_s - detuning,
            gamma_star=truth.gamma_star * linewidth,
            Omega=truth.Omega * 0.5 * 4.0 ** u[8])
        free = sp._FIT_PARAM_NAMES if amplitude_free else sp._PARAM_NAMES

        # MINPACK on the same coordinates, start and Jacobian.
        p0 = np.array([start.omega_c, start.kappa, start.omega_s,
                       start.gamma_star, start.Omega, 1.0])
        if amplitude_free:
            m = sp.s21_squared(start, data.freq_hz)
            p0[5] = m @ data.s21_sq / (m @ m)
        n = len(free)
        logged = np.array([False, True, False, True, False, True])[:n]

        def unpack(x):
            p = p0.copy()
            p[:n] = p0[:n] * np.where(logged, np.exp(x), x)
            return p

        def residuals(x):
            return sp._model_and_jacobian(data.freq_hz, unpack(x))[0] - data.s21_sq

        def jacobian(x):
            p = unpack(x)
            jac = sp._model_and_jacobian(data.freq_hz, p)[1][:, :n]
            return jac * np.where(logged, p[:n], p0[:n])

        with np.errstate(over="ignore", invalid="ignore"):
            sol = optimize.least_squares(
                residuals, np.where(logged, 0.0, 1.0), jac=jacobian, method="lm",
                xtol=1e-12, ftol=1e-12, gtol=1e-12, max_nfev=200)
            want = unpack(sol.x)
            want_residual = float(sol.fun @ sol.fun)
        if not (sol.status > 0 and np.all(np.isfinite(want))
                and np.all(np.delete(want, 4) > 0)):
            return
        result = sp.fit_spectrum(data, start, free=free)
        assert result.residual <= want_residual * (1 + 1e-12)
        assert result.system.Omega == pytest.approx(abs(want[4]), rel=1e-6)

    def test_overflowing_trial_steps_are_rejected(self, monkeypatch):
        # From a 100x cavity linewidth and Omega = 0.3 MHz, trial steps
        # overflow on the way to a (wrong) minimum.
        data = sp.with_multiplicative_noise(reference_spectrum(1201), 0.01,
                                            seed=3)
        start = replace(self.offset_guess(), kappa=1.4e8, Omega=3e5)
        costs = []
        model_and_jacobian = sp._model_and_jacobian

        def recorded(freqs, p):
            model, jac = model_and_jacobian(freqs, p)
            r = model - data.s21_sq
            costs.append(r @ r if np.all(np.isfinite(jac)) else math.inf)
            return model, jac

        monkeypatch.setattr(sp, "_model_and_jacobian", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sp.fit_spectrum(data, start)
        assert not all(math.isfinite(c) for c in costs)
        assert result.residual == costs[-1] == min(costs)

    def test_trial_point_with_non_finite_jacobian_is_rejected(self,
                                                               monkeypatch):
        data = sp.with_multiplicative_noise(reference_spectrum(601), 0.01,
                                            seed=3)
        clean = sp.fit_spectrum(data, self.offset_guess())
        model_and_jacobian = sp._model_and_jacobian
        calls = []

        def broken_once(freqs, p):
            model, jac = model_and_jacobian(freqs, p)
            calls.append(p)
            if len(calls) == 2:  # the first trial point
                jac[7, 1] = np.nan
            return model, jac

        monkeypatch.setattr(sp, "_model_and_jacobian", broken_once)
        result = sp.fit_spectrum(data, self.offset_guess())
        assert result.residual <= clean.residual * (1 + 1e-9)
        assert result.system.Omega == pytest.approx(clean.system.Omega, rel=1e-6)

    def test_start_with_non_finite_jacobian_raises(self, monkeypatch):
        data = reference_spectrum(601)
        model_and_jacobian = sp._model_and_jacobian

        def broken(freqs, p):
            model, jac = model_and_jacobian(freqs, p)
            jac[7, 1] = np.nan
            return model, jac

        monkeypatch.setattr(sp, "_model_and_jacobian", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitConvergenceError,
                               match="without converging") as excinfo:
                sp.fit_spectrum(data, self.offset_guess())
        best = excinfo.value.best
        assert best.system == self.offset_guess()
        assert best.n_iterations == 1

    def test_start_with_infinite_cost_raises(self):
        # A 1 mHz cavity line on a probe sample, scaled by 1e306: the
        # residuals overflow when squared and the Jacobian overflows.
        data = reference_spectrum(601)
        start = sp.CoupledSystem(omega_c=data.freq_hz[300], kappa=1e-3,
                                 omega_s=data.freq_hz[300] + 1e6,
                                 gamma_star=1e-3, Omega=1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitConvergenceError) as excinfo:
                sp.fit_spectrum(data, start, free=sp._FIT_PARAM_NAMES,
                                initial_amplitude=1e306)
        assert excinfo.value.best.residual == math.inf

    def test_iteration_cap_raises_with_best_state(self):
        data = reference_spectrum(601)
        with pytest.raises(FitConvergenceError) as excinfo:
            sp.fit_spectrum(data, self.offset_guess(), max_iterations=1)
        best = excinfo.value.best
        assert isinstance(best, sp.FitResult)
        assert best.residual >= 0.0
        # The one evaluation is the start's, so the start is the best state.
        assert best.system == self.offset_guess()
        assert best.n_iterations == 1

    def test_unknown_parameter_rejected(self):
        data = reference_spectrum(101)
        with pytest.raises(DomainError):
            sp.fit_spectrum(data, self.offset_guess(), free=("detuning",))
        with pytest.raises(DomainError):
            sp.fit_spectrum(data, self.offset_guess(), free=())

    def test_too_few_points_rejected(self):
        data = sp.spectrum(REFERENCE_POINT, 3.11e9, 3.13e9, 4)
        with pytest.raises(DomainError):
            sp.fit_spectrum(data, self.offset_guess())

    def test_curvature_shape_and_symmetry(self):
        data = reference_spectrum(301)
        result = sp.fit_spectrum(data, self.offset_guess())
        curv = np.asarray(result.curvature)
        assert curv.shape == (5, 5)
        assert np.allclose(curv, curv.T)
        assert np.all(np.linalg.eigvalsh(curv) > -1e-6 * np.max(np.abs(curv)))

    def test_result_dict_round_trips_json(self, tmp_path):
        data = reference_spectrum(301)
        result = sp.fit_spectrum(data, self.offset_guess())
        out = tmp_path / "fit.json"
        sp.write_fit_result(out, result)
        payload = json.loads(out.read_text())
        assert payload["units"] == "Hz"
        assert payload["linewidth_convention"] == "HWHM"
        assert payload["Omega_Hz"] == result.system.Omega
        assert payload["n_iterations"] == result.n_iterations
        assert len(payload["curvature"]) == 5


class TestSpectrumFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = reference_spectrum(201)
        path = tmp_path / "spec.csv"
        sp.write_spectrum(path, spec)
        back = sp.read_spectrum(path)
        assert np.array_equal(back.freq_hz, spec.freq_hz)
        assert np.array_equal(back.s21_sq, spec.s21_sq)

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("freq_Hz,S21_sq\n3.0e9,0.5\n2.0e9,0.25\n2.5e9,0.1\n")
        back = sp.read_spectrum(path)
        assert list(back.freq_hz) == [2.0e9, 2.5e9, 3.0e9]
        assert list(back.s21_sq) == [0.25, 0.1, 0.5]

    def test_duplicate_frequency_rejected_with_line(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("freq_Hz,S21_sq\n2.0e9,0.5\n2.0e9,0.25\n")
        with pytest.raises(ValidationError, match="line 2"):
            sp.read_spectrum(path)

    def test_malformed_row_names_its_line(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("freq_Hz,S21_sq\n2.0e9,0.5\n2.1e9\n")
        with pytest.raises(ValidationError, match=":3"):
            sp.read_spectrum(path)

    def test_negative_linear_value_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("freq_Hz,S21_sq\n2.0e9,-0.5\n")
        with pytest.raises(ValidationError, match=":2"):
            sp.read_spectrum(path)

    def test_db_conversion(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("freq_Hz,S21_sq\n2.0e9,-20.0\n2.1e9,0.0\n")
        back = sp.read_spectrum(path, magnitude="dB")
        assert back.s21_sq == pytest.approx([0.01, 1.0], rel=1e-12)

    def test_overflowing_db_value_rejected_with_line(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("freq_Hz,S21_sq\n2.0e9,-4000\n2.1e9,3080\n2.2e9,3090\n")
        with pytest.raises(ValidationError) as info:
            sp.read_spectrum(path, magnitude="dB")
        assert str(info.value) == f"{path}:4: dB value 3090.0 overflows |S21|^2"
        assert info.value.module == "spectroscopy"

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("f,s\n2.0e9,0.5\n")
        with pytest.raises(ValidationError, match="header"):
            sp.read_spectrum(path)

    def test_grid_csv_layout(self, tmp_path):
        grid = sp.avoided_crossing_map(REFERENCE_POINT, (-4e6, 4e6),
                                       (-10e6, 10e6), (3, 5))
        path = tmp_path / "grid.csv"
        sp.write_grid(path, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == "delta_s_Hz,nu_p_Hz,S21_sq"
        assert len(lines) == 1 + 3 * 5
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == grid.delta_s_hz[0]
        assert first[1] == grid.nu_p_hz[0]
        assert first[2] == grid.s21_sq[0, 0]
        last = [float(v) for v in lines[-1].split(",")]
        assert last[2] == grid.s21_sq[2, 4]

    def test_fit_result_file(self, tmp_path):
        data = reference_spectrum(301)
        guess = sp.CoupledSystem(omega_c=3.1207e9, kappa=1.4e6,
                                 omega_s=3.1214e9, gamma_star=2.2e6,
                                 Omega=9e6)
        result = sp.fit_spectrum(data, guess)
        path = tmp_path / "fit.json"
        sp.write_fit_result(path, result)
        payload = json.loads(path.read_text())
        assert payload["kappa_Hz"] == result.system.kappa
