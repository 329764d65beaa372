import tracemalloc

import numpy as np
import pytest

from conftest import hands_off, traced_peak
from imddsim import txdsp
from imddsim.errors import NumericalError, ParameterError
from imddsim.sigcore import (
    SampledWaveform,
    apply_filter,
    filter_response,
    nmse_db,
    occupied_bandwidth,
    tone_amplitude,
)
from imddsim.txdsp import (
    BandPlan,
    VolterraKernel,
    VolterraStructure,
    _feature_blocks,
    apply_volterra,
    band_split,
    fit_volterra,
    linear_preemphasis,
    rrc_upsample,
)

C_PLAN = BandPlan(76e9, 75e9, 72e9)


def matched_downsample(wave, sps, rolloff):
    """Oracle-side RRC matched filter, from the closed-form RRC spectrum at
    unit gain, and T-spaced sampler."""
    nu = np.abs(wave.freqs()) / (wave.sample_rate_hz / sps)
    h = np.cos(np.pi / 2 * np.clip((nu - (1 - rolloff) / 2) / rolloff, 0, 1))
    return apply_filter(wave, h).real[::sps]


def rrc_pulse(t, beta):
    """Oracle: the time-domain RRC pulse of roll-off ``beta`` at ``t``
    symbol periods, scaled for unit DC gain per symbol."""
    out = np.empty_like(t)
    center = t == 0
    singular = np.isclose(np.abs(t), 1 / (4 * beta))
    safe = ~(center | singular)
    ts = t[safe]
    out[safe] = ((np.sin(np.pi * ts * (1 - beta))
                  + 4 * beta * ts * np.cos(np.pi * ts * (1 + beta)))
                 / (np.pi * ts * (1 - (4 * beta * ts) ** 2)))
    out[center] = 1 - beta + 4 * beta / np.pi
    out[singular] = beta / np.sqrt(2) * ((1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
                                         + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta)))
    return out


def _shifted(x, delay):
    """Oracle: x[n - delay] with zero padding outside the record."""
    out = np.zeros_like(x)
    if delay >= 0:
        if delay < x.size:
            out[delay:] = x[: x.size - delay]
    else:
        if -delay < x.size:
            out[:delay] = x[-delay:]
    return out


def _term(x, delays):
    """Oracle: x[n - d1] * x[n - d2] * ..., multiplied left to right."""
    out = _shifted(x, delays[0])
    for d in delays[1:]:
        out = out * _shifted(x, d)
    return out


def nested_loop_terms(st):
    """Oracle: the kernel's delay tuples by explicit loops."""
    def offsets(memory):
        return range(-(memory // 2), memory // 2 + 1) if memory else range(0)

    def within(spread, lo, hi):
        return spread is None or hi - lo <= spread

    terms = [(d,) for d in offsets(st.memory_1)]
    terms += [(i, j) for i in offsets(st.memory_2) for j in offsets(st.memory_2)
              if i <= j and within(st.max_spread_2, i, j)]
    terms += [(i, j, k) for i in offsets(st.memory_3) for j in offsets(st.memory_3)
              for k in offsets(st.memory_3)
              if i <= j <= k and within(st.max_spread_3, i, k)]
    return terms


class TestVolterraTerms:
    @pytest.mark.parametrize("st", [
        VolterraStructure(memory_1=5, memory_2=5, memory_3=5,
                          max_spread_2=None, max_spread_3=None),
        VolterraStructure(memory_1=9, memory_2=7, memory_3=5,
                          max_spread_2=2, max_spread_3=1),
    ], ids=["full", "pruned"])
    def test_terms_match_nested_loops(self, st):
        assert st.terms() == nested_loop_terms(st)
        assert st.coefficient_count == len(st.terms())

    def test_wrong_coefficient_count_rejected(self):
        st = VolterraStructure(memory_1=5, memory_2=3, memory_3=0)
        with pytest.raises(ParameterError):
            VolterraKernel(st, np.zeros(st.coefficient_count + 1))

    def test_fit_recovers_applied_kernel_with_cross_terms(self):
        # fitting and applying walk the same term list: regressing the
        # kernel's output on its input returns the kernel
        rng = np.random.default_rng(7)
        st = VolterraStructure(memory_1=5, memory_2=3, memory_3=3,
                               max_spread_2=None, max_spread_3=None)
        k = VolterraKernel(st, 0.1 * rng.normal(size=st.coefficient_count))
        x = rng.normal(size=2048)
        fit = fit_volterra(apply_volterra(x, k), x, st)
        assert np.max(np.abs(fit.kernel.coefficients - k.coefficients)) < 1e-10


class TestApplyVolterra:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=256)
        y = apply_volterra(x, VolterraKernel.identity())
        assert np.array_equal(x, y)

    def test_memoryless_cubic(self):
        x = np.random.default_rng(1).normal(size=256)
        st = VolterraStructure(memory_1=3, memory_2=0, memory_3=3, max_spread_3=0)
        c = VolterraKernel.identity(st).coefficients.copy()
        c[st.terms().index((0, 0, 0))] = -0.25
        k = VolterraKernel(st, c)
        assert np.allclose(apply_volterra(x, k), x - 0.25 * x**3, atol=1e-14)

    def test_first_order_equals_fir(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=512)
        h1 = rng.normal(size=7)
        st = VolterraStructure(memory_1=7, memory_2=0, memory_3=0)
        k = VolterraKernel(st, h1)
        ref = np.convolve(x, h1, mode="full")[3: 3 + x.size]
        assert np.allclose(apply_volterra(x, k), ref, atol=1e-12)

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ParameterError):
            apply_volterra(np.ones(5), VolterraKernel.identity())


class TestFitVolterra:
    def test_identity_channel(self):
        x = np.random.default_rng(3).normal(size=4096)
        st = VolterraStructure(memory_1=7, memory_2=3, memory_3=3,
                               max_spread_2=1, max_spread_3=1)
        fit = fit_volterra(x, x, st)
        ident = VolterraKernel.identity(st)
        assert np.allclose(fit.kernel.coefficients, ident.coefficients, atol=1e-6)

    def test_linear_channel_learns_fir_inverse(self):
        rng = np.random.default_rng(4)
        g = np.array([1.0, 0.3, -0.1])
        x = rng.normal(size=8192)
        y = np.convolve(x, g, mode="full")[: x.size]
        st = VolterraStructure(memory_1=15, memory_2=0, memory_3=0)
        fit = fit_volterra(x, y, st)

        # oracle: frequency-domain inversion of g, truncated to the window
        n_fft = 4096
        g_inv = np.fft.ifft(1.0 / np.fft.fft(g, n_fft)).real
        expect = np.zeros(15)
        expect[7:] = g_inv[:8]          # causal inverse lands right of center
        expect[:7] = g_inv[-7:]
        err = np.sum((fit.kernel.coefficients - expect) ** 2) / np.sum(expect**2)
        assert 10 * np.log10(err) < -40
        assert fit.holdout_nmse_db <= -30

    def test_memoryless_cubic_improvement(self):
        # drive kept inside the invertible range of x - 0.1x^3 (|x| < 1.83);
        # training sweep is amplitude-extended so the post-inverse is fitted
        # over the whole predistorter input span
        rng = np.random.default_rng(5)
        levels = np.arange(-7, 8, 2) / 7.0

        def cubic(v):
            return v - 0.1 * v**3

        x_tr = levels[rng.integers(0, 8, 20000)] * 1.5
        x_ev = levels[rng.integers(0, 8, 20000)]
        st = VolterraStructure(memory_1=3, memory_2=0, memory_3=3, max_spread_3=0)
        fit = fit_volterra(x_tr, cubic(x_tr), st)
        z = apply_volterra(x_ev, fit.kernel)
        no_dpd = nmse_db(x_ev, cubic(x_ev))
        with_dpd = nmse_db(x_ev, cubic(z))
        assert no_dpd > -23.0          # distortion clearly present
        assert with_dpd < -28.0
        assert no_dpd - with_dpd >= 10.0

    def test_holdout_within_3db_of_training(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=8192)
        y = np.convolve(x - 0.05 * x**3, [1.0, 0.2], mode="full")[: x.size]
        st = VolterraStructure(memory_1=9, memory_2=0, memory_3=9, max_spread_3=0)
        fit = fit_volterra(x, y, st)
        assert fit.holdout_nmse_db <= fit.train_nmse_db + 3.0

    def test_too_short_rejected(self):
        with pytest.raises(ParameterError):
            fit_volterra(np.ones(50), np.ones(50), VolterraStructure())

    @pytest.mark.parametrize("noise", [1e-7, 1e-9], ids=["cond2e7", "cond2e9"])
    def test_near_collinear_rejected(self, noise):
        # +-1 symbols make x^2 ~ 1 and x^3 ~ x: kappa(features) ~ 2/noise;
        # at 2e9 the Gram matrix can no longer resolve it at all
        rng = np.random.default_rng(21)
        x = rng.choice([-1.0, 1.0], 20000) + noise * rng.normal(size=20000)
        with pytest.raises(NumericalError):
            fit_volterra(rng.normal(size=x.size), x, VolterraStructure(5, 3, 3))

    def test_collinear_rejected(self):
        rng = np.random.default_rng(22)
        x = rng.choice([-1.0, 1.0], 20000)
        with pytest.raises(NumericalError):
            fit_volterra(rng.normal(size=x.size), x, VolterraStructure(5, 3, 3))

    def test_condition_number_of_training_features(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=6000)
        st = VolterraStructure(memory_1=7, memory_2=3, memory_3=3)
        y = x - 0.05 * x**3
        fit = fit_volterra(y, x, st)
        _, phi, lo, n_train, _ = fit_oracle(x, y, st)
        assert fit.condition_number == pytest.approx(
            np.linalg.cond(phi[lo:n_train]), rel=1e-6)

    def test_memory_bound(self):
        rng = np.random.default_rng(24)
        x, y = rng.normal(size=65536), rng.normal(size=65536)
        tracemalloc.start()
        try:
            fit_volterra(y, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_apply_memory_bound(self):
        # one 63 x 8 192 feature block (4.1 MB) fits under the bound; the
        # full 63 x 65 536 feature matrix (33 MB) does not
        x = np.random.default_rng(25).normal(size=65536)
        k = VolterraKernel.identity()
        tracemalloc.start()
        try:
            apply_volterra(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def fit_oracle(x, y, st):
    """Oracle: ``lstsq`` on the explicit feature matrix's training rows;
    returns (coefficients, features, training start, training end, usable
    end)."""
    terms = st.terms()
    phi = np.column_stack([_term(x, t) for t in terms])
    guard = max(abs(d) for t in terms for d in t)
    lo, hi = guard, x.size - guard
    n_train = lo + int((hi - lo) * (1.0 - txdsp.VOLTERRA_HOLDOUT_FRACTION))
    w, _, _, _ = np.linalg.lstsq(phi[lo:n_train], y[lo:n_train], rcond=None)
    return w, phi, lo, n_train, hi


class TestFitBlocks:
    """Block edges: the fit over many short blocks equals one ``lstsq``."""

    ST = VolterraStructure(memory_1=7, memory_2=5, memory_3=3,
                           max_spread_2=2, max_spread_3=None)

    @pytest.fixture(params=[100, 257], ids=["block100", "block257"])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(txdsp, "_FIT_BLOCK", request.param)
        return request.param

    @staticmethod
    def record(n=3001):
        rng = np.random.default_rng(31)
        x = rng.normal(size=n)
        y = np.convolve(x - 0.05 * x**3, [1.0, 0.2, -0.1], mode="full")[:n]
        return x, y + 0.01 * rng.normal(size=n)

    def test_matches_lstsq_oracle(self, block):
        x, y = self.record()
        fit = fit_volterra(y, x, self.ST)
        w, phi, lo, n_train, hi = fit_oracle(x, y, self.ST)
        sv = np.linalg.svd(phi[lo:n_train], compute_uv=False)
        assert np.max(np.abs(fit.kernel.coefficients - w)) < 1e-12
        assert fit.condition_number == pytest.approx(sv[0] / sv[-1], rel=1e-9)
        assert fit.train_nmse_db == pytest.approx(
            nmse_db(y[lo:n_train], phi[lo:n_train] @ w), abs=1e-9)
        assert fit.holdout_nmse_db == pytest.approx(
            nmse_db(y[n_train:hi], phi[n_train:hi] @ w), abs=1e-9)

    def test_block_features_bit_equal_terms(self, block):
        # the blocks tile [lo, hi) exactly, each one ``block`` long but the last
        x, _ = self.record()
        terms = self.ST.terms()
        phi = np.column_stack([_term(x, t) for t in terms])
        for lo, hi in ((0, x.size), (3, x.size - 3), (17, 18)):
            edge = lo
            for s, rows in _feature_blocks(x, terms, lo, hi):
                assert s.start == edge and s.stop == min(edge + block, hi)
                assert np.array_equal(rows, phi[s].T)
                edge = s.stop
            assert edge == hi

    def test_apply_matches_term_sum_with_cross_terms(self, block):
        # full cross terms; the first and last ``guard`` samples read the
        # zero padding, and the record ends inside a block
        st = VolterraStructure(memory_1=7, memory_2=5, memory_3=5,
                               max_spread_2=None, max_spread_3=None)
        x, _ = self.record()
        c = np.random.default_rng(32).normal(size=st.coefficient_count)
        ref = sum(ct * _term(x, t) for t, ct in zip(st.terms(), c))
        y = apply_volterra(x, VolterraKernel(st, c))
        assert np.max(np.abs(y - ref)) < 1e-12


class TestRrcUpsample:
    def test_impulse_gives_pulse(self):
        # the whole record against the untruncated pulse; what differs is
        # the pulse's tail beyond the record, folded back by the circular grid
        sym = np.zeros(1025)
        sym[512] = 1.0
        wave = rrc_upsample(sym, 2, 0.1, 1e9)
        t = (np.arange(wave.n) - 1024) / 2
        assert np.max(np.abs(wave.real - rrc_pulse(t, 0.1))) < 5e-6

    def test_occupied_bandwidth(self):
        rng = np.random.default_rng(7)
        sym = np.where(np.arange(4096) % 2 == 0, 1.0, -1.0)
        rs = 216e9
        wave = rrc_upsample(sym, 2, 0.01, rs)
        assert occupied_bandwidth(wave, 0.999) <= (1 + 0.01) / 2 * rs * 1.02

    def test_round_trip_pam8(self):
        rng = np.random.default_rng(8)
        levels = np.arange(-7, 8, 2) / np.sqrt(21)
        sym = levels[rng.integers(0, 8, 4096)]
        wave = rrc_upsample(sym, 2, 0.01, 216e9)
        back = matched_downsample(wave, 2, 0.01)
        assert 10 * np.log10(np.sum((back - sym) ** 2) / np.sum(sym**2)) < -250

    def test_linearity(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=512)
        b = rng.normal(size=512)
        lhs = rrc_upsample(1.5 * a - 0.5 * b, 2, 0.1, 1e9).real
        rhs = 1.5 * rrc_upsample(a, 2, 0.1, 1e9).real - 0.5 * rrc_upsample(b, 2, 0.1, 1e9).real
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-10


class TestPreemphasis:
    def test_flat_response_identity(self):
        rng = np.random.default_rng(10)
        w = SampledWaveform(256e9, rng.normal(size=2048))
        out = linear_preemphasis(w, np.ones(w.n // 2 + 1), max_boost_db=20.0)
        assert nmse_db(w, out) < -150

    def test_first_order_rolloff_flattened(self):
        # -6 dB at the 100-GHz band edge; cascade must be flat within 0.5 dB
        rate = 512e9
        f0 = 100e9 / np.sqrt(10 ** 0.6 - 1)
        n = 8192
        t = np.arange(n) / rate
        response = 1.0 / np.sqrt(1 + (np.fft.rfftfreq(n, 1 / rate) / f0) ** 2)
        for f_test in (20e9, 50e9, 80e9, 100e9):
            w = SampledWaveform(rate, np.cos(2 * np.pi * f_test * t))
            pre = linear_preemphasis(w, response, max_boost_db=20.0)
            casc = pre.with_spectrum(pre.spectrum * response)
            ratio = tone_amplitude(casc, f_test) / tone_amplitude(w, f_test)
            assert abs(20 * np.log10(ratio)) < 0.5

    def test_zero_boost_is_identity_for_passive_response(self):
        rng = np.random.default_rng(11)
        w = SampledWaveform(256e9, rng.normal(size=2048))
        response = 1.0 / (1 + (w.freqs() / 60e9) ** 2)
        out = linear_preemphasis(w, response, max_boost_db=0.0)
        assert nmse_db(w, out) < -150

    def test_zero_response_boosted_to_cap(self):
        rng = np.random.default_rng(12)
        w = SampledWaveform(256e9, rng.normal(size=64))
        resp = np.ones(33)  # the one-sided grid of 64 samples
        resp[20:] = 0.0
        out = linear_preemphasis(w, resp, max_boost_db=20.0)
        gain = out.spectrum / w.spectrum
        assert np.allclose(gain[20:], 10.0) and np.allclose(gain[:20], 1.0)
        for off_grid in (resp[:32], np.ones(64)):
            with pytest.raises(ParameterError):
                linear_preemphasis(w, off_grid, max_boost_db=20.0)


class TestBandPlan:
    def test_invalid_plans_rejected(self):
        with pytest.raises(ParameterError):
            BandPlan(76e9, 75e9, 80e9)  # LO above the crossover
        with pytest.raises(ParameterError):
            BandPlan(160e9, 150e9, 20e9)  # IF edge beyond AWG bandwidth

    def test_sum_image_inside_if_band_rejected(self):
        # the HPF band, from 44 GHz, shifted up by the LO must start at or
        # above the 81-GHz edge of the IF anti-alias lowpass
        BandPlan(45e9, 45e9, 37e9)
        with pytest.raises(ParameterError, match="lo_frequency_hz"):
            BandPlan(45e9, 45e9, 36e9)


class TestBandSplit:
    def make_tone(self, freq, n=65536, rate=512e9):
        from imddsim.sigcore import bin_centered_frequency

        f = bin_centered_frequency(freq, n, rate)
        t = np.arange(n) / rate
        return SampledWaveform(rate, np.cos(2 * np.pi * f * t)), f

    def test_low_tone_goes_to_lower_branch(self):
        w, f = self.make_tone(40e9)
        lower, upper = band_split(w, C_PLAN)
        e_low = np.sum(np.abs(lower.samples) ** 2)
        e_up = np.sum(np.abs(upper.samples) ** 2)
        assert 10 * np.log10(e_up / e_low) < -40

    def test_high_tone_lands_at_if(self):
        w, f = self.make_tone(100e9)
        lower, upper = band_split(w, C_PLAN)
        # 100 GHz - 72 GHz LO = 28 GHz IF, amplitude preserved
        assert abs(tone_amplitude(upper, 28e9) - 1.0) < 0.02
        e_low = np.sum(np.abs(lower.samples) ** 2)
        e_up = np.sum(np.abs(upper.samples) ** 2)
        assert 10 * np.log10(e_low / e_up) < -40

    def test_full_band_signal_fits_awg(self):
        rng = np.random.default_rng(12)
        n, rate = 65536, 512e9
        spec = np.zeros(n, dtype=np.complex128)
        freqs = np.fft.fftfreq(n, 1 / rate)
        sel = (np.abs(freqs) > 0.5e9) & (np.abs(freqs) < 140e9)
        spec[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
        w = SampledWaveform(rate, np.fft.ifft(spec).real)
        lower, upper = band_split(w, C_PLAN)
        assert occupied_bandwidth(lower, 0.999) <= 80e9
        assert occupied_bandwidth(upper, 0.999) <= 80e9
        assert lower.sample_rate_hz == upper.sample_rate_hz == 256e9

    def test_complex_input_rejected(self):
        w = SampledWaveform(512e9, np.exp(2j * np.pi * np.arange(1024) / 8),
                            "optical_field")
        with pytest.raises(ParameterError):
            band_split(w, C_PLAN)

    @pytest.mark.parametrize("n, rate", [(4096, 512e9), (4095, 384e9)])
    def test_upper_band_matches_analytic_signal(self, n, rate):
        # the IF is Re{hilbert(HPF x) exp(-j 2 pi f_LO t)}, AA-filtered and
        # resampled; a 6-GHz crossover puts HPF content below the 72-GHz
        # LO, which the down-shift folds back through DC
        from scipy import signal

        plan = BandPlan(73e9, 72e9, 72e9, crossover_transition_hz=6e9)
        x = np.random.default_rng(n).normal(size=n)
        hp = 1.0 - filter_response(plan.crossover_hz, 6e9, n, rate)
        bins = np.arange(n)
        hp_full = hp[np.minimum(bins, n - bins)]  # even in f
        analytic = signal.hilbert(np.fft.ifft(np.fft.fft(x) * hp_full).real)
        k = int(round(plan.lo_frequency_hz * n / rate))
        if_t = (analytic * np.exp(-2j * np.pi * (k * bins % n) / n)).real
        aa = filter_response(plan.awg_bandwidth_hz, 2e9, n, rate)
        ref = signal.resample(np.fft.irfft(np.fft.rfft(if_t) * aa, n),
                              round(n * plan.awg_rate_hz / rate))
        _, upper = band_split(SampledWaveform(rate, x), plan)
        assert np.max(np.abs(upper.real - ref)) <= 1e-12 * np.max(np.abs(ref))

    @hands_off
    def test_frees_the_record_it_is_handed(self):
        # the record is built inside the call, so only band_split holds it,
        # and it goes once both bands are formed from its spectrum; each
        # intermediate goes after its last read and the LO images share one
        # array: 3.60 spectra of the input's size at the peak, 8.10 with the
        # record, the crossover, the unresampled lower band, the highpass
        # band and both LO images all held to the end
        n, rate = 27 * 4096, 432e9
        bins = n // 2 + 1
        rng = np.random.default_rng(31)
        peak = traced_peak(lambda: band_split(
            SampledWaveform.from_spectrum(rate, rng.normal(size=2 * bins).view(complex), n),
            C_PLAN))
        assert peak < 4.5 * 16 * bins

