import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps
from scipy.special import logsumexp
from scipy.stats import norm

from conftest import bin_centered_frequency, tone_amplitude, traced_peak
from imddsim import rxdsp
from imddsim.errors import NoRateError, ParameterError, SyncError
from imddsim.frontend import ANALOG_BESSEL_ORDER
from imddsim.rxdsp import (
    CSV_HEADER,
    FFE_RIDGE,
    LLR_CAP,
    MetricsReport,
    RateTable,
    decide_and_ber,
    digitize,
    ffe_train_apply,
    gmi_ngmi,
    llr_compute,
    nearest_level_variance,
    net_bitrate_ps,
    photodetect,
    required_code_rate,
    score_symbols,
    symbol_metric,
    synchronize,
)
from imddsim.shaping import (
    PamAlphabet,
    SymbolDistribution,
    SymbolFrame,
    entropy_bits,
    maxwell_boltzmann,
    uniform_frame,
)
from imddsim.sigcore import (
    SampledWaveform,
    apply_filter,
    bessel_response,
    nmse_db,
    resample,
)
from imddsim.txdsp import rrc_upsample

RATE = 512e9


class TestPhotodetect:
    def test_square_law_constant(self):
        p = 4.0
        fld = SampledWaveform(RATE, np.full(256, np.sqrt(p)), "optical_field")
        out = photodetect(fld)
        assert np.allclose(out.real, p, rtol=1e-9)
        assert out.domain_tag == "electrical"

    def test_two_tone_beat(self):
        n = 16384
        f1 = bin_centered_frequency(10e9, n, RATE)
        f2 = bin_centered_frequency(25e9, n, RATE)
        t = np.arange(n) / RATE
        a = 0.5
        fld = SampledWaveform(
            RATE, a * np.exp(2j * np.pi * f1 * t) + a * np.exp(2j * np.pi * f2 * t),
            "optical_field",
        )
        out = photodetect(fld)
        # |E|^2 = 2a^2 + 2a^2 cos(2 pi (f2-f1) t)
        assert abs(tone_amplitude(out, f2 - f1) - 2 * a**2) < 1e-6
        assert abs(np.mean(out.real) - 2 * a**2) < 1e-9

    def test_nonnegative_before_filter(self):
        rng = np.random.default_rng(0)
        fld = SampledWaveform(
            RATE, rng.normal(size=512) + 1j * rng.normal(size=512), "optical_field"
        )
        out = photodetect(fld)
        assert np.min(out.real) > -1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1 << 12, (1 << 12) + 1])
    def test_spectrum_held_field_matches_ifft(self, n):
        # a field with spectrum S is detected by two irffts of its Hermitian
        # and anti-Hermitian parts; odd, even and one-bin records meet the
        # conjugate mirror differently. The whole stage is |ifft(S)|^2,
        # compared as samples, and its spectrum is their rfft
        rng = np.random.default_rng(n)
        spectrum = rng.normal(size=n) + 1j * rng.normal(size=n)
        fld = SampledWaveform.from_spectrum(RATE, spectrum, n, "optical_field")
        reference = np.abs(np.fft.ifft(spectrum)) ** 2
        current = rxdsp._intensity(spectrum)
        assert np.max(np.abs(current - reference)) <= 1e-12 * np.max(reference)
        out = photodetect(fld)
        assert out.spectrum.tobytes() == np.fft.rfft(current).tobytes()
        assert np.max(np.abs(out.real - reference)) <= 1e-12 * np.max(reference)

    def test_frees_the_field_it_is_handed(self):
        # the field is built inside the call, so its spectrum goes once its
        # Hermitian parts are formed: 2.00 records of the field at the peak,
        # with the noise draw or the photocurrent's spectrum beside the samples
        n = 1 << 16
        rng = np.random.default_rng(10)
        peak = traced_peak(lambda: photodetect(
            SampledWaveform.from_spectrum(RATE, rng.normal(size=2 * n).view(complex), n,
                                          "optical_field"),
            1e-22, seed=4))
        assert peak < 2.5 * 16 * n

    def test_seeded_noise_deterministic(self):
        fld = SampledWaveform(RATE, np.ones(512), "optical_field")
        a = photodetect(fld, thermal_noise_density=1e-22, seed=5)
        b = photodetect(fld, thermal_noise_density=1e-22, seed=5)
        assert np.array_equal(a.samples, b.samples)


class TestDigitize:
    def test_inband_tone_follows_response(self):
        n = 16384
        f = bin_centered_frequency(90e9, n, RATE)
        t = np.arange(n) / RATE
        w = SampledWaveform(RATE, np.cos(2 * np.pi * f * t))
        out = digitize(w, rate_hz=256e9, bandwidth_hz=113e9)
        # oracle: evaluate the 4th-order Bessel magnitude at the tone
        b, a = sps.bessel(4, 2 * np.pi * 113e9, btype="low", analog=True, norm="mag")
        _, h = sps.freqs(b, a, worN=[2 * np.pi * f])
        got = tone_amplitude(out, f)
        assert abs(20 * np.log10(got / abs(h[0]))) < 0.1

    def test_transparent_path_invertible(self):
        rng = np.random.default_rng(1)
        n = 8192
        freqs = np.fft.fftfreq(n, 1 / RATE)
        spec = np.zeros(n, dtype=complex)
        sel = np.abs(freqs) < 0.8 * 128e9
        spec[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
        w = SampledWaveform(RATE, np.fft.ifft(spec).real)
        out = digitize(w, rate_hz=256e9, bandwidth_hz=1e15)
        back = digitize(out, rate_hz=RATE, bandwidth_hz=1e15)
        assert nmse_db(w, back) < -40

    @pytest.mark.parametrize("n, rate", [
        (8192, RATE / 2), (8190, RATE / 2), (6141, RATE * 2 / 3),
        (4095, RATE), (4096, RATE), (4096, 2 * RATE), (4095, 2 * RATE),
    ])
    def test_kept_bins_equal_the_full_grid_photodiode(self, n, rate):
        # the photodiode and scope filters multiply only the bins the
        # resample keeps, byte-equal to the photodiode filtering the whole
        # photocurrent's spectrum first, out of place into its response, and
        # the scope then filtering its kept bins: odd and even records, with
        # the scope below, at and above the analog rate
        rng = np.random.default_rng(n)
        fld = SampledWaveform.from_spectrum(
            RATE, rng.normal(size=n) + 1j * rng.normal(size=n), n, "optical_field")
        current = photodetect(fld, 1e-22, seed=3)
        pd = bessel_response(np.fft.rfftfreq(n, 1 / RATE), 100e9, ANALOG_BESSEL_ORDER)
        np.multiply(current.spectrum, pd, out=pd)
        expect = digitize(SampledWaveform.from_spectrum(RATE, pd, n), rate, 113e9)
        got = digitize(current, rate, 113e9, pd_bandwidth_hz=100e9)
        assert got.n == expect.n
        assert got.spectrum.tobytes() == expect.spectrum.tobytes()

    @pytest.mark.parametrize("n", [8192, 8190])
    def test_filter_precedes_the_resample(self, n):
        # the scope filter is formed on the bins the resample keeps, and
        # multiplies them before the resample folds the output Nyquist bin
        w = SampledWaveform(RATE, np.random.default_rng(n).normal(size=n))
        expect = resample(apply_filter(w, bessel_response(w.freqs(), 100e9, 4)), 256e9)
        assert digitize(w, 256e9, 100e9).spectrum.tobytes() == expect.spectrum.tobytes()

    def test_8bit_sine_sndr(self):
        n = 65536
        f = bin_centered_frequency(20e9, n, 256e9)
        t = np.arange(n) / 256e9
        w = SampledWaveform(256e9, np.sin(2 * np.pi * f * t))
        out = digitize(w, rate_hz=256e9, bandwidth_hz=1e15, resolution_bits=8)
        err = out.real - w.real
        sndr = 10 * np.log10(np.mean(w.real**2) / np.mean(err**2))
        assert abs(sndr - 49.9) < 3.0


class TestSynchronize:
    def make_link_wave(self, delay_samples=0.0, n_sym=2048, seed=2):
        rng = np.random.default_rng(seed)
        levels = np.arange(-7, 8, 2) / np.sqrt(21)
        sym = levels[rng.integers(0, 8, n_sym)]
        wave = rrc_upsample(sym, 2, 0.1, 100e9)
        if delay_samples:
            freqs = np.fft.fftfreq(wave.n)
            shifted = np.fft.ifft(
                np.fft.fft(wave.samples) * np.exp(-2j * np.pi * freqs * delay_samples)
            ).real
            wave = wave.with_samples(shifted)
        return wave, sym

    def test_zero_delay(self):
        wave, sym = self.make_link_wave()
        aligned, delay = synchronize(wave, sym[:256])
        assert abs(delay) < 0.02

    def test_known_fractional_delay(self):
        wave, sym = self.make_link_wave(delay_samples=137.5)
        aligned, delay = synchronize(wave, sym[:256])
        assert abs(delay - 137.5) < 0.2
        # re-timed record matches the undelayed one
        ref, _ = self.make_link_wave()
        assert nmse_db(ref, aligned) < -35

    def test_aligned_record_is_mean_free(self):
        wave, sym = self.make_link_wave(delay_samples=40.0)
        biased, delay = synchronize(wave.with_samples(wave.real + 0.7), sym[:256])
        plain, _ = synchronize(wave, sym[:256])
        assert biased.spectrum[0] == 0
        assert abs(delay - 40.0) < 0.2
        assert np.allclose(plain.real, biased.real, atol=1e-12)

    def test_pure_noise_fails(self):
        rng = np.random.default_rng(3)
        wave = SampledWaveform(100e9, rng.normal(size=4096))
        with pytest.raises(SyncError):
            synchronize(wave, rng.normal(size=256))


def reference_ffe(received, reference, tap_count, train_fraction):
    """Oracle: the ridge-regularised least-squares taps as the plain least
    squares solution of the training windows stacked on sqrt(ridge) * I,
    one window per training symbol. Returns (equalized symbols, taps)."""
    x = np.asarray(received, dtype=float)
    n_sym = min(x.size // 2, len(reference))
    half = (tap_count - 1) // 2
    xp = np.concatenate([x[-half:], x, x[:tap_count]])
    windows = np.array([xp[2 * k: 2 * k + tap_count] for k in range(n_sym)])
    n_train = int(n_sym * train_fraction)
    v = windows[:n_train]
    ridge = FFE_RIDGE * np.sum(v * v) / tap_count
    a = np.vstack([v, np.sqrt(ridge) * np.eye(tap_count)])
    b = np.concatenate([reference[:n_train], np.zeros(tap_count)])
    w = np.linalg.lstsq(a, b, rcond=None)[0]
    return windows[n_train:] @ w, w


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _frames(n, seed):
    """(soft symbols, frame) on uniform PAM8 and on PS-PAM12 (nu = 1), with
    noise at a quarter of the level spacing."""
    rng = np.random.default_rng(seed)
    out = []
    for alpha, dist in ((PamAlphabet.uniform(8), SymbolDistribution.uniform(8)),
                        (PamAlphabet.pam12(), maxwell_boltzmann(1.0, PamAlphabet.pam12()))):
        frame = SymbolFrame(rng.choice(alpha.size, n, p=dist.probabilities), alpha, dist)
        step = alpha.levels[1] - alpha.levels[0]
        out.append((frame.levels() + rng.normal(0, 0.25 * step, n), frame))
    return out


class TestFfe:
    def make_2sps(self, symbols, channel=None, snr_db=None, seed=0, rolloff=0.1):
        s = symbols if channel is None else np.convolve(symbols, channel, "full")[: symbols.size]
        wave = rrc_upsample(s, 2, rolloff, 100e9)
        x = wave.real
        if snr_db is not None:
            rng = np.random.default_rng(seed)
            sigma = np.sqrt(np.mean(x**2) / 10 ** (snr_db / 10))
            x = x + rng.normal(0, sigma, x.size)
        return x

    def test_identity_noiseless(self):
        rng = np.random.default_rng(4)
        levels = np.arange(-3, 4, 2) / np.sqrt(5)
        sym = levels[rng.integers(0, 4, 1 << 14)]
        # rolloff 0.25 keeps the pulse tail inside the 31-tap window
        x = self.make_2sps(sym, rolloff=0.25)
        eq, state = ffe_train_apply(x, sym, tap_count=31, train_fraction=0.4)
        ref = sym[state.training_symbols:]
        assert 10 * np.log10(np.mean((eq - ref) ** 2) / np.mean(ref**2)) < -40

    def test_isi_channel_improvement(self):
        rng = np.random.default_rng(5)
        levels = np.arange(-3, 4, 2) / np.sqrt(5)
        sym = levels[rng.integers(0, 4, 1 << 14)]
        x = self.make_2sps(sym, channel=[1.0, 0.5], snr_db=25.0, seed=6)
        eq, state = ffe_train_apply(x, sym, tap_count=31, train_fraction=0.2)
        k = np.arange(state.training_symbols, sym.size)
        ref = sym[k]
        mse_eq = np.mean((eq - ref) ** 2)

        # unequalized: the T-spaced input scaled to the reference power
        raw = x[2 * k] * np.sqrt(np.mean(sym**2) / np.mean(x**2))
        mse_raw = np.mean((raw - ref) ** 2)
        assert 10 * np.log10(mse_raw / mse_eq) >= 10.0

    def test_even_taps_rejected(self):
        with pytest.raises(ParameterError):
            ffe_train_apply(np.zeros(4096), np.zeros(2048), tap_count=30,
                            train_fraction=0.2)

    @pytest.mark.parametrize("passes", [0, 2, 4])
    def test_train_passes_other_than_one_rejected(self, passes):
        with pytest.raises(ParameterError, match="train_passes"):
            ffe_train_apply(np.ones(4096), np.ones(2048), tap_count=31,
                            train_fraction=0.2, train_passes=passes)

    def test_training_span_shorter_than_taps_rejected(self):
        with pytest.raises(ParameterError, match="training symbols"):
            ffe_train_apply(np.ones(4096), np.ones(2048), tap_count=31,
                            train_fraction=0.01)

    @settings(max_examples=40, deadline=None)
    @given(taps=st.integers(0, 31).map(lambda k: 2 * k + 1),
           n_sym=st.integers(260, 1200),
           fraction=st.floats(0.05, 0.6),
           seed=st.integers(0, 2**32 - 1))
    @example(taps=63, n_sym=1000, fraction=0.3, seed=1)
    @example(taps=1, n_sym=300, fraction=0.5, seed=2)
    def test_taps_match_least_squares_oracle(self, taps, n_sym, fraction, seed):
        n_train = int(n_sym * fraction)
        if n_sym < 4 * taps or n_train < taps:
            return
        rng = np.random.default_rng(seed)
        sym = rng.normal(size=n_sym)
        channel = np.concatenate([[1.0], rng.uniform(-0.5, 0.5, 4)])
        x = np.convolve(np.repeat(sym, 2), channel)[: 2 * n_sym]
        x = x + 0.05 * rng.normal(size=x.size)
        ref_eq, ref_taps = reference_ffe(x, sym, taps, fraction)
        eq, state = ffe_train_apply(x, sym, taps, fraction)
        assert state.training_symbols == n_train
        # normal equations against an SVD least-squares solve: they agree to
        # about 2e-12 here, as the ridge keeps the condition number finite
        assert _max_rel(state.taps, ref_taps) <= 1e-9
        assert _max_rel(eq, ref_eq) <= 1e-9

    def test_final_mse_finite(self):
        rng = np.random.default_rng(18)
        sym = rng.normal(size=1 << 12)
        x = self.make_2sps(sym)
        _, state = ffe_train_apply(x, sym, tap_count=31, train_fraction=0.2)
        assert np.isfinite(state.final_mse)
        assert state.taps.size == 31


def _ffe_shift_gram(xp, train):
    """Oracle: the FFE's single-family shift recursion, as the equalizer
    first wrote it (before the routine was shared with the Volterra fit)."""
    n, taps = train.shape
    gram = np.empty((taps, taps))
    gram[:2] = np.einsum("ki,kj->ij", train[:, :2], train)
    gram[1:2, 0] = gram[0, 1:2]
    gram[2:, :2] = gram[:2, 2:].T
    head, tail = xp[:taps], xp[2 * n: 2 * n + taps]
    step = np.multiply.outer(tail, tail) - np.multiply.outer(head, head)
    for i in range(taps - 2):
        gram[i + 2, 2:] = gram[i, :-2] + step[i, :-2]
    return gram


class TestFfeGram:
    """The normal equations without BLAS: the shift-recursion Gram against
    a direct V^T V, and the blocked solve against one LAPACK solve."""

    @staticmethod
    def windows(taps, n_train, seed):
        rng = np.random.default_rng(seed)
        half = (taps - 1) // 2
        x = rng.normal(size=2 * (n_train + 4 * taps))
        xp = np.concatenate([x[x.size - half:], x, x[:taps]])
        train = np.lib.stride_tricks.sliding_window_view(xp, taps)[: 2 * n_train: 2]
        return xp, train

    @settings(max_examples=60, deadline=None)
    @given(taps=st.integers(0, 31).map(lambda k: 2 * k + 1),
           n_train=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    @example(taps=63, n_train=63, seed=1)
    @example(taps=1, n_train=1, seed=2)
    @example(taps=3, n_train=2, seed=3)
    def test_shift_recursion_matches_direct_gram(self, taps, n_train, seed):
        xp, train = self.windows(taps, n_train, seed)
        direct = np.ascontiguousarray(train).T @ np.ascontiguousarray(train)
        gram = rxdsp._shift_gram([xp], [taps], n_train, 2)
        assert _max_rel(gram, direct) <= 1e-12
        assert np.array_equal(gram, gram.T)

    @settings(max_examples=40, deadline=None)
    @given(taps=st.integers(0, 60).map(lambda k: 2 * k + 1),
           n_train=st.integers(1, 400),
           seed=st.integers(0, 2**32 - 1))
    @example(taps=101, n_train=13122, seed=4)
    def test_one_family_at_hop_2_is_the_ffe_gram(self, taps, n_train, seed):
        # the shared routine runs the FFE's own sums in the FFE's own order
        xp, train = self.windows(taps, n_train, seed)
        gram = rxdsp._shift_gram([xp], [taps], n_train, 2)
        assert np.array_equal(gram, _ffe_shift_gram(xp, train))

    @pytest.mark.parametrize("size", [1, 95, 96, 97, 101, 193, 250])
    def test_blocked_solve_matches_lapack(self, size):
        rng = np.random.default_rng(size)
        v = rng.normal(size=(2 * size, size))
        a = v.T @ v + 1e-3 * size * np.eye(size)
        b = rng.normal(size=size)
        # a condition number below 1e4, so both solves agree to ~1e-12
        assert _max_rel(rxdsp._solve_spd(a, b), np.linalg.solve(a, b)) <= 1e-10

    def test_memory_bound(self):
        rng = np.random.default_rng(33)
        x, sym = rng.normal(size=131220), rng.normal(size=65610)
        tracemalloc.start()
        try:
            ffe_train_apply(x, sym, 101, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 13 122 x 101 training windows alone would take 10.6 MB
        assert peak < 6e6


class TestSymbolMetric:
    def test_rejects_length_mismatch(self):
        rng = np.random.default_rng(18)
        frame = uniform_frame(PamAlphabet.pam12(), 64, rng)
        with pytest.raises(ParameterError, match="equal length"):
            symbol_metric(frame.levels()[:10], frame)

    def test_rows_peak_at_zero(self):
        rng = np.random.default_rng(19)
        alpha = PamAlphabet.pam12()
        frame = SymbolFrame(rng.integers(0, 12, 256), alpha, maxwell_boltzmann(1.0, alpha))
        metric = symbol_metric(frame.levels() + rng.normal(0, 0.1, 256), frame)
        assert metric.shape == (256, 12)
        assert np.array_equal(metric.max(axis=1), np.zeros(256))

    def test_shift_equals_row_maximum(self):
        for y, frame in _frames(3000, 40):
            var = nearest_level_variance(y, frame.alphabet)
            raw = (y[:, None] - frame.alphabet.levels[None, :]) ** 2
            raw /= -2.0 * var
            raw += np.log(frame.distribution.probabilities)
            expect = raw - raw.max(axis=1, keepdims=True)
            assert np.array_equal(symbol_metric(y, frame, var), expect)


class TestNearestLevelVariance:
    @pytest.mark.parametrize("alpha", [PamAlphabet.uniform(2), PamAlphabet.uniform(8),
                                       PamAlphabet.pam12()], ids=["PAM2", "PAM8", "PS-PAM12"])
    def test_equals_minimum_over_all_levels(self, alpha):
        # oracle: the smallest squared distance over every level, samples
        # beyond both outer levels and on every midpoint included
        rng = np.random.default_rng(34)
        mids = (alpha.levels[:-1] + alpha.levels[1:]) / 2
        y = np.concatenate([rng.uniform(-3.0, 3.0, 5000), mids, alpha.levels])
        expect = float(np.mean(((y[:, None] - alpha.levels) ** 2).min(axis=1)))
        assert nearest_level_variance(y, alpha) == expect

    def test_floored_on_noiseless_symbols(self):
        alpha = PamAlphabet.uniform(4)
        assert nearest_level_variance(alpha.levels, alpha) == 1e-30


class TestDecide:
    def test_noiseless_zero_ber(self):
        rng = np.random.default_rng(8)
        frame = uniform_frame(PamAlphabet.uniform(8), 4096, rng)
        ber, hard = decide_and_ber(symbol_metric(frame.levels(), frame), frame)
        assert ber == 0.0
        assert np.array_equal(hard, frame.indices)

    def test_hamming_count_equals_label_comparison(self):
        for y, frame in _frames(5000, 41):
            ber, hard = decide_and_ber(symbol_metric(y, frame), frame)
            expect = float(np.mean(frame.bits() != frame.alphabet.labels[hard]))
            assert 0 < ber == expect

    def test_pam2_q_function(self):
        rng = np.random.default_rng(9)
        n = 1 << 20
        frame = uniform_frame(PamAlphabet.uniform(2), n, rng)
        gamma_db = 7.0
        gamma = 10 ** (gamma_db / 10)
        sigma = 1 / np.sqrt(gamma)
        y = frame.levels() + rng.normal(0, sigma, n)
        ber, _ = decide_and_ber(symbol_metric(y, frame, sigma**2), frame)
        expect = norm.sf(np.sqrt(gamma))
        se = np.sqrt(expect * (1 - expect) / n)
        assert abs(ber - expect) <= 3 * se

    def test_ber_monotone_in_noise(self):
        rng = np.random.default_rng(16)
        n = 1 << 16
        frame = uniform_frame(PamAlphabet.uniform(4), n, rng)
        noise = rng.normal(0, 1.0, n)  # matched noise realization across SNRs
        bers = []
        for snr_db in (8.0, 11.0, 14.0, 17.0, 20.0):
            sigma = np.sqrt(np.mean(frame.levels() ** 2) / 10 ** (snr_db / 10))
            y = frame.levels() + sigma * noise
            ber, _ = decide_and_ber(symbol_metric(y, frame, sigma**2), frame)
            bers.append(ber)
        assert all(b <= a for a, b in zip(bers, bers[1:]))

    def test_uniform_prior_reduces_to_midpoints(self):
        alpha = PamAlphabet.uniform(4)
        frame = SymbolFrame(np.zeros(5, dtype=int), alpha, SymbolDistribution.uniform(4))
        mids = (alpha.levels[:-1] + alpha.levels[1:]) / 2
        eps = 1e-6
        y = np.array([mids[0] - eps, mids[0] + eps, mids[1] + eps, mids[2] + eps,
                      alpha.levels[3] + 1.0])
        _, hard = decide_and_ber(symbol_metric(y, frame, 0.05), frame)
        assert hard.tolist() == [0, 1, 2, 3, 3]


class TestLlr:
    def test_sign_matches_labels_at_low_noise(self):
        rng = np.random.default_rng(10)
        frame = uniform_frame(PamAlphabet.pam12(), 512, rng)
        llr = llr_compute(symbol_metric(frame.levels(), frame, 1e-4), frame)
        bits = frame.bits()
        assert np.all((llr > 0) == (bits == 0))

    def test_pam2_prior_only_at_midpoint(self):
        alpha = PamAlphabet.uniform(2)
        dist = SymbolDistribution(np.array([0.3, 0.7]))
        frame = SymbolFrame(np.array([0]), alpha, dist)
        llr = llr_compute(symbol_metric(np.array([0.0]), frame, 0.1), frame)
        # level -1 carries bit 0: LLR = log(P(-1)/P(+1))
        assert abs(llr[0, 0] - np.log(0.3 / 0.7)) < 1e-12

    def test_pam4_against_brute_force(self):
        alpha = PamAlphabet.uniform(4, normalize=False)  # levels -3,-1,1,3
        frame = SymbolFrame(np.zeros(1, dtype=int), alpha, SymbolDistribution.uniform(4))
        y, var = 0.3, 0.1
        llr = llr_compute(symbol_metric(np.array([y]), frame, var), frame)

        # oracle: direct extended-precision summation, no log-sum-exp tricks
        levels = np.array([-3.0, -1.0, 1.0, 3.0], dtype=np.longdouble)
        weights = np.exp(-((np.longdouble(y) - levels) ** 2) / (2 * np.longdouble(var))) / 4
        for i in range(2):
            zero_set = alpha.labels[:, i] == 0
            expect = float(np.log(weights[zero_set].sum() / weights[~zero_set].sum()))
            assert abs(llr[0, i] - expect) < 1e-9

    def test_bad_variance(self):
        rng = np.random.default_rng(11)
        frame = uniform_frame(PamAlphabet.uniform(4), 16, rng)
        with pytest.raises(ParameterError):
            symbol_metric(frame.levels(), frame, 0.0)

    def test_variance_estimated_when_omitted(self):
        rng = np.random.default_rng(17)
        frame = uniform_frame(PamAlphabet.uniform(4), 1 << 14, rng)
        sigma2 = 0.02
        y = frame.levels() + rng.normal(0, np.sqrt(sigma2), frame.n)
        auto = llr_compute(symbol_metric(y, frame), frame)
        explicit = llr_compute(symbol_metric(y, frame, sigma2), frame)
        # decision-directed estimate lands near truth, so LLRs track closely
        assert np.allclose(auto, explicit, rtol=0.1, atol=0.5)


def reference_llr(y, frame, noise_variance):
    """Oracle: per-bit log-sum-exp over each label set, clipped to the cap."""
    with np.errstate(divide="ignore"):
        log_priors = np.log(frame.distribution.probabilities)
    metric = log_priors[None, :] - (y[:, None] - frame.alphabet.levels[None, :]) ** 2 / (
        2.0 * noise_variance)
    labels = frame.alphabet.labels
    out = np.empty((y.size, frame.alphabet.label_bits))
    for i in range(out.shape[1]):
        zero_set = labels[:, i] == 0
        out[:, i] = (logsumexp(metric[:, zero_set], axis=1)
                     - logsumexp(metric[:, ~zero_set], axis=1))
    return out, metric


class TestLlrMatrixForm:
    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([2, 4, 8, 12]),
           nu=st.floats(0.0, 3.0),
           log10_var=st.floats(-7.0, 1.0),
           spread=st.floats(0.0, 30.0),
           seed=st.integers(0, 2**32 - 1))
    @example(size=12, nu=1.0, log10_var=-6.0, spread=30.0, seed=3)  # far tails
    def test_matches_log_sum_exp(self, size, nu, log10_var, spread, seed):
        alpha = PamAlphabet.pam12() if size == 12 else PamAlphabet.uniform(size)
        dist = maxwell_boltzmann(nu, alpha)
        rng = np.random.default_rng(seed)
        y = rng.uniform(-1.0 - spread, 1.0 + spread, 256)
        frame = SymbolFrame(np.zeros(y.size, dtype=int), alpha, dist)
        var = 10.0**log10_var
        llr = llr_compute(symbol_metric(y, frame, var), frame)
        raw, metric = reference_llr(y, frame, var)
        expect = np.clip(raw, -LLR_CAP, LLR_CAP)
        # both sides inherit the rounding of metrics of size max|metric|
        tol = 1e-13 * max(1.0, float(np.max(np.abs(metric))))
        assert np.all(np.abs(llr - expect) <= tol)
        # beyond the cap the result is the cap itself, underflow or not
        capped = np.abs(raw) >= LLR_CAP
        assert np.array_equal(llr[capped], expect[capped])

    def test_underflow_gives_exact_cap(self):
        alpha = PamAlphabet.pam12()
        frame = SymbolFrame(np.zeros(3, dtype=int), alpha, SymbolDistribution.uniform(12))
        y = np.array([alpha.levels[0] - 20.0, alpha.levels[-1] + 20.0, 0.0])
        raw, _ = reference_llr(y, frame, 1e-4)
        assert np.min(np.abs(raw[:2])) > 745  # exp() of the gap underflows to 0
        llr = llr_compute(symbol_metric(y, frame, 1e-4), frame)
        assert np.array_equal(llr[:2], np.clip(raw[:2], -LLR_CAP, LLR_CAP))
        assert set(np.abs(llr[:2]).ravel()) == {LLR_CAP}


class TestLlrFloor:
    """The metric floor keeps the capped LLRs of the unfloored metric bit
    for bit where ``exp`` underflows to subnormals."""

    @staticmethod
    def unfloored(metric, frame):
        # llr_compute's own product, without the floor
        masks = frame.alphabet.labels.T
        with np.errstate(divide="ignore"):
            sums = np.log(np.vstack([masks == 0, masks == 1]) @ np.exp(metric.T))
        m = masks.shape[0]
        return np.clip(sums[:m] - sums[m:], -LLR_CAP, LLR_CAP).T

    @pytest.mark.parametrize("alpha", [PamAlphabet.uniform(8), PamAlphabet.pam12()],
                             ids=["PAM8", "H3.585"])
    @pytest.mark.parametrize("spacing_sigma", [8.0, 12.0, 40.0])
    def test_bit_identical_where_exp_is_subnormal(self, alpha, spacing_sigma):
        # uniform priors: PAM8 at 3 bits and PS-PAM12 at H = log2(12) = 3.585
        rng = np.random.default_rng(42)
        dist = SymbolDistribution.uniform(alpha.size)
        frame = SymbolFrame(rng.integers(0, alpha.size, 8192), alpha, dist)
        step = alpha.levels[1] - alpha.levels[0]
        y = frame.levels() + rng.normal(0, step / spacing_sigma, frame.n)
        y[:50] = rng.uniform(alpha.levels[0] - step, alpha.levels[-1] + step, 50)
        metric = symbol_metric(y, frame)
        with np.errstate(under="ignore"):
            prob = np.exp(metric)
        assert np.any((prob > 0) & (prob < np.finfo(float).tiny))
        assert np.array_equal(llr_compute(metric, frame), self.unfloored(metric, frame))


class TestGmiNgmi:
    def test_confident_correct_llrs(self):
        rng = np.random.default_rng(12)
        frame = uniform_frame(PamAlphabet.uniform(8), 4096, rng)
        bits = frame.bits()
        llr = np.where(bits == 0, 1e6, -1e6)
        gmi, ngmi = gmi_ngmi(llr, bits, 3.0, 3)
        assert gmi == pytest.approx(3.0)
        assert ngmi == pytest.approx(1.0)

    def test_all_zero_llrs(self):
        rng = np.random.default_rng(13)
        frame = uniform_frame(PamAlphabet.uniform(8), 1024, rng)
        bits = frame.bits()
        gmi, ngmi = gmi_ngmi(np.zeros_like(bits, dtype=float), bits, 3.0, 3)
        assert gmi == pytest.approx(0.0)   # deficit of m = 3 bits
        assert ngmi == pytest.approx(0.0)

    def test_matches_logaddexp_form(self):
        # each term alone, on a grid through both caps and beyond them
        grid = np.concatenate([np.linspace(-60, 60, 481), [-LLR_CAP, LLR_CAP, 0.0]])
        for x in grid:
            for bit in (0, 1):
                gmi, _ = gmi_ngmi(np.array([[x]]), np.array([[bit]]), 0.0, 1)
                sign = 1.0 if bit else -1.0
                term = np.logaddexp(0.0, sign * np.clip(x, -LLR_CAP, LLR_CAP)) / np.log(2.0)
                assert abs(-gmi - term) <= 1e-15 * term
        # and a frame's deficit, summed at once instead of per symbol
        rng = np.random.default_rng(43)
        llr = rng.normal(0.0, 20.0, (4096, 4))
        llr[:64] = rng.choice([-LLR_CAP, LLR_CAP, -80.0, 80.0], (64, 4))
        bits = rng.integers(0, 2, llr.shape)
        sign = np.where(bits == 1, 1.0, -1.0)
        clipped = np.clip(llr, -LLR_CAP, LLR_CAP)
        deficit = np.mean(np.sum(np.logaddexp(0.0, sign * clipped) / np.log(2.0), axis=1))
        gmi, ngmi = gmi_ngmi(llr, bits, 3.2, 4)
        assert abs((3.2 - gmi) - deficit) <= 1e-15 * deficit
        assert type(gmi) is float and type(ngmi) is float

    def test_pam2_awgn_matches_quadrature_oracle(self):
        snr_db = 3.0
        sigma2 = 10 ** (-snr_db / 10)

        # oracle: trapezoidal integration of the bit-metric deficit
        y = np.linspace(-12, 12, 200001)
        llr_y = -2 * y / sigma2          # log P(b0|y)/P(b1|y), level -1 <-> bit 0
        deficit = 0.0
        for x, sign in ((-1.0, -1.0), (1.0, 1.0)):
            pdf = np.exp(-((y - x) ** 2) / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)
            term = np.logaddexp(0.0, sign * np.clip(llr_y, -50, 50)) / np.log(2)
            deficit += 0.5 * np.trapezoid(pdf * term, y)
        oracle_gmi = 1.0 - deficit

        rng = np.random.default_rng(14)
        n = 1 << 20
        frame = uniform_frame(PamAlphabet.uniform(2), n, rng)
        rx = frame.levels() + rng.normal(0, np.sqrt(sigma2), n)
        llr = llr_compute(symbol_metric(rx, frame, sigma2), frame)
        gmi, ngmi = gmi_ngmi(llr, frame.bits(), 1.0, 1)
        assert abs(gmi - oracle_gmi) < 0.01
        assert 0.0 <= ngmi <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(15)
        alpha = PamAlphabet.uniform(4)
        frame = uniform_frame(alpha, 2048, rng)
        sigma2 = 0.05
        y = frame.levels() + rng.normal(0, np.sqrt(sigma2), 2048)
        llr_a = llr_compute(symbol_metric(y, frame, sigma2), frame)

        scale = 3.7
        alpha_s = PamAlphabet(alpha.levels * scale, alpha.labels)
        frame_s = SymbolFrame(frame.indices, alpha_s, frame.distribution)
        metric_s = symbol_metric(scale * y, frame_s, scale**2 * sigma2)
        llr_b = llr_compute(metric_s, frame_s)
        assert np.allclose(llr_a, llr_b, rtol=1e-9, atol=1e-9)


class TestScoreBlocks:
    """Block edges: scoring over many short blocks gives the BER, GMI and
    NGMI of the whole record scored at once."""

    @pytest.fixture(params=[100, 257], ids=["block100", "block257"])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(rxdsp, "_SCORE_BLOCK", request.param)
        return request.param

    @staticmethod
    def record(n):
        rng = np.random.default_rng(35)
        alpha = PamAlphabet.pam12()
        dist = maxwell_boltzmann(1.0, alpha)
        frame = SymbolFrame(rng.choice(alpha.size, n, p=dist.probabilities), alpha, dist)
        step = alpha.levels[1] - alpha.levels[0]
        return frame.levels() + rng.normal(0, 0.2 * step, n), frame

    def test_matches_one_block(self, block):
        y, frame = self.record(3001)
        rep = score_symbols(y, frame, RateTable.default(), 216.0, 7)
        metric = symbol_metric(y, frame)
        ber, _ = decide_and_ber(metric, frame)
        gmi, ngmi = gmi_ngmi(llr_compute(metric, frame), frame.bits(),
                             entropy_bits(frame.distribution), 4)
        assert 0 < rep.ber == ber
        assert abs(rep.gmi_bits - gmi) < 1e-12
        assert abs(rep.ngmi - ngmi) < 1e-12
        assert rep.required_code_rate == required_code_rate(ngmi, RateTable.default())
        # the report's repr is part of the thread-invariance contract
        assert all(type(getattr(rep, f)) is float for f in (
            "ber", "gmi_bits", "ngmi", "required_code_rate", "achievable_bitrate_gbps",
            "net_bitrate_gbps", "entropy_bits"))

    def test_rejects_length_mismatch(self):
        # blocks taken along the frame would otherwise drop the extra sample
        y, frame = self.record(300)
        with pytest.raises(ParameterError, match="equal length"):
            score_symbols(np.append(y, 0.0), frame, RateTable.default(), 216.0, 7)

    def test_memory_bound(self):
        y, frame = self.record(52488)
        tracemalloc.start()
        try:
            score_symbols(y, frame, RateTable.default(), 216.0, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # scoring in one block holds several 52 488 x 12 arrays of 5 MB each
        assert peak < 6e6


class TestRateTable:
    def test_default_table_valid(self):
        t = RateTable.default()
        assert t.rates[0] == pytest.approx(0.60)
        assert t.ngmi_thresholds[-1] == pytest.approx(0.97)

    def test_max_rate_at_perfect_ngmi(self):
        t = RateTable.default()
        assert required_code_rate(1.0, t) == pytest.approx(0.95)

    def test_below_table_raises(self):
        with pytest.raises(NoRateError):
            required_code_rate(0.5, RateTable.default())

    def test_interpolation_case(self):
        t = RateTable(np.array([0.8, 0.9]), np.array([0.85, 0.93]))
        assert required_code_rate(0.89, t) == pytest.approx(0.85)

    def test_threshold_below_rate_rejected(self):
        with pytest.raises(ParameterError):
            RateTable(np.array([0.8, 0.9]), np.array([0.75, 0.93]))


class TestBitrates:
    def test_ps_formula(self):
        assert net_bitrate_ps(3.5, 1.0, 216.0) == pytest.approx(756.0)
        assert net_bitrate_ps(3.8, 0.9, 216.0) == pytest.approx(734.4)

    def test_uniform_formula(self):
        # H = m = 3 (uniform PAM8) gives the paper's 3RB
        assert net_bitrate_ps(3.0, 1.0, 216.0, label_bits=3) == pytest.approx(648.0)

    def test_overparity_clamps(self):
        with pytest.warns(UserWarning):
            assert net_bitrate_ps(1.0, 0.5, 216.0) == 0.0

    def test_monotone_in_h_and_r(self):
        vals_h = [net_bitrate_ps(h, 0.9, 216.0) for h in (2.5, 3.0, 3.5)]
        vals_r = [net_bitrate_ps(3.5, r, 216.0) for r in (0.7, 0.85, 1.0)]
        assert vals_h == sorted(vals_h)
        assert vals_r == sorted(vals_r)


class TestMetricsReport:
    def make(self):
        return MetricsReport(
            ber=1e-3, gmi_bits=3.4, ngmi=0.95, required_code_rate=0.9,
            achievable_bitrate_gbps=712.8, net_bitrate_gbps=670.0,
            symbol_rate_gbd=216.0, entropy_bits=3.5, label_bits=4, seed=7,
        )

    def test_csv_round_trip(self):
        rep = self.make()
        row = rep.to_csv_row()
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
        back = MetricsReport.from_csv_row(row)
        assert back.to_csv_row() == row
        assert back.label_bits == 4 and back.seed == 7

    def test_achievable_above_entropy_rate_rejected(self):
        # PAM6 priced by the PAM8 formula: 3 * 216 against H * B = 558.35
        with pytest.raises(ParameterError):
            MetricsReport(
                ber=0.0, gmi_bits=np.log2(6), ngmi=1.0, required_code_rate=1.0,
                achievable_bitrate_gbps=648.0, net_bitrate_gbps=648.0,
                symbol_rate_gbd=216.0, entropy_bits=np.log2(6), label_bits=3, seed=3,
            )

    @pytest.mark.parametrize("h_bits, baud", [(2.0261963023127185, 216.0),
                                              (3.446717589985189, 215.123456)])
    def test_transparent_row_survives_csv(self, h_bits, baud):
        # H and the bitrate keep 9 significant digits and B keeps 6, so H * B
        # recomputed from the row can fall below the rounded bitrate
        rep = MetricsReport(
            ber=0.0, gmi_bits=h_bits, ngmi=1.0, required_code_rate=1.0,
            achievable_bitrate_gbps=h_bits * baud, net_bitrate_gbps=h_bits * baud,
            symbol_rate_gbd=baud, entropy_bits=h_bits, label_bits=4, seed=1,
        )
        row = MetricsReport.from_csv_row(rep.to_csv_row())
        assert row.achievable_bitrate_gbps > row.entropy_bits * row.symbol_rate_gbd

    def test_net_above_achievable_rejected(self):
        with pytest.raises(ParameterError):
            MetricsReport(
                ber=0.0, gmi_bits=3.5, ngmi=0.99, required_code_rate=0.95,
                achievable_bitrate_gbps=700.0, net_bitrate_gbps=701.0,
                symbol_rate_gbd=216.0, entropy_bits=3.5, label_bits=4, seed=0,
            )
