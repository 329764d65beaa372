import numpy as np
import pytest
from scipy import signal as sps
from scipy import special

from imddsim import sigcore
from imddsim.errors import ParameterError
from imddsim.sigcore import (
    SampledWaveform,
    apply_filter,
    bessel_response,
    design_rrc,
    filter_response,
    fir_response,
    nmse_db,
    resample,
    tone_amplitude,
)

RATE = 512e9


def lowpass(wave, cutoff_hz, transition_hz=2e9):
    return filter_response(cutoff_hz, transition_hz, wave.n, wave.sample_rate_hz)


def tone(freq_hz, n=8192, rate=RATE, amp=1.0):
    t = np.arange(n) / rate
    f = sigcore.bin_centered_frequency(freq_hz, n, rate)
    return SampledWaveform(rate, amp * np.cos(2 * np.pi * f * t)), f


def bandlimited_noise(n, rate, f_max, seed=0):
    rng = np.random.default_rng(seed)
    spec = np.zeros(n, dtype=np.complex128)
    freqs = np.fft.fftfreq(n, d=1.0 / rate)
    sel = np.abs(freqs) <= f_max
    spec[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
    x = np.fft.ifft(spec)
    return SampledWaveform(rate, x.real)


class TestSampledWaveform:
    def test_rejects_bad_rate_and_empty(self):
        with pytest.raises(ParameterError):
            SampledWaveform(0.0, [1.0])
        with pytest.raises(ParameterError):
            SampledWaveform(1e9, [])

    def test_electrical_must_be_real(self):
        with pytest.raises(ParameterError):
            SampledWaveform(1e9, np.array([1.0 + 0.5j, 2.0]), "electrical")
        w = SampledWaveform(1e9, np.array([1.0, 2.0]) + 1e-15j, "electrical")
        assert np.all(w.samples.imag == 0)

    def test_optical_may_be_complex(self):
        w = SampledWaveform(1e9, np.array([1.0 + 1.0j]), "optical_field")
        assert w.samples[0] == 1.0 + 1.0j


class TestDesignRrc:
    def test_symmetry(self):
        taps = design_rrc(0.01, 64, 2)
        assert len(taps) % 2 == 1
        assert np.allclose(taps, taps[::-1], atol=1e-15)

    def test_dc_gain_is_unity(self):
        for rolloff, sps in [(0.01, 2), (0.25, 4), (0.5, 8)]:
            taps = design_rrc(rolloff, 32, sps)
            assert abs(np.sum(taps) / sps - 1.0) < 1e-6

    def test_half_symbol_rate_response(self):
        # closed-form RRC spectrum: |H(1/2T)| = 1/sqrt(2)
        sps = 4
        taps = design_rrc(0.25, 64, sps)
        k = np.arange(len(taps))
        h_half = np.sum(taps * np.exp(-2j * np.pi * (0.5 / sps) * k))
        assert abs(np.abs(h_half) / sps - 1 / np.sqrt(2)) < 1e-3

    def test_zero_isi_when_convolved_with_itself(self):
        sps = 2
        taps = design_rrc(0.1, 32, sps)
        rc = np.convolve(taps, taps)
        center = (len(rc) - 1) // 2
        main = rc[center]
        isi = rc[center % sps::sps].copy()
        isi[center // sps] = 0.0
        assert 20 * np.log10(np.max(np.abs(isi)) / main) < -50

    def test_zero_rolloff_is_sinc(self):
        taps = design_rrc(0.0, 16, 2)
        t = (np.arange(len(taps)) - (len(taps) - 1) / 2) / 2
        expect = np.sinc(t)
        expect *= 2 / np.sum(expect)
        assert np.allclose(taps, expect, atol=1e-12)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            design_rrc(-0.1, 8, 2)
        with pytest.raises(ParameterError):
            design_rrc(1.5, 8, 2)
        with pytest.raises(ParameterError):
            design_rrc(0.1, 0, 2)


class TestApplyFilter:
    def test_allpass_identity(self):
        w = bandlimited_noise(4096, RATE, 200e9, seed=1)
        out = apply_filter(w, fir_response(np.array([1.0]), w.n))
        assert nmse_db(w, out) < -90

    def test_inband_tone_preserved(self):
        w, f = tone(10e9)
        out = apply_filter(w, lowpass(w, 80e9))
        ratio_db = 20 * np.log10(tone_amplitude(out, f) / tone_amplitude(w, f))
        assert abs(ratio_db) < 0.1

    def test_stopband_tone_rejected(self):
        w, f = tone(100e9)
        out = apply_filter(w, lowpass(w, 80e9))
        ratio_db = 20 * np.log10(tone_amplitude(out, f) / tone_amplitude(w, f) + 1e-30)
        assert ratio_db < -40

    def test_cutoff_at_nyquist_rejected(self):
        w, _ = tone(10e9)
        with pytest.raises(ParameterError):
            lowpass(w, 300e9)
        with pytest.raises(ParameterError):
            lowpass(w, 0.0)

    def test_linearity(self):
        x = bandlimited_noise(2048, RATE, 150e9, seed=2)
        y = bandlimited_noise(2048, RATE, 150e9, seed=3)
        h = lowpass(x, 90e9)
        lhs = apply_filter(
            SampledWaveform(RATE, 2.5 * x.samples.real + 0.7 * y.samples.real), h
        )
        rhs = 2.5 * apply_filter(x, h).samples + 0.7 * apply_filter(y, h).samples
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs.samples - rhs)) / scale < 1e-10

    def test_phase_only_response_preserves_energy(self):
        w = bandlimited_noise(4096, RATE, 200e9, seed=4)
        # odd phase in f: a conjugate-symmetric response, as real stages use
        phase = 0.3 * np.sin(2 * np.pi * w.freqs() / RATE)
        out = w.with_spectrum(w.spectrum * np.exp(1j * phase))
        e_in = np.sum(np.abs(w.samples) ** 2)
        e_out = np.sum(np.abs(out.samples) ** 2)
        assert abs(e_out - e_in) / e_in < 1e-9

    def test_complementary_highpass(self):
        # lowpass + highpass at the same cutoff reconstructs exactly
        w = bandlimited_noise(4096, RATE, 220e9, seed=5)
        lo = apply_filter(w, lowpass(w, 76e9))
        hi = apply_filter(w, 1.0 - lowpass(w, 76e9))
        assert nmse_db(w, SampledWaveform(RATE, lo.real + hi.real)) < -120

    def test_fir_taps_zero_delay(self):
        w = bandlimited_noise(4096, RATE, 100e9, seed=6)
        taps = design_rrc(0.1, 16, 2)
        out = apply_filter(w, fir_response(taps, w.n))
        # symmetric taps, compensated: peak correlation at zero lag
        corr = np.fft.ifft(
            np.fft.fft(out.samples) * np.conj(np.fft.fft(w.samples))
        ).real
        assert np.argmax(corr) == 0

    def test_response_off_grid_rejected(self):
        w = bandlimited_noise(4096, RATE, 100e9, seed=8)
        with pytest.raises(ParameterError):
            apply_filter(w, np.ones(w.n // 2))
        with pytest.raises(ParameterError):
            fir_response(np.array([]), w.n)
        with pytest.raises(ParameterError):
            fir_response(np.ones(w.n + 1), w.n)

    def test_bessel_is_a_real_lowpass(self):
        n = 4096
        h = bessel_response(np.fft.fftfreq(n, 1 / RATE), 60e9, 4)
        # conjugate symmetric about DC, so a real input stays real
        assert np.array_equal(h[1: n // 2], np.conj(h[n // 2 + 1:][::-1]))
        assert h[0] == pytest.approx(1.0)
        edge = bessel_response(np.array([60e9]), 60e9, 4)[0]
        assert 20 * np.log10(abs(edge)) == pytest.approx(-3.0, abs=0.02)
        with pytest.raises(ParameterError):
            bessel_response(h, 0.0, 4)


class TestMatchesScipyDesigns:
    """The numpy filter designs reproduce the scipy.signal designs they
    replace bit for bit, so run outputs do not depend on which is used."""

    @pytest.mark.parametrize("n", [77760, 131220, 155520])
    @pytest.mark.parametrize("order", [2, 4])
    def test_bessel_response(self, n, order):
        for rate, cutoff in [(512e9, 100e9), (512e9, 130e9), (256e9, 113e9),
                             (432e9, 63.7e9), (1.0, 0.37)]:
            f = np.fft.fftfreq(n, 1 / rate)
            b, a = sps.bessel(order, 2 * np.pi * cutoff, analog=True, norm="mag")
            _, ref = sps.freqs(b, a, worN=2 * np.pi * np.abs(f))
            ref[f < 0] = np.conj(ref[f < 0])
            assert np.array_equal(bessel_response(f, cutoff, order), ref)

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_unsupported_bessel_order_rejected(self, order):
        with pytest.raises(ParameterError, match="Bessel order"):
            bessel_response(np.array([1e9]), 10e9, order)

    def test_windowed_sinc_taps(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rate = rng.uniform(50e9, 600e9)
            nyq = rate / 2
            cutoff = rng.uniform(0.02, 0.98) * nyq
            width = rng.uniform(1e8, 2e10)
            numtaps, beta = sps.kaiserord(
                80.0, min(width, 2 * cutoff, 2 * (nyq - cutoff)) / nyq)
            # a 500-sample record truncates the prototype to 499 taps
            for n_record, length in ((10**7, numtaps | 1), (500, min(numtaps | 1, 499))):
                ref = sps.firwin(length, cutoff, window=("kaiser", beta), fs=rate)
                got = sigcore._windowed_sinc_taps(cutoff, width, rate, n_record)
                assert np.array_equal(got, ref)

    def test_i0(self):
        x = np.concatenate([np.linspace(0.0, 8.0, 100001),
                            np.random.default_rng(2).uniform(0.0, 8.0, 10000)])
        assert np.array_equal(sigcore._i0(x), special.i0(x))


class TestResample:
    def test_round_trip(self):
        w = bandlimited_noise(4096, RATE, 180e9, seed=7)
        up = resample(w, 2 * RATE)
        back = resample(up, RATE)
        assert nmse_db(w, back) < -40

    def test_tone_preserved_on_upsample(self):
        w, f = tone(0.3 * RATE / 2, n=4096)
        up = resample(w, 2 * RATE)
        assert up.sample_rate_hz == 2 * RATE
        a0 = tone_amplitude(w, f)
        a1 = tone_amplitude(up, f)
        assert abs(20 * np.log10(a1 / a0)) < 0.05

    def test_dc_invariance(self):
        w = SampledWaveform(256e9, np.full(1024, 3.25))
        out = resample(w, 512e9)
        assert np.allclose(out.real, 3.25, atol=1e-9)

    def test_bad_rate(self):
        w = SampledWaveform(256e9, np.ones(16))
        with pytest.raises(ParameterError):
            resample(w, -1.0)

    def test_irrational_length_rejected(self):
        w = SampledWaveform(3e9, np.ones(7))
        with pytest.raises(ParameterError):
            resample(w, 2e9)  # 7 * 2/3 is not an integer


class TestNmse:
    def test_identity_hits_floor(self):
        w = SampledWaveform(1e9, np.arange(1, 9, dtype=float))
        assert nmse_db(w, w) == -200.0

    def test_zero_test_is_zero_db(self):
        w = SampledWaveform(1e9, np.arange(1, 9, dtype=float))
        z = SampledWaveform(1e9, np.zeros(8))
        assert abs(nmse_db(w, z)) < 1e-12

    def test_scaled_reference(self):
        w = SampledWaveform(1e9, np.arange(1, 9, dtype=float))
        s = SampledWaveform(1e9, 0.9 * np.arange(1, 9, dtype=float))
        assert abs(nmse_db(w, s) - 10 * np.log10(0.01)) < 1e-9

    def test_zero_energy_reference_rejected(self):
        z = SampledWaveform(1e9, np.zeros(8))
        w = SampledWaveform(1e9, np.ones(8))
        with pytest.raises(ParameterError):
            nmse_db(z, w)


class TestMeasurement:
    def test_tone_amplitude(self):
        w, f = tone(40e9, amp=0.7)
        assert abs(tone_amplitude(w, f) - 0.7) < 1e-9

    def test_band_energy_fraction(self):
        w, f = tone(40e9)
        assert sigcore.band_energy_fraction(w, 30e9, 50e9) > 0.999
        assert sigcore.band_energy_fraction(w, 60e9, 80e9) < 1e-6

    def test_spectral_nmse_exclusion(self):
        w, f = tone(40e9)
        other, f2 = tone(100e9, amp=0.1)
        corrupted = SampledWaveform(RATE, w.real + other.real)
        full = sigcore.spectral_nmse_db(w, corrupted)
        masked = sigcore.spectral_nmse_db(w, corrupted, exclude_bands=[(98e9, 102e9)])
        assert full > -30
        assert masked < -150
