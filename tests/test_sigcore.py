import numpy as np
import pytest
from scipy import signal as sps

from conftest import bin_centered_frequency, occupied_bandwidth, tone_amplitude
from imddsim import sigcore
from imddsim.errors import ParameterError
from imddsim.sigcore import (
    SampledWaveform,
    apply_filter,
    bessel_response,
    filter_response,
    nmse_db,
    resample,
)
from imddsim.txdsp import rrc_upsample

RATE = 512e9


def lowpass(wave, cutoff_hz, transition_hz=2e9):
    return filter_response(cutoff_hz, transition_hz, wave.n, wave.sample_rate_hz)


def tone(freq_hz, n=8192, rate=RATE, amp=1.0):
    t = np.arange(n) / rate
    f = bin_centered_frequency(freq_hz, n, rate)
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
        # a complex array is rejected whatever its imaginary part
        for imag in (0.5j, 1e-15j):
            with pytest.raises(ParameterError, match="must be real"):
                SampledWaveform(1e9, np.array([1.0, 2.0]) + imag, "electrical")

    def test_optical_may_be_complex(self):
        w = SampledWaveform(1e9, np.array([1.0 + 1.0j]), "optical_field")
        assert w.samples[0] == 1.0 + 1.0j


def rrc_response(rolloff, sps=2, n_symbols=64):
    """The RRC response ``rrc_upsample`` applies: the spectrum of its output
    for a unit impulse at symbol 0, whose zero-stuffed spectrum is all ones."""
    impulse = np.zeros(n_symbols)
    impulse[0] = 1.0
    return rrc_upsample(impulse, sps, rolloff, 1e9).spectrum


class TestDesignRrc:
    """The RRC pulse, designed as a response on the record grid."""

    def test_symmetry(self):
        # a real, zero-phase response on the one-sided grid: the pulse is
        # even in time about the symbol it carries
        h = rrc_response(0.01)
        assert h.size == 2 * 64 // 2 + 1 and np.all(h.imag == 0)
        impulse = np.zeros(64)
        impulse[0] = 1.0
        pulse = rrc_upsample(impulse, 2, 0.01, 1e9).real
        assert np.allclose(pulse[1:], pulse[1:][::-1], rtol=0, atol=1e-15)

    def test_dc_gain_is_unity(self):
        # referred to the symbol stream: the gain is sps on the sps-fold grid
        for rolloff, sps in [(0.01, 2), (0.25, 4), (0.5, 8)]:
            assert rrc_response(rolloff, sps)[0] == sps

    def test_half_symbol_rate_response(self):
        # closed-form RRC spectrum: |H(1/2T)| = 1/sqrt(2), bin n_symbols / 2
        for rolloff in (0.0, 0.01, 0.25, 1.0):
            h = rrc_response(rolloff, sps=4)
            assert h[32].real / 4 == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_zero_isi_when_convolved_with_itself(self):
        # Nyquist round trip: shape, matched-filter (the same response over
        # sps) and sample at the symbol instants returns the symbols
        rng = np.random.default_rng(1)
        sym = rng.normal(size=1000)
        for rolloff in (0.0, 0.01, 0.1, 1.0):
            h = rrc_response(rolloff, n_symbols=sym.size)
            wave = rrc_upsample(sym, 2, rolloff, 1e9)
            back = apply_filter(wave, h / 2).real[::2]
            # below nmse_db's -200 dB floor, so the ratio is taken here
            err_db = 10 * np.log10(np.sum((back - sym) ** 2) / np.sum(sym**2))
            assert err_db <= -250.0, (rolloff, err_db)

    def test_zero_rolloff_is_sinc(self):
        # the sinc pulse's spectrum: a brick wall, with 1/sqrt(2) on the R/2
        # bin so that bin and its alias at -R/2 fold to unity
        h = rrc_response(0.0).real / 2
        k = np.arange(65)  # bins of the one-sided 128-point grid
        assert np.all(h[k < 32] == 1.0) and np.all(h[k > 32] == 0.0)
        assert h[32] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_parameter_errors(self):
        for rolloff in (-0.1, 1.5, float("nan")):
            with pytest.raises(ParameterError):
                rrc_upsample(np.ones(8), 2, rolloff, 1e9)


class TestApplyFilter:
    def test_allpass_identity(self):
        w = bandlimited_noise(4096, RATE, 200e9, seed=1)
        out = apply_filter(w, np.ones(w.n // 2 + 1))
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
        out = SampledWaveform.from_spectrum(RATE, w.spectrum * np.exp(1j * phase), w.n)
        e_in = np.sum(np.abs(w.samples) ** 2)
        e_out = np.sum(np.abs(out.samples) ** 2)
        assert abs(e_out - e_in) / e_in < 1e-9

    def test_complementary_highpass(self):
        # lowpass + highpass at the same cutoff reconstructs exactly
        w = bandlimited_noise(4096, RATE, 220e9, seed=5)
        lo = apply_filter(w, lowpass(w, 76e9))
        hi = apply_filter(w, 1.0 - lowpass(w, 76e9))
        assert nmse_db(w, SampledWaveform(RATE, lo.real + hi.real)) < -120

    def test_raised_cosine_transition(self):
        n = 4096
        f = np.fft.rfftfreq(n, 1 / RATE)
        h = filter_response(76e9, 4e9, n, RATE)
        assert np.all(h[f <= 74e9] == 1.0) and np.all(h[f >= 78e9] == 0.0)
        mid = (f > 74e9) & (f < 78e9)
        expect = 0.5 * (1 + np.cos(np.pi * ((f[mid] - 76e9) / 4e9 + 0.5)))
        assert np.allclose(h[mid], expect, rtol=0, atol=1e-15)
        # a transition wider than the room to Nyquist shrinks to fit it
        near = filter_response(250e9, 40e9, n, RATE)
        assert near[n // 2] == 0.0 and np.all(near[f <= 244e9] == 1.0)
        for width in (0.0, -1e9):
            with pytest.raises(ParameterError, match="transition width"):
                filter_response(76e9, width, n, RATE)

    @pytest.mark.parametrize("cutoff, width, n, rate", [
        (76e9, 4e9, 4096, RATE),
        (76e9, 2e9, 155520, 432e9),          # a 77 761-bin grid
        (2e9, 40e9, 4095, 384e9),            # width clipped at DC to 4 GHz
        (250e9, 40e9, 4096, RATE),           # clipped at Nyquist to 12 GHz
        (128e9, 1e3, 8192, RATE),            # narrower than a bin, cutoff on one
        (100e9, 150e9, 1001, 256e9),         # clipped at Nyquist, odd n
    ])
    def test_matches_closed_form_on_the_whole_grid(self, cutoff, width, n, rate):
        # the cosine is formed on the transition bins only; every bin, those
        # outside it exactly 1 or 0, equals the closed form over the grid
        f = np.fft.rfftfreq(n, d=1.0 / rate)
        w = min(width, 2 * cutoff, 2 * (rate / 2 - cutoff))
        expect = 0.5 * (1.0 + np.cos(np.pi * np.clip((f - cutoff) / w + 0.5, 0.0, 1.0)))
        h = filter_response(cutoff, width, n, rate)
        assert h.shape == (n // 2 + 1,) and np.array_equal(h, expect)
        assert np.all(h[f <= cutoff - w / 2] == 1.0) and np.all(h[f >= cutoff + w / 2] == 0.0)

    def test_lowpass_zero_delay(self):
        w = bandlimited_noise(4096, RATE, 100e9, seed=6)
        out = apply_filter(w, lowpass(w, 60e9))
        # zero-phase response: peak correlation at zero lag
        corr = np.fft.ifft(
            np.fft.fft(out.samples) * np.conj(np.fft.fft(w.samples))
        ).real
        assert np.argmax(corr) == 0

    def test_response_off_grid_rejected(self):
        w = bandlimited_noise(4096, RATE, 100e9, seed=8)
        for bins in (w.n // 2, w.n, w.n + 1):  # w has w.n // 2 + 1 bins
            with pytest.raises(ParameterError):
                apply_filter(w, np.ones(bins))

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


def bessel_out_of_place(freqs_hz, cutoff_hz, order):
    """Oracle: ``bessel_response`` with the out-of-place Horner loop that the
    in-place one replaced."""
    gain, den = sigcore._bessel_design(cutoff_hz, order)
    s = 1j * (2 * np.pi * np.asarray(freqs_hz, dtype=float))
    y = np.zeros_like(s)
    for coef in den:
        y = y * s + coef
    return gain / y


class TestBesselInPlace:
    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("grid", [
        np.fft.rfftfreq(155520, 1 / 512e9),
        np.fft.fftfreq(155520, 1 / 512e9),
        np.fft.rfftfreq(131220, 1 / 432e9),
        np.fft.rfftfreq(2 * sigcore._RESPONSE_BLOCK, 1 / 512e9),
        np.array([0.0, 60e9]),
    ], ids=["one-sided", "signed", "one-sided-131220", "block-plus-one", "two-point"])
    def test_bit_equal_to_out_of_place(self, grid, order):
        for cutoff in (63.7e9, 100e9, 113e9):
            assert np.array_equal(bessel_response(grid, cutoff, order),
                                  bessel_out_of_place(grid, cutoff, order))


class TestMatchesScipyDesigns:
    """The numpy Bessel design reproduces the scipy.signal design it
    replaces bit for bit, so run outputs do not depend on which is used."""

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

    @pytest.mark.parametrize("n, rate", [(4096, 256e9), (4094, 256e9), (3072, 384e9),
                                         (4096, RATE), (2048, 2 * RATE), (2047, 2 * RATE)])
    def test_response_on_kept_bins_is_filter_then_resample(self, n, rate):
        # the response multiplies the kept bins before the unpaired bin
        # folds, so the result is byte-equal to filtering the whole record
        w = bandlimited_noise(n, RATE, 250e9, seed=n)
        full = bessel_response(w.freqs(), 100e9, 4)
        kept = min(n, int(round(n * rate / RATE))) // 2 + 1
        got = resample(w, rate, full[:kept])
        expect = resample(apply_filter(w, full), rate)
        assert got.spectrum.tobytes() == expect.spectrum.tobytes()

    def test_response_off_the_kept_bins_rejected(self):
        w = SampledWaveform(RATE, np.ones(64))
        with pytest.raises(ParameterError, match="kept bins"):
            resample(w, RATE / 2, np.ones(33))


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


class TestToneAmplitudeRecordLength:
    """Only an even record has a Nyquist bin; on an odd one, bin n // 2 is
    an ordinary bin shared with its mirror image."""

    @pytest.mark.parametrize("n, k", [(101, 50), (100, 49), (100, 50), (101, 0)])
    def test_unit_cosine_reads_one(self, n, k):
        w = SampledWaveform(1e9, np.cos(2 * np.pi * k * np.arange(n) / n))
        assert tone_amplitude(w, k * 1e9 / n) == pytest.approx(1.0, rel=1e-12)


def full_spectrum_metrics(wave, other, f_lo, f_hi, tone_hz):
    """The spectral metrics computed from the full n-point FFT and its
    ``fftfreq`` grid: the reference the one-sided forms must equal."""
    n = wave.n
    spec, other_spec = np.fft.fft(wave.real), np.fft.fft(other.real)
    freqs = np.abs(np.fft.fftfreq(n, 1 / wave.sample_rate_hz))
    energy = np.abs(spec) ** 2
    sel = (freqs >= f_lo) & (freqs <= f_hi)
    keep = ~sel
    order = np.argsort(freqs)
    cum = np.cumsum(energy[order])
    k = int(round(tone_hz * n / wave.sample_rate_hz)) % n
    return {
        "band_energy_fraction": np.sum(energy[sel]) / np.sum(energy),
        "spectral_nmse_db": 10 * np.log10(np.sum(np.abs(spec - other_spec)[keep] ** 2)
                                          / np.sum(energy[keep])),
        "tone_amplitude": (1.0 if k == 0 or 2 * k == n else 2.0) * np.abs(spec[k]) / n,
        "occupied_bandwidth": freqs[order][np.searchsorted(cum, 0.99 * cum[-1])],
    }


class TestOneSidedMetrics:
    """DC and the Nyquist bin of an even n count once, every other bin of
    the one-sided spectrum twice, so each metric equals its full-spectrum
    value."""

    @pytest.mark.parametrize("n", [2048, 2047])
    @pytest.mark.parametrize("tone_hz", [40e9, -40e9, 300e9, 0.0, 256e9])
    def test_equal_to_full_spectrum(self, n, tone_hz):
        rng = np.random.default_rng(n)
        w = SampledWaveform(RATE, rng.normal(size=n))
        other = SampledWaveform(RATE, w.real + 0.1 * rng.normal(size=n))
        f_lo, f_hi = 60e9, 180e9
        ref = full_spectrum_metrics(w, other, f_lo, f_hi, tone_hz)
        got = {
            "band_energy_fraction": sigcore.band_energy_fraction(w, f_lo, f_hi),
            "spectral_nmse_db": sigcore.spectral_nmse_db(
                w, other, exclude_bands=[(f_lo, f_hi)]),
            "tone_amplitude": tone_amplitude(w, tone_hz),
            "occupied_bandwidth": occupied_bandwidth(w, 0.99),
        }
        for name, value in got.items():
            assert value == pytest.approx(ref[name], rel=1e-12, abs=1e-300), name


class TestResampleAgainstScipy:
    """The one-sided truncation or zero padding, with its Nyquist split and
    join, is ``scipy.signal.resample`` on real input."""

    @pytest.mark.parametrize("n_in, n_out", [
        (1000, 1500), (1000, 750), (1000, 600), (999, 1332), (1332, 999),
        (1001, 1430), (1001, 715), (1430, 1001), (1500, 1001),
    ])
    def test_matches_scipy(self, n_in, n_out):
        x = np.random.default_rng(n_in * n_out).normal(size=n_in)
        out = resample(SampledWaveform(RATE, x), RATE * n_out / n_in)
        ref = sps.resample(x, n_out)
        assert out.n == n_out and out.samples.dtype == np.float64
        assert np.max(np.abs(out.real - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_optical_field_rejected(self):
        w = SampledWaveform(RATE, np.ones(16, dtype=complex), "optical_field")
        with pytest.raises(ParameterError):
            resample(w, 2 * RATE)


class TestOwnership:
    @pytest.mark.parametrize("tag", ["electrical", "optical_field"])
    @pytest.mark.parametrize("build", ["samples", "spectrum"])
    def test_edits_do_not_reach_the_waveform(self, tag, build):
        # a waveform owns its one array: editing the array it was built
        # from, or an array ``samples`` returned, changes neither its
        # spectrum nor its samples, which are the inverse transform of it
        rng = np.random.default_rng(5)
        x = rng.normal(size=16)
        if tag == "optical_field":
            x = x + 1j * rng.normal(size=16)
            transform, inverse = np.fft.fft, np.fft.ifft
        else:
            transform, inverse = np.fft.rfft, lambda s: np.fft.irfft(s, 16)
        if build == "samples":
            given = x
            w = SampledWaveform(RATE, given, tag)
        else:
            given = transform(x)
            w = SampledWaveform.from_spectrum(RATE, given, 16, tag)
        held = w.spectrum.tobytes(), w.samples.tobytes()
        assert held[1] == inverse(w.spectrum).tobytes()
        given[1] = 50
        w.samples[0] = 99
        w.real[2] = 99
        assert (w.spectrum.tobytes(), w.samples.tobytes()) == held


class TestRealForm:
    @pytest.mark.parametrize("n", [16, 15])
    def test_from_spectrum_holds_the_rfft(self, n):
        # irfft ignores the imaginary parts of DC and an even n's Nyquist
        # bin; the waveform drops them, so the spectrum it holds is the
        # rfft of its samples, and the caller's array is left alone
        spec = np.random.default_rng(n).normal(size=(n // 2 + 1, 2)) @ [1, 1j]
        given = spec.copy()
        w = SampledWaveform.from_spectrum(RATE, spec, n)
        assert np.array_equal(spec, given)
        assert np.allclose(w.spectrum, np.fft.rfft(w.samples), rtol=0, atol=1e-14)
        assert w.spectrum[0].imag == 0 and (n % 2 or w.spectrum[-1].imag == 0)
        with pytest.raises(ParameterError, match="spectrum bins"):
            SampledWaveform.from_spectrum(RATE, spec, n + 2)

    def test_stage_outputs_are_real_and_one_sided(self):
        from imddsim.frontend import dac, dac_response
        from imddsim.rxdsp import digitize, photodetect

        rng = np.random.default_rng(3)
        wide = rrc_upsample(rng.choice([-1.0, 1.0], 512), 2, 0.1, 128e9)
        field = SampledWaveform(256e9, 1 + 0.1 * wide.real, "optical_field")
        current = photodetect(field, 0.0, np.random.default_rng(0))
        outputs = {
            "rrc_upsample": wide,
            "dac": dac(wide, 512e9, dac_response(wide.freqs(), wide.sample_rate_hz, 80e9)),
            "photodetect": current,
            "digitize": digitize(current, 128e9, 50e9, resolution_bits=6,
                                 pd_bandwidth_hz=100e9),
        }
        for name, out in outputs.items():
            assert out.samples.dtype == np.float64, name
            assert out.spectrum.shape == out.freqs().shape == (out.n // 2 + 1,), name
            assert out.freqs()[0] == 0 and out.freqs()[-1] <= out.sample_rate_hz / 2
