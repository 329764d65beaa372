import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from imddsim.errors import ParameterError
from imddsim.frontend import (
    AmplifierModel,
    MzmModel,
    _brentq,
    _tanh_compression_point,
    amplify,
    combine,
    dac,
    dac_response,
    mixer_upconvert,
    mzm_modulate,
    quantize_uniform,
    stitch_bands,
)
from imddsim.sigcore import (
    SampledWaveform,
    bessel_response,
    bin_centered_frequency,
    nmse_db,
    spectral_nmse_db,
    tone_amplitude,
    tone_phase,
)
from imddsim.txdsp import BandPlan, band_split

ANALOG_RATE = 512e9
AWG_RATE = 256e9


def awg_tone(freq, n=8192, amp=1.0):
    f = bin_centered_frequency(freq, n, AWG_RATE)
    t = np.arange(n) / AWG_RATE
    return SampledWaveform(AWG_RATE, amp * np.cos(2 * np.pi * f * t)), f


def analog_tone(freq, n=16384, amp=1.0):
    f = bin_centered_frequency(freq, n, ANALOG_RATE)
    t = np.arange(n) / ANALOG_RATE
    return SampledWaveform(ANALOG_RATE, amp * np.cos(2 * np.pi * f * t)), f


class TestDac:
    def test_dc_preserved(self):
        w = SampledWaveform(AWG_RATE, np.full(1024, 0.8))
        out = dac(w, ANALOG_RATE, bandwidth_hz=80e9)
        assert out.sample_rate_hz == ANALOG_RATE
        assert np.allclose(out.real, 0.8, atol=1e-6)

    def test_zoh_droop_at_64ghz(self):
        w, f = awg_tone(64e9)
        out = dac(w, ANALOG_RATE, bandwidth_hz=1e15)
        droop_db = 20 * np.log10(tone_amplitude(out, f) / tone_amplitude(w, f))
        expect = 20 * np.log10(np.sinc(64.0 / 256.0))
        assert abs(droop_db - expect) < 0.1
        assert abs(expect - (-0.91)) < 0.02  # sanity: the -0.91 dB case

    def test_stage_applies_dac_response(self):
        # the pre-emphasis is designed on dac_response, so the stage must
        # apply exactly that magnitude
        w, f = awg_tone(40e9)
        out = dac(w, ANALOG_RATE, bandwidth_hz=80e9)
        droop, bessel = dac_response(np.array([f]), AWG_RATE, 80e9)
        gain = tone_amplitude(out, f) / tone_amplitude(w, f)
        assert gain == pytest.approx(abs(droop[0] * bessel[0]), rel=1e-6)

    def test_quantization_noise_floor(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 1 << 16)
        q = quantize_uniform(x, 8, full_scale=1.0)
        snr_db = 10 * np.log10(np.mean(x**2) / np.mean((x - q) ** 2))
        assert abs(snr_db - (6.02 * 8 + 1.76)) < 3.0

    def test_downward_rate_rejected(self):
        w = SampledWaveform(AWG_RATE, np.ones(64))
        with pytest.raises(ParameterError):
            dac(w, 0.5 * AWG_RATE)


class TestMixer:
    def test_product_to_sum_images(self):
        w, f = analog_tone(28e9)
        out = mixer_upconvert(w, 72e9)
        lo = bin_centered_frequency(72e9, w.n, ANALOG_RATE)
        a_low = tone_amplitude(out, lo - f)
        a_high = tone_amplitude(out, lo + f)
        assert abs(a_low - 1.0) < 1e-9
        assert abs(a_high - 1.0) < 1e-9

    def test_rolloff_at_rf_frequency(self):
        w, f = analog_tone(70e9)
        out = mixer_upconvert(w, 72e9, bandwidth_hz=150e9)
        upper = bin_centered_frequency(72e9, w.n, ANALOG_RATE) + f  # ~142 GHz
        expect = 1.0 / np.sqrt(1.0 + (upper / 150e9) ** 4)
        assert tone_amplitude(out, upper) == pytest.approx(expect, rel=1e-9)

    def test_linearity_without_leakage(self):
        rng = np.random.default_rng(1)
        n = 8192
        a = SampledWaveform(ANALOG_RATE, rng.normal(size=n))
        b = SampledWaveform(ANALOG_RATE, rng.normal(size=n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lhs = mixer_upconvert(
                SampledWaveform(ANALOG_RATE, a.real + b.real), 150e9, 200e9
            ).real
            rhs = (mixer_upconvert(a, 150e9, 200e9).real
                   + mixer_upconvert(b, 150e9, 200e9).real)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-10

    def test_if_above_lo_warns(self):
        w, _ = analog_tone(100e9)
        with pytest.warns(UserWarning, match="above the LO"):
            mixer_upconvert(w, 72e9)

    @pytest.mark.filterwarnings("ignore:.*above the LO")
    @pytest.mark.parametrize("n", [4096, 4095])
    @pytest.mark.parametrize("lo_bin", [1, 5, 700, "nyquist-3", "nyquist"])
    def test_matches_time_domain_product(self, n, lo_bin):
        # 2 x(t) cos(2 pi f_LO t + phi) of a full-band record: a low LO folds
        # the lower sideband through DC, one near Nyquist wraps the upper
        # image back through Nyquist
        k = {"nyquist-3": n // 2 - 3, "nyquist": n // 2}.get(lo_bin, lo_bin)
        x = np.random.default_rng(n + k).normal(size=n)
        t = np.arange(n)
        for phi in (0.0, 0.7, -2.1):
            out = mixer_upconvert(SampledWaveform(ANALOG_RATE, x), k * ANALOG_RATE / n,
                                  lo_phase_rad=phi)
            # the LO phase reduced modulo a period in integers first
            ref = 2 * x * np.cos(2 * np.pi * (k * t % n) / n + phi)
            assert out.samples.dtype == np.float64 and out.spectrum.size == n // 2 + 1
            assert np.max(np.abs(out.real - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_lo_beyond_nyquist_rejected(self):
        w, _ = analog_tone(10e9, n=1024)
        with pytest.raises(ParameterError, match="Nyquist"):
            mixer_upconvert(w, 0.51 * ANALOG_RATE)


class TestCombine:
    def test_zero_upper(self):
        low = SampledWaveform(ANALOG_RATE, np.arange(8.0))
        up = SampledWaveform(ANALOG_RATE, np.zeros(8))
        assert np.array_equal(combine(low, up).real, low.real)

    def test_exact_addition(self):
        rng = np.random.default_rng(2)
        low = SampledWaveform(ANALOG_RATE, rng.normal(size=256))
        up = SampledWaveform(ANALOG_RATE, rng.normal(size=256))
        out = combine(low, up)
        assert np.allclose(out.real, low.real + up.real, atol=1e-15)

    def test_skew_phase_shift(self):
        w, f = analog_tone(100e9)
        zero = SampledWaveform(ANALOG_RATE, np.zeros(w.n))
        out = combine(zero, w, skew_s=1e-12)
        dphi = np.degrees(tone_phase(out, f) - tone_phase(w, f))
        dphi = (dphi + 180) % 360 - 180
        assert abs(abs(dphi) - 36.0) < 1.0

    def test_rate_mismatch(self):
        with pytest.raises(ParameterError):
            combine(
                SampledWaveform(1e9, np.ones(8)), SampledWaveform(2e9, np.ones(8))
            )


class TestAmplify:
    def test_small_signal_gain(self):
        w, f = analog_tone(10e9, amp=1e-3)
        out = amplify(w, AmplifierModel(gain_db=7.0, bandwidth_hz=130e9))
        got = 20 * np.log10(tone_amplitude(out, f) / tone_amplitude(w, f))
        assert abs(got - 7.0) < 0.1

    def test_one_db_compression_point(self):
        p1 = 0.25
        model = AmplifierModel(gain_db=16.0, bandwidth_hz=1e15,
                               compression_in_1db=p1)
        w = SampledWaveform(ANALOG_RATE, np.full(512, p1))
        out = amplify(w, model)
        linear = p1 * 10 ** (16.0 / 20.0)
        got_db = 20 * np.log10(out.real[0] / linear)
        # oracle: solve tanh(u)/u = 10^(-1/20) independently
        u = brentq(lambda v: np.tanh(v) / v - 10 ** (-0.05), 1e-3, 3.0)
        assert abs(np.tanh(u) / u - 10 ** (-0.05)) < 1e-12
        assert abs(got_db - (-1.0)) < 0.1

    def test_linear_when_saturation_off(self):
        rng = np.random.default_rng(3)
        a = SampledWaveform(ANALOG_RATE, rng.normal(size=512))
        b = SampledWaveform(ANALOG_RATE, rng.normal(size=512))
        model = AmplifierModel(gain_db=12.0, bandwidth_hz=100e9)
        lhs = amplify(SampledWaveform(ANALOG_RATE, 2 * a.real - b.real), model).real
        rhs = 2 * amplify(a, model).real - amplify(b, model).real
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-10


class TestMzm:
    LASER_DBM = 20.0
    LASER_W = 0.1  # 20 dBm
    MODEL = MzmModel(v_pi_volts=2.8, bandwidth_hz=1e15)

    def test_quadrature_half_power(self):
        drive = SampledWaveform(ANALOG_RATE, np.zeros(256))
        field = mzm_modulate(drive, self.LASER_DBM, self.MODEL)
        intensity = np.abs(field.samples) ** 2
        assert np.allclose(intensity, self.LASER_W / 2, rtol=1e-9)

    def test_null_at_half_vpi(self):
        drive = SampledWaveform(ANALOG_RATE, np.full(256, 2.8 / 2))
        field = mzm_modulate(drive, self.LASER_DBM, self.MODEL)
        assert np.max(np.abs(field.samples) ** 2) < 1e-12 * self.LASER_W

    def test_small_signal_against_transfer(self):
        n = 8192
        f = bin_centered_frequency(5e9, n, ANALOG_RATE)
        t = np.arange(n) / ANALOG_RATE
        v = 0.05 * 2.8 * np.sin(2 * np.pi * f * t)
        drive = SampledWaveform(ANALOG_RATE, v)
        field = mzm_modulate(drive, self.LASER_DBM, self.MODEL)
        intensity = np.abs(field.samples) ** 2
        # direct evaluation of the cosine transfer at quadrature
        expect = self.LASER_W * np.cos(
            np.pi * (v + 2.8 / 2) / (2 * 2.8)
        ) ** 2
        err = np.max(np.abs(intensity - expect)) / np.max(expect)
        assert err < 0.01

    def test_intensity_bounded(self):
        rng = np.random.default_rng(4)
        drive = SampledWaveform(ANALOG_RATE, rng.normal(0, 3.0, 4096))
        field = mzm_modulate(drive, self.LASER_DBM, MzmModel(2.8, bandwidth_hz=110e9))
        intensity = np.abs(field.samples) ** 2
        assert np.all(intensity >= 0)
        assert np.all(intensity <= self.LASER_W * (1 + 1e-12))

    @pytest.mark.parametrize("atten_db", [0.03, 3.0, 63.0])
    def test_attenuation_placed_at_bandwidth(self, atten_db):
        model = MzmModel(2.8, bandwidth_hz=110e9, bandwidth_atten_db=atten_db)
        h = bessel_response(np.array([110e9]), model.cutoff_hz, 2)
        assert -20 * np.log10(abs(h[0])) == pytest.approx(atten_db, rel=1e-6)


class TestBrentq:
    """The Brent port takes scipy.optimize.brentq's iterates, so its roots
    are the same floats."""

    def test_tanh_compression_point(self):
        target = 10 ** (-1.0 / 20.0)
        ref = brentq(lambda u: np.tanh(u) / u - target, 1e-3, 3.0)
        assert _tanh_compression_point() == ref

    def test_mzm_bandwidth_cutoff(self):
        rng = np.random.default_rng(5)
        attens = np.concatenate([np.geomspace(0.03, 63.0, 200),
                                 rng.uniform(0.03, 63.0, 200)])
        for atten_db in attens:
            model = MzmModel(2.8, bandwidth_hz=110e9, bandwidth_atten_db=atten_db)
            target = 10 ** (-atten_db / 20.0)
            ref = brentq(lambda x: abs(bessel_response(np.array([x]), 1.0, 2)[0]) - target,
                         0.1, 50.0)
            assert model.cutoff_hz == 110e9 / ref

    @pytest.mark.parametrize("coefs, lo, hi", [
        ([1.0, 0.0, -2.0], 0.0, 1.7),
        ([1.0, 0.0, -2.0], 1.2, 1.8),
        ([1.0, -6.0, 11.0, -6.0], 0.0, 1.7),
        ([1.0, -6.0, 11.0, -6.0], -5.0, 5.0),
        ([1.0, -6.0, 11.0, -6.0], 2.5, 10.0),
        ([0.5, 0.0, 0.0, -3.0], -5.0, 5.0),
    ])
    def test_polynomial_roots(self, coefs, lo, hi):
        def f(x):
            return float(np.polyval(coefs, x))
        assert _brentq(f, lo, hi) == brentq(f, lo, hi)

    def test_no_sign_change_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0)


class TestStitchReconstruction:
    @pytest.mark.parametrize(
        "plan",
        [
            BandPlan(76e9, 75e9, 72e9, awg_bandwidth_hz=126e9),
            BandPlan(82e9, 82e9, 76e9, awg_bandwidth_hz=126e9),
        ],
        ids=["C-band", "O-band"],
    )
    def test_wideband_reconstruction(self, plan):
        # the crossover and analog HPF are exactly 0 or 1 outside their
        # transitions, so away from the crossover the stitch is exact to
        # rounding (acceptance criterion 02 keeps its -30 dB bar)
        rng = np.random.default_rng(5)
        n = 32768
        freqs = np.fft.fftfreq(n, 1 / ANALOG_RATE)
        spec = np.zeros(n, dtype=np.complex128)
        sel = (np.abs(freqs) > 0.2e9) & (np.abs(freqs) < 190e9)
        spec[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
        w = SampledWaveform(ANALOG_RATE, np.fft.ifft(spec).real)

        lower, upper = band_split(w, plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # IF legitimately crosses the LO here
            rec = stitch_bands(lower, upper, plan, ANALOG_RATE)
        xo = plan.crossover_hz
        nmse = spectral_nmse_db(w, rec, exclude_bands=[(xo - 2e9, xo + 2e9)])
        assert nmse <= -150.0
