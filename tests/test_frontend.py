import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import bin_centered_frequency, tone_amplitude, traced_peak
from imddsim.errors import ParameterError
from imddsim.frontend import (
    AmplifierModel,
    MzmModel,
    _TANH_1DB,
    amplify,
    bessel_group_delay_dc,
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
    _bessel_design,
    apply_filter,
    bessel_response,
    filter_response,
    resample,
    spectral_nmse_db,
)
from imddsim.txdsp import BandPlan, band_split, linear_preemphasis

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
        out = dac(w, ANALOG_RATE, dac_response(w.freqs(), AWG_RATE, 80e9))
        assert out.sample_rate_hz == ANALOG_RATE
        assert np.allclose(out.real, 0.8, atol=1e-6)

    def test_zoh_droop_at_64ghz(self):
        w, f = awg_tone(64e9)
        out = dac(w, ANALOG_RATE, dac_response(w.freqs(), AWG_RATE, 1e15))
        droop_db = 20 * np.log10(tone_amplitude(out, f) / tone_amplitude(w, f))
        expect = 20 * np.log10(np.sinc(64.0 / 256.0))
        assert abs(droop_db - expect) < 0.1
        assert abs(expect - (-0.91)) < 0.02  # sanity: the -0.91 dB case

    def test_stage_applies_dac_response(self):
        # the pre-emphasis is designed on dac_response, so the stage must
        # apply exactly that magnitude
        w, f = awg_tone(40e9)
        out = dac(w, ANALOG_RATE, dac_response(w.freqs(), AWG_RATE, 80e9))
        response = dac_response(np.array([f]), AWG_RATE, 80e9)
        gain = tone_amplitude(out, f) / tone_amplitude(w, f)
        assert gain == pytest.approx(abs(response[0]), rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 4095, 4096])
    def test_no_rate_change_filters_a_copy(self, n):
        # at the DAC rate the converter is apply_filter with its one response,
        # which leaves the caller's spectrum and response as they were
        rng = np.random.default_rng(n)
        w = SampledWaveform(AWG_RATE, rng.normal(size=n))
        spectrum = w.spectrum.copy()
        response = dac_response(w.freqs(), AWG_RATE, 80e9)
        held = response.tobytes()
        out = dac(w, AWG_RATE, response)
        expect = apply_filter(w, response)
        assert out.spectrum.tobytes() == expect.spectrum.tobytes()
        assert out.samples.tobytes() == expect.samples.tobytes()
        assert w.spectrum.tobytes() == spectrum.tobytes()
        assert response.tobytes() == held

    @pytest.mark.parametrize("rate", [AWG_RATE, ANALOG_RATE])
    @pytest.mark.parametrize("n", [4095, 4096])
    def test_no_bandwidth_is_exact_resampling(self, n, rate):
        # the ideal converter that stitch_bands' defaults run
        w = SampledWaveform(AWG_RATE, np.random.default_rng(n).normal(size=n))
        assert dac(w, rate, None).spectrum.tobytes() == resample(w, rate).spectrum.tobytes()

    @pytest.mark.parametrize("n", [4095, 4096])
    def test_filters_only_the_bins_it_carries(self, n):
        # the response is formed on the record's own bins; above them the
        # resampled spectrum is zero, and below them the result is byte-equal
        # to the response applied on the whole analog grid, but for an even
        # record's Nyquist bin, which keeps its real part as resample keeps it
        w = SampledWaveform(AWG_RATE, np.random.default_rng(n).normal(size=n))
        up = resample(w, ANALOG_RATE)
        expect = apply_filter(up, dac_response(up.freqs(), AWG_RATE, 80e9)).spectrum
        got = dac(w, ANALOG_RATE, dac_response(w.freqs(), AWG_RATE, 80e9)).spectrum
        m = w.spectrum.size
        if n % 2 == 0:
            assert expect[m - 1].imag != 0 and got[m - 1] == expect[m - 1].real
            expect[m - 1] = got[m - 1]
        assert got[:m].tobytes() == expect[:m].tobytes()
        assert not np.any(got[m:]) and not np.any(expect[m:])

    def test_quantization_noise_floor(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 1 << 16)
        q = quantize_uniform(x, 8)  # full scale at the peak, within 1e-5 of 1
        snr_db = 10 * np.log10(np.mean(x**2) / np.mean((x - q) ** 2))
        assert abs(snr_db - (6.02 * 8 + 1.76)) < 3.0

    def test_downward_rate_rejected(self):
        w = SampledWaveform(AWG_RATE, np.ones(64))
        with pytest.raises(ParameterError):
            dac(w, 0.5 * AWG_RATE, None)


#: Device parameters that the config rejects at its boundary and the device
#: layer must reject too, each as a call that would take it.
NON_FINITE_DEVICES = {
    "bessel_cutoff_nan": lambda: bessel_response(np.ones(4), float("nan"), 4),
    "bessel_cutoff_inf": lambda: bessel_response(np.ones(4), float("inf"), 2),
    "amplifier_bandwidth_nan": lambda: AmplifierModel(3.0, float("nan")),
    "amplifier_bandwidth_inf": lambda: AmplifierModel(3.0, float("inf")),
    "amplifier_compression_nan": lambda: AmplifierModel(3.0, 100e9, float("nan")),
    "amplifier_compression_inf": lambda: AmplifierModel(3.0, 100e9, float("inf")),
    "mzm_v_pi_nan": lambda: MzmModel(float("nan")),
    "mzm_v_pi_inf": lambda: MzmModel(float("inf")),
    "mzm_bandwidth_nan": lambda: MzmModel(2.8, bandwidth_hz=float("nan")),
    "preemphasis_boost_nan": lambda: linear_preemphasis(
        SampledWaveform(AWG_RATE, np.ones(8)), np.ones(5), float("nan")),
    "preemphasis_boost_inf": lambda: linear_preemphasis(
        SampledWaveform(AWG_RATE, np.ones(8)), np.ones(5), float("inf")),
    "preemphasis_boost_negative": lambda: linear_preemphasis(
        SampledWaveform(AWG_RATE, np.ones(8)), np.ones(5), -1.0),
}


@pytest.mark.parametrize("call", NON_FINITE_DEVICES.values(), ids=NON_FINITE_DEVICES.keys())
def test_bad_device_parameter_rejected(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ParameterError) as err:
            call()
    # a model names the field at fault, not one that reads it later
    assert err.value.key in (None, "bandwidth_hz", "compression_in_1db", "v_pi_volts")


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

    @pytest.mark.filterwarnings("ignore:.*above the LO")
    def test_frees_the_if_record_it_is_handed(self):
        # the IF record is built inside the call, so it goes once the LO
        # images are read from it, and the second image is added into the
        # first in blocks: 2.63 spectra of the input's size at the peak,
        # 4.51 with the record, both images and the phasor's product held
        n = 1 << 16
        bins = n // 2 + 1
        rng = np.random.default_rng(32)
        peak = traced_peak(lambda: mixer_upconvert(
            SampledWaveform.from_spectrum(ANALOG_RATE, rng.normal(size=2 * bins).view(complex),
                                          n),
            72e9, 150e9, 0.3))
        assert peak < 3.5 * 16 * bins


class TestCombine:
    def test_zero_upper(self):
        low = SampledWaveform(ANALOG_RATE, np.arange(8.0))
        up = SampledWaveform(ANALOG_RATE, np.zeros(8))
        assert combine(low, up).spectrum.tobytes() == low.spectrum.tobytes()

    def test_exact_addition(self):
        rng = np.random.default_rng(2)
        low = SampledWaveform(ANALOG_RATE, rng.normal(size=256))
        up = SampledWaveform(ANALOG_RATE, rng.normal(size=256))
        out = combine(low, up)
        assert np.allclose(out.real, low.real + up.real, atol=1e-15)

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

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 4096, 4097])
    def test_hands_on_hermitian_spectrum(self, monkeypatch, n):
        # the field is real-valued, so the modulator hands on its spectrum:
        # the rfft of the cosine with the negative half written as the exact
        # conjugate mirror, which a reader takes with no further transform
        rng = np.random.default_rng(n)
        drive = SampledWaveform(ANALOG_RATE, rng.normal(0, 1.0, n))
        v = apply_filter(drive, self.MODEL.response(drive.freqs())).real
        field = mzm_modulate(drive, self.LASER_DBM, self.MODEL)
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, lambda *a, **k: calls.append(a))
        spectrum = field.spectrum
        monkeypatch.undo()
        assert calls == []
        k = np.arange(1, (n + 1) // 2)  # bins with a distinct mirror
        assert spectrum[n - k].tobytes() == np.conj(spectrum[k]).tobytes()
        expect = np.sqrt(self.LASER_W) * np.cos(np.pi * (v + 2.8 / 2) / (2 * 2.8))
        assert np.max(np.abs(np.fft.ifft(spectrum) - expect)) <= 1e-12

    @pytest.mark.parametrize("atten_db", [0.03, 3.0, 63.0])
    def test_attenuation_placed_at_bandwidth(self, atten_db):
        model = MzmModel(2.8, bandwidth_hz=110e9, bandwidth_atten_db=atten_db)
        h = bessel_response(np.array([110e9]), model.cutoff_hz, 2)
        assert -20 * np.log10(abs(h[0])) == pytest.approx(atten_db, rel=1e-6)


class TestClosedForms:
    """The MZM cutoff, the DC group delay and the tanh 1-dB point are closed
    forms; scipy.optimize.brentq and finite differences are their oracles."""

    def test_tanh_compression_point(self):
        target = 10 ** (-1.0 / 20.0)
        assert _TANH_1DB == brentq(lambda u: np.tanh(u) / u - target, 1e-3, 3.0)

    def test_mzm_bandwidth_cutoff(self):
        rng = np.random.default_rng(5)
        attens = np.concatenate([np.geomspace(0.03, 63.0, 200),
                                 rng.uniform(0.03, 63.0, 200)])
        for atten_db in attens:
            model = MzmModel(2.8, bandwidth_hz=110e9, bandwidth_atten_db=atten_db)
            target = 10 ** (-atten_db / 20.0)
            # brentq's default xtol (2e-12, absolute) is too loose near x = 0.1
            ref = brentq(lambda x: abs(bessel_response(np.array([x]), 1.0, 2)[0]) - target,
                         0.1, 50.0, xtol=1e-300)
            assert model.cutoff_hz == pytest.approx(110e9 / ref, rel=1e-12, abs=0)

    def test_attenuation_placed_exactly(self):
        # |H|^2 = g^2 / |D|^2 of the design the model filters with, taken in
        # exact rationals: at 1e-3 dB one rounding of |H| is 1e-12 of A
        w = Fraction(2 * np.pi * 110e9)
        for atten_db in np.geomspace(1e-3, 300.0):
            model = MzmModel(2.8, bandwidth_hz=110e9, bandwidth_atten_db=atten_db)
            gain, den = _bessel_design(model.cutoff_hz, 2)
            gain, _, a1, a0 = map(Fraction, (gain, *den))  # D = s^2 + a1 s + a0
            excess = ((a0 - w * w) ** 2 + (a1 * w) ** 2) / gain**2 - 1
            got = 10 / np.log(10) * np.log1p(float(excess))
            assert got == pytest.approx(atten_db, rel=1e-12, abs=0)

    @pytest.mark.parametrize("order", [2, 4])
    def test_group_delay_dc(self, order):
        cutoff = 80e9
        f = np.array([-1e-3, 0.0, 1e-3]) * cutoff
        phase = np.unwrap(np.angle(bessel_response(f, cutoff, order)))
        tau = -(phase[2] - phase[0]) / (2 * np.pi * (f[2] - f[0]))
        tau_dc = bessel_group_delay_dc(cutoff, order)
        assert tau_dc == pytest.approx(tau, rel=1e-12, abs=0)

    # 4 000 dB: 10^(A/10) overflows a float, so there is no cutoff
    @pytest.mark.parametrize("atten_db", [0.0, -1.0, np.inf, 4000.0])
    def test_bad_attenuation_rejected(self, atten_db):
        with pytest.raises(ParameterError) as err:
            MzmModel(2.8, bandwidth_hz=110e9, bandwidth_atten_db=atten_db)
        assert err.value.key == "bandwidth_atten_db"


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

    def test_converters_are_the_dac_stage(self):
        # each record is converted by the public dac stage with the one
        # response: the stitched record is byte-equal to the public stages
        # run one by one, the LO phase set by the plan's converter bandwidth,
        # and the shared response is left as it was
        plan = BandPlan(76e9, 75e9, 72e9, awg_bandwidth_hz=90e9)
        rng = np.random.default_rng(9)
        lower, upper = (SampledWaveform(AWG_RATE, rng.normal(size=4096)) for _ in range(2))
        response = dac_response(lower.freqs(), AWG_RATE, 90e9)
        held = response.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the white IF crosses the LO
            out = stitch_bands(lower, upper, plan, ANALOG_RATE, mixer_bandwidth_hz=150e9,
                               dac_response=response)
            phase = -2 * np.pi * plan.lo_frequency_hz * bessel_group_delay_dc(90e9)
            upper_rf = mixer_upconvert(dac(upper, ANALOG_RATE, response), plan.lo_frequency_hz,
                                       150e9, phase)
        hpf = 1.0 - filter_response(plan.analog_hpf_cutoff_hz, 2e9, upper_rf.n, ANALOG_RATE)
        expect = combine(dac(lower, ANALOG_RATE, response), apply_filter(upper_rf, hpf))
        assert out.spectrum.tobytes() == expect.spectrum.tobytes()
        assert response.tobytes() == held

    def test_awg_records_must_share_grid(self):
        plan = BandPlan(76e9, 75e9, 72e9)
        w = SampledWaveform(AWG_RATE, np.ones(64))
        with pytest.raises(ParameterError, match="share rate and length"):
            stitch_bands(w, SampledWaveform(AWG_RATE, np.ones(32)), plan, ANALOG_RATE)
