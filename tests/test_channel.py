import tracemalloc

import numpy as np
import pytest
from scipy.constants import c as C_M_S

from conftest import hands_off, traced_peak
from imddsim.channel import (
    FiberSpec,
    OpticalAmpSpec,
    dispersion_coefficient,
    dispersion_phase,
    obpf,
    optical_amplify,
    propagate,
)
from imddsim.errors import ParameterError
from imddsim.rxdsp import photodetect
from imddsim.sigcore import SampledWaveform, nmse_db

RATE = 2048e9  # fine time resolution for pulse-width measurements

O_FIBER = FiberSpec(2.0, zero_dispersion_wavelength_nm=1280.0,
                    dispersion_slope_ps_nm2_km=0.092, attenuation_db_km=0.4)


def gaussian_pulse(t0_s, n=16384, rate=RATE):
    t = (np.arange(n) - n / 2) / rate
    return SampledWaveform(rate, np.exp(-(t**2) / (2 * t0_s**2)).astype(complex),
                           "optical_field")


def intensity_width(wave):
    """1/e half-width of a Gaussian intensity profile via second moments."""
    inten = np.abs(wave.samples) ** 2
    t = np.arange(wave.n) / wave.sample_rate_hz
    t0 = np.sum(t * inten) / np.sum(inten)
    var = np.sum((t - t0) ** 2 * inten) / np.sum(inten)
    return np.sqrt(2 * var)


class TestDispersionCoefficient:
    def test_zero_at_lambda0(self):
        assert dispersion_coefficient(1280.0, O_FIBER) == 0.0

    def test_closed_form_at_1310(self):
        d = dispersion_coefficient(1310.0, O_FIBER)
        expect = (0.092 / 4.0) * (1310.0 - 1280.0**4 / 1310.0**3)
        assert d == pytest.approx(expect, abs=1e-12)
        assert 2.6 < d < 2.7

    def test_monotone_above_lambda0(self):
        ds = [dispersion_coefficient(lam, O_FIBER)
              for lam in (1290, 1310, 1330, 1350, 1370)]
        assert all(b > a for a, b in zip(ds, ds[1:]))


class TestPropagate:
    def test_zero_length_identity(self):
        w = gaussian_pulse(5e-12)
        out = propagate(w, FiberSpec(0.0), 1310.0)
        assert np.array_equal(out.samples, w.samples)

    def test_energy_conserved_up_to_loss(self):
        w = gaussian_pulse(5e-12)
        spec = FiberSpec(7.0, attenuation_db_km=0.3)
        out = propagate(w, spec, 1330.0)
        e_in = np.sum(np.abs(w.samples) ** 2)
        e_out = np.sum(np.abs(out.samples) ** 2)
        loss = 10 ** (-0.3 * 7.0 / 10.0)
        assert abs(e_out - loss * e_in) / e_in < 1e-10

    def test_gaussian_broadening_closed_form(self):
        t0 = 5e-12
        lam_nm = 1310.0
        d = dispersion_coefficient(lam_nm, O_FIBER) * 1e-6  # s/m^2
        beta2 = (lam_nm * 1e-9) ** 2 * d / (2 * np.pi * C_M_S)
        length_km = t0**2 / beta2 / 1e3  # beta2 * L = T0^2
        spec = FiberSpec(length_km, zero_dispersion_wavelength_nm=1280.0,
                         dispersion_slope_ps_nm2_km=0.092, attenuation_db_km=0.0)
        w = gaussian_pulse(t0)
        out = propagate(w, spec, lam_nm)
        assert intensity_width(w) == pytest.approx(t0, rel=1e-3)
        assert intensity_width(out) == pytest.approx(np.sqrt(2) * t0, rel=0.01)

    def test_semigroup(self):
        w = gaussian_pulse(3e-12)
        one = propagate(propagate(w, FiberSpec(4.0), 1330.0), FiberSpec(6.0), 1330.0)
        two = propagate(w, FiberSpec(10.0), 1330.0)
        assert nmse_db(two, one) < -90

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1 << 12, (1 << 12) + 1])
    def test_real_field_read_by_rfft(self, n):
        # a field that holds only real-valued samples (the modulator output)
        # is read by its rfft, the negative half written as the conjugate
        # mirror; odd, even and one-bin records meet the mirror differently
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        w = SampledWaveform(RATE, x.astype(complex), "optical_field")
        out = propagate(w, O_FIBER, 1330.0).spectrum
        assert not w.holds_spectrum  # no complex fft of the input ran
        loss = 10 ** (-O_FIBER.attenuation_db_km * O_FIBER.length_km / 20.0)
        phase = dispersion_phase(w.freqs(), O_FIBER, 1330.0, O_FIBER.length_km)
        expect = loss * np.fft.fft(x) * np.exp(1j * phase)
        assert np.max(np.abs(out - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_requires_optical_field(self):
        w = SampledWaveform(RATE, np.ones(64))
        with pytest.raises(ParameterError):
            propagate(w, O_FIBER, 1310.0)


class TestOpticalAmplify:
    def test_pure_scaling_without_noise(self):
        w = gaussian_pulse(5e-12)
        out = optical_amplify(w, OpticalAmpSpec(gain_db=6.0), seed=0)
        assert np.allclose(out.samples, 10 ** (6.0 / 20.0) * w.samples)

    def test_noise_variance_matches_density(self):
        n = 1 << 20
        w = SampledWaveform(RATE, np.zeros(n, dtype=complex), "optical_field")
        density = 1e-25
        out = optical_amplify(w, OpticalAmpSpec(0.0, density), seed=1)
        var = np.mean(np.abs(out.samples) ** 2)
        assert var == pytest.approx(density * RATE, rel=0.05, abs=0)

    def test_seed_determinism(self):
        w = gaussian_pulse(5e-12)
        spec = OpticalAmpSpec(3.0, 1e-26)
        a = optical_amplify(w, spec, seed=42)
        b = optical_amplify(w, spec, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_samples_only_field_gets_sample_noise(self):
        w = gaussian_pulse(5e-12)
        spec = OpticalAmpSpec(3.0, 1e-26)
        out = optical_amplify(w, spec, seed=42)
        assert not out.holds_spectrum
        rng = np.random.default_rng(42)
        sigma = np.sqrt(spec.noise_spectral_density * RATE / 2.0)
        gain = 10 ** (spec.gain_db / 20.0)
        expect = (gain * w.samples + rng.normal(0, sigma, w.n)
                  + 1j * rng.normal(0, sigma, w.n))
        assert np.array_equal(out.samples, expect)


class TestSpectralAse:
    """On a field that holds its spectrum the ASE is drawn as its DFT: n
    i.i.d. circular complex Gaussian bins with n times the per-sample
    variance, added to the spectrum."""

    N = 1 << 20
    DENSITY = 1e-25

    def spectral_noise(self, seed):
        w = SampledWaveform.from_spectrum(RATE, np.zeros(self.N, dtype=complex),
                                          self.N, "optical_field")
        return optical_amplify(w, OpticalAmpSpec(0.0, self.DENSITY), seed=seed)

    def test_noise_variance_matches_density(self):
        out = self.spectral_noise(1)
        assert out.holds_spectrum
        var = np.mean(np.abs(out.samples) ** 2)
        assert var == pytest.approx(self.DENSITY * RATE, rel=0.05, abs=0)

    def test_noise_is_white(self):
        out = self.spectral_noise(3)
        power = np.abs(out.spectrum) ** 2
        order = np.argsort(np.abs(out.freqs()), kind="stable")
        quarter = self.N // 4
        low = power[order[:quarter]].mean()
        high = power[order[-quarter:]].mean()
        assert high == pytest.approx(low, rel=0.05)
        assert low == pytest.approx(self.N * self.DENSITY * RATE, rel=0.05)

    def test_seed_determinism(self):
        w = propagate(gaussian_pulse(5e-12), O_FIBER, 1330.0)
        spec = OpticalAmpSpec(3.0, 1e-26)
        a = optical_amplify(w, spec, seed=42)
        b = optical_amplify(w, spec, seed=42)
        assert a.holds_spectrum
        assert np.array_equal(a.spectrum, b.spectrum)
        assert not np.array_equal(a.spectrum,
                                  optical_amplify(w, spec, seed=43).spectrum)


class TestObpf:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1 << 12, (1 << 12) + 1])
    def test_real_field_read_by_rfft(self, n):
        # a field that holds only real-valued samples (no fiber before the
        # filter) is read by its rfft and the negative half of the spectrum
        # written as the conjugate mirror; odd, even and one-bin records meet
        # the mirror differently
        x = np.random.default_rng(n).normal(size=n)
        w = SampledWaveform(RATE, x.astype(complex), "optical_field")
        f = np.abs(np.fft.fftfreq(n, 1 / RATE))
        for trim_km in (2.0, 0.0):  # with no trim, the passband alone
            resp = np.exp(-1j * dispersion_phase(f, O_FIBER, 1310.0, trim_km))
            resp[f > 50e9] = 0.0
            expect = np.fft.fft(x) * resp
            out = obpf(w, 100e9, O_FIBER, 1310.0, trim_km=trim_km).spectrum
            assert np.max(np.abs(out - expect)) <= 1e-12 * np.max(np.abs(expect)), trim_km
        assert not w.holds_spectrum  # no complex fft of the input ran

    def test_unit_response_identity(self):
        w = gaussian_pulse(5e-12)
        assert obpf(w, None, O_FIBER, 1310.0) is w
        out = obpf(w, RATE, O_FIBER, 1310.0)  # passband wider than the grid
        assert nmse_db(w, out) < -150

    def test_cd_trim_inverts_propagation(self):
        w = gaussian_pulse(4e-12)
        lam = 1330.0
        spec = FiberSpec(8.0, attenuation_db_km=0.0)
        dispersed = propagate(w, spec, lam)
        out = obpf(dispersed, None, spec, lam, trim_km=spec.length_km)
        assert nmse_db(w, out) < -60

    def test_brickwall_bandpass_on_noise(self):
        rng = np.random.default_rng(2)
        n = 1 << 16
        w = SampledWaveform(RATE, rng.normal(size=n) + 1j * rng.normal(size=n),
                            "optical_field")
        bw = 100e9
        out = obpf(w, bw, O_FIBER, 1310.0)
        spec = np.abs(np.fft.fft(out.samples)) ** 2
        freqs = np.abs(np.fft.fftfreq(n, 1 / RATE))
        inside = spec[freqs <= bw / 2].mean()
        outside = spec[freqs > bw / 2 + 2 * RATE / n].mean()
        assert 10 * np.log10(outside / inside) < -60


class TestChannelMemory:
    """The all-passes are built in place, a real-valued field is read by its
    ``rfft`` and a spectrum-held one detected by two ``irfft``s, so each
    stage holds fewer record-sized arrays at once beyond its input, with the
    bytes of the out-of-place products."""

    def test_bit_equal_to_out_of_place(self):
        # the responses are built on the n // 2 + 1 rfftfreq bins and
        # mirrored onto the negative ones; odd, even and the shortest records
        # cover every way the two halves meet
        rng = np.random.default_rng(7)
        loss = 10 ** (-O_FIBER.attenuation_db_km * O_FIBER.length_km / 20.0)
        for n in (1, 2, 3, 16, 17, 1 << 12, (1 << 12) + 1):
            w = SampledWaveform(RATE, rng.normal(size=n) + 1j * rng.normal(size=n),
                                "optical_field")
            f = w.freqs()
            phase = dispersion_phase(f, O_FIBER, 1330.0, O_FIBER.length_km)
            expect = loss * w.spectrum * np.exp(1j * phase)
            assert np.array_equal(propagate(w, O_FIBER, 1330.0).spectrum, expect), n
            for trim_km in (2.0, 0.0):  # with no trim, the passband alone
                resp = np.exp(-1j * dispersion_phase(np.abs(f), O_FIBER, 1310.0, trim_km))
                resp[np.abs(f) > 50e9] = 0.0
                out = obpf(w, 100e9, O_FIBER, 1310.0, trim_km=trim_km).spectrum
                assert np.array_equal(out, w.spectrum * resp), (n, trim_km)

    @pytest.mark.parametrize("stage, real, records", [
        # 2.00 complex records with the all-pass on the half grid; 2.63 on
        # the full grid, and 3.50 with it built out of place
        (lambda w: propagate(w, O_FIBER, 1330.0), False, 3.0),
        # 2.00 complex records from the rfft; 3.00 from the full fft
        (lambda w: propagate(w, O_FIBER, 1330.0), True, 2.5),
        # 1.56 complex records on the half grid; 2.13 on the full grid, and
        # 2.56 out of place
        (lambda w: obpf(w, 100e9, O_FIBER, 1310.0, trim_km=2.0), False, 2.35),
        # 2.03 complex records from two irffts; 3.50 from the complex ifft
        (photodetect, False, 2.5),
    ], ids=["propagate", "propagate-real", "obpf", "photodetect"])
    def test_peak_memory(self, stage, real, records):
        rng = np.random.default_rng(6)
        n = 1 << 16
        if real:  # the modulator output: real-valued samples only
            w = SampledWaveform(RATE, rng.normal(size=n).astype(complex), "optical_field")
        else:  # the input arrives holding only its spectrum
            w = SampledWaveform.from_spectrum(
                RATE, rng.normal(size=n) + 1j * rng.normal(size=n), n, "optical_field")
        tracemalloc.start()
        try:
            stage(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < records * 16 * n


class TestHandOff:
    """A stage frees the field its caller handed on once it has read it.
    The field is built inside the call, so the test holds no reference;
    peaks are in complex records of the field's n samples."""

    N = 1 << 16

    @hands_off
    def test_propagate(self):
        # the modulator output goes once its rfft is taken, before the
        # output is made, and the all-pass is built in blocks: 2.13 records,
        # 3.00 with the field and the whole all-pass held
        rng = np.random.default_rng(8)
        peak = traced_peak(lambda: propagate(
            SampledWaveform(RATE, rng.normal(size=self.N).astype(complex), "optical_field"),
            O_FIBER, 1330.0))
        assert peak < 2.5 * 16 * self.N

    @hands_off
    def test_optical_amplify(self):
        # the field goes once its gain product is formed, before the ASE is
        # drawn: 2.00 records, 2.50 with the field held
        rng = np.random.default_rng(9)
        peak = traced_peak(lambda: optical_amplify(
            SampledWaveform.from_spectrum(RATE, rng.normal(size=2 * self.N).view(complex),
                                          self.N, "optical_field"),
            OpticalAmpSpec(3.0, 2e-17), seed=5))
        assert peak < 2.25 * 16 * self.N
