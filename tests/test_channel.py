import tracemalloc

import numpy as np
import pytest
from scipy.constants import c as C_M_S

from conftest import traced_peak
from imddsim.channel import (
    FiberSpec,
    OpticalAmpSpec,
    _allpass,
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


def random_field(kind, n):
    """n Gaussian samples of a field, real-valued or complex, seeded by n."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    return x if kind == "real" else x + 1j * rng.normal(size=n)


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


class TestAllpass:
    """``propagate`` and the OBPF's CD trim form their all-pass by one
    function, with the bits of the complex exponentials they replace."""

    @pytest.mark.parametrize("lam, length_km", [
        (1330.0, 11.0),  # D > 0: phases from 0 up
        (1260.0, 11.0),  # D < 0: negative phases
        (1280.0, 2.0),  # at the zero-dispersion wavelength: every phase 0
        (1550.0, 1e4),  # phases far beyond 2 pi
    ])
    def test_bit_equal_to_complex_exponent(self, lam, length_km):
        f = np.concatenate([np.linspace(-3e12, 3e12, 4001), [0.0, -0.0, 1e15, -1e15]])
        phase = dispersion_phase(f, O_FIBER, lam, length_km)
        for sign in (1.0, -1.0):
            expect = np.exp(sign * 1j * phase)
            if sign > 0:
                # 1j * -0.0 is (-0, +0): the product drops the sign of a
                # zero phase (D < 0 at f = 0), which the all-pass keeps
                expect[np.signbit(phase) & (phase == 0)] = complex(1.0, -0.0)
            # written into a view, as the trim writes the passband's bins,
            # and leaving the bins past it zero
            held = np.zeros(f.size + 3, dtype=np.complex128)
            out = _allpass(f, O_FIBER, lam, sign * length_km, held[:f.size])
            assert out.tobytes() == expect.tobytes(), sign
            assert held[:f.size].tobytes() == out.tobytes()
            assert not held[f.size:].any()
        if lam == 1260.0:
            assert phase.max() == 0.0 > phase.min()
        elif lam == 1550.0:
            assert phase.max() > 1e6


class TestPropagate:
    def test_zero_length_identity(self):
        # at zero length the all-pass and the loss are exactly 1, so the
        # spectrum comes back bit for bit
        for n in (1, 2, 3, 16, 17, 1 << 12, (1 << 12) + 1, 1 << 14):
            rng = np.random.default_rng(n)
            spectrum = rng.normal(size=n) + 1j * rng.normal(size=n)
            out = propagate(SampledWaveform.from_spectrum(RATE, spectrum, n, "optical_field"),
                            FiberSpec(0.0), 1310.0)
            assert out.spectrum.tobytes() == spectrum.tobytes(), n

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
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_closed_form(self, kind, n):
        # odd, even and one-bin records meet the mirror of the even response
        # differently; a real-valued field (the modulator output) has a
        # Hermitian spectrum
        x = random_field(kind, n)
        w = SampledWaveform(RATE, x, "optical_field")
        out = propagate(w, O_FIBER, 1330.0).spectrum
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
        out = optical_amplify(w, OpticalAmpSpec(gain_db=6.0), np.random.default_rng(0))
        assert np.allclose(out.samples, 10 ** (6.0 / 20.0) * w.samples)

    def test_noise_variance_matches_density(self):
        n = 1 << 20
        w = SampledWaveform(RATE, np.zeros(n, dtype=complex), "optical_field")
        density = 1e-25
        out = optical_amplify(w, OpticalAmpSpec(0.0, density), np.random.default_rng(1))
        var = np.mean(np.abs(out.samples) ** 2)
        assert var == pytest.approx(density * RATE, rel=0.05, abs=0)

    def test_seed_determinism(self):
        w = gaussian_pulse(5e-12)
        spec = OpticalAmpSpec(3.0, 1e-26)
        a = optical_amplify(w, spec, np.random.default_rng(42))
        b = optical_amplify(w, spec, np.random.default_rng(42))
        assert np.array_equal(a.samples, b.samples)


class TestSpectralAse:
    """The ASE is drawn as its DFT: n i.i.d. circular complex Gaussian bins
    with n times the per-sample variance, added to the field's spectrum."""

    N = 1 << 20
    DENSITY = 1e-25

    def spectral_noise(self, seed):
        w = SampledWaveform.from_spectrum(RATE, np.zeros(self.N, dtype=complex),
                                          self.N, "optical_field")
        return optical_amplify(w, OpticalAmpSpec(0.0, self.DENSITY), np.random.default_rng(seed))

    def test_noise_variance_matches_density(self):
        out = self.spectral_noise(1)
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
        a = optical_amplify(w, spec, np.random.default_rng(42))
        b = optical_amplify(w, spec, np.random.default_rng(42))
        assert np.array_equal(a.spectrum, b.spectrum)
        assert not np.array_equal(a.spectrum,
                                  optical_amplify(w, spec, np.random.default_rng(43)).spectrum)


class TestObpf:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1 << 12, (1 << 12) + 1])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_closed_form(self, kind, n):
        # odd, even and one-bin records meet the mirror of the even response
        # differently; the complex field is what the filter sees after the
        # ASE
        x = random_field(kind, n)
        w = SampledWaveform(RATE, x, "optical_field")
        f = np.abs(np.fft.fftfreq(n, 1 / RATE))
        for trim_km in (2.0, 0.0):  # with no trim, the passband alone
            resp = np.exp(-1j * dispersion_phase(f, O_FIBER, 1310.0, trim_km))
            resp[f > 50e9] = 0.0
            expect = np.fft.fft(x) * resp
            out = obpf(w, 100e9, O_FIBER, 1310.0, trim_km=trim_km).spectrum
            assert np.max(np.abs(out - expect)) <= 1e-12 * np.max(np.abs(expect)), trim_km

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
    """The all-passes are built in place and the field is detected by two
    ``irfft``s, so each stage holds fewer record-sized arrays at once beyond
    its input, with the bytes of the out-of-place products."""

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

    @pytest.mark.parametrize("stage, records", [
        # 2.44 complex records: the loss product and the output, with the
        # all-pass built in place on the half grid; 2.50 with the complex
        # temporary of 1j * phase
        (lambda w: propagate(w, O_FIBER, 1330.0), 2.47),
        # 1.31 complex records with the trim on the passband bins; 1.56 on
        # every half-grid bin, 2.13 on the full grid, and 2.56 out of place
        (lambda w: obpf(w, 100e9, O_FIBER, 1310.0, trim_km=2.0), 2.35),
        # 2.03 complex records from two irffts; 3.50 from the complex ifft
        (lambda w: photodetect(w, 0.0, np.random.default_rng(0)), 2.5),
    ], ids=["propagate", "obpf", "photodetect"])
    def test_peak_memory(self, stage, records):
        rng = np.random.default_rng(6)
        n = 1 << 16
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

    def test_propagate(self):
        # the field goes once its loss product is formed, before the output
        # is made: handed on, it adds nothing to the peak the stage reaches
        # on a field its caller holds (2.50 records: the loss product, the
        # output and the all-pass blocks), where a stage that kept it would
        # add one full record (3.50)
        rng = np.random.default_rng(8)

        def field():
            return SampledWaveform.from_spectrum(
                RATE, rng.normal(size=2 * self.N).view(complex), self.N, "optical_field")

        peak = traced_peak(lambda: propagate(field(), O_FIBER, 1330.0))
        held = field()
        held_peak = traced_peak(lambda: propagate(held, O_FIBER, 1330.0))
        assert peak < held_peak + 0.25 * 16 * self.N

    def test_optical_amplify(self):
        # the field goes once its gain product is formed, before the ASE is
        # drawn: 2.00 records, 2.50 with the field held
        rng = np.random.default_rng(9)
        peak = traced_peak(lambda: optical_amplify(
            SampledWaveform.from_spectrum(RATE, rng.normal(size=2 * self.N).view(complex),
                                          self.N, "optical_field"),
            OpticalAmpSpec(3.0, 2e-17), np.random.default_rng(5)))
        assert peak < 2.25 * 16 * self.N
