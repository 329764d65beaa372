"""Fiber propagation and optical receive-side conditioning.

Dispersion follows the Sellmeier-slope model D(lambda) =
(S0/4)(lambda - lambda0^4/lambda^3); propagation is a frequency-domain
all-pass exp(+j pi lambda^2 D L f^2 / c), so anomalous dispersion (D > 0)
advances high frequencies. Kerr nonlinearity is out of scope for these
short single-span links.

The field stays spectral from fiber to photodiode: ``propagate`` and
``obpf`` multiply the record spectrum, and ``optical_amplify`` adds the ASE
as its DFT to a field that holds its spectrum. The modulator output is
real-valued, so ``propagate`` takes its ``rfft`` and writes the negative
half of the spectrum as the conjugate mirror, and ``photodetect`` forms
|E|^2 of the spectrum-held field from two ``irfft``s: with a fiber, the
optical chain costs three real transforms and no complex one.

The dispersion all-passes and the OBPF passband depend on |f| only, so they
are built on the ``n // 2 + 1`` ``rfftfreq`` bins and applied to both
halves of the n-bin spectrum, without a full-length response. ``fftfreq``
gives the negative bins as exactly the negated ``rfftfreq`` values, so this
is bit-equal to evaluating them on every bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .sigcore import SampledWaveform

#: Speed of light in vacuum (m/s), exact by the SI definition of the metre.
_C_M_S = 299_792_458.0


@dataclass(frozen=True)
class FiberSpec:
    """Single fiber segment (or one core of the multicore fiber)."""

    length_km: float
    zero_dispersion_wavelength_nm: float = 1280.0
    dispersion_slope_ps_nm2_km: float = 0.092
    attenuation_db_km: float = 0.4

    def __post_init__(self):
        for key in ("length_km", "dispersion_slope_ps_nm2_km", "attenuation_db_km"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value >= 0):
                raise ParameterError("must be finite and non-negative", key)


@dataclass(frozen=True)
class OpticalAmpSpec:
    """Flat-gain amplifier with additive white complex Gaussian field noise.

    ``noise_spectral_density`` is the field-noise power density (W/Hz); the
    per-sample variance is density times the simulation rate, and the mean
    |bin|^2 of the n-bin DFT is n times that.
    """

    gain_db: float = 0.0
    noise_spectral_density: float = 0.0

    def __post_init__(self):
        if self.noise_spectral_density < 0:
            raise ParameterError("must be non-negative", "noise_spectral_density")


def dispersion_coefficient(lambda_nm: float, spec: FiberSpec) -> float:
    """D in ps/(nm km); exactly zero at the zero-dispersion wavelength."""
    if lambda_nm <= 0:
        raise ParameterError("wavelength must be positive")
    s0 = spec.dispersion_slope_ps_nm2_km
    lam0 = spec.zero_dispersion_wavelength_nm
    return (s0 / 4.0) * (lambda_nm - lam0**4 / lambda_nm**3)


def dispersion_phase(freq_hz: np.ndarray, spec: FiberSpec, lambda_nm: float,
                     length_km: float) -> np.ndarray:
    """Phase pi lambda^2 D L f^2 / c (radians) that ``length_km`` of the
    fiber ``spec`` imposes at baseband frequency ``freq_hz``; propagation
    multiplies the spectrum by exp(+j phase), a CD trim by exp(-j phase)."""
    d_si = dispersion_coefficient(lambda_nm, spec) * 1e-6  # s/m^2
    lam_m = lambda_nm * 1e-9
    length_m = length_km * 1e3
    return np.pi * lam_m**2 * d_si * length_m * freq_hz**2 / _C_M_S


def propagate(field: SampledWaveform, spec: FiberSpec, lambda_nm: float) -> SampledWaveform:
    """Chromatic dispersion (all-pass) plus scalar attenuation.

    A field that holds only real-valued samples (the modulator output) is
    read by its ``rfft``; any other field by its full spectrum.
    """
    if field.domain_tag != "optical_field":
        raise ParameterError("propagate expects an optical field envelope")
    if spec.length_km == 0:
        return field
    loss = 10 ** (-spec.attenuation_db_km * spec.length_km / 20.0)
    allpass = 1j * dispersion_phase(_half_freqs(field), spec, lambda_nm, spec.length_km)
    np.exp(allpass, out=allpass)
    if not field.holds_spectrum and not np.any(field.samples.imag):
        return field.with_spectrum(_real_times_even(field.samples.real, allpass, loss))
    return field.with_spectrum(_times_even(field.spectrum, allpass, scale=loss))


def optical_amplify(field: SampledWaveform, spec: OpticalAmpSpec,
                    seed: int | None = None) -> SampledWaveform:
    """Amplitude gain plus seeded ASE noise over the simulation bandwidth.

    The noise is drawn in the form the field holds, so the stage costs no
    transform. A samples-only field (no fiber before the amplifier) gets
    complex white noise whose real and imaginary parts are each N(0, s^2),
    with 2 s^2 = density * rate. A field that holds its spectrum (after
    ``propagate``) gets the noise's DFT instead: the DFT of n i.i.d.
    circular complex Gaussian samples is n i.i.d. circular complex Gaussian
    bins with n times the per-sample variance, so the bins are drawn with
    parts N(0, n s^2) and the noise has the same distribution either way.
    """
    gain = 10 ** (spec.gain_db / 20.0)
    if spec.noise_spectral_density == 0:
        return field.scaled(gain)
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(spec.noise_spectral_density * field.sample_rate_hz / 2.0)
    spectral = field.holds_spectrum
    if spectral:
        out = gain * field.spectrum
        sigma *= np.sqrt(field.n)
    else:
        out = gain * field.samples
    # real then imaginary part, each added in place to spare a record
    out.real += rng.normal(0, sigma, field.n)
    out.imag += rng.normal(0, sigma, field.n)
    return field.with_spectrum(out) if spectral else field.with_samples(out)


def obpf(field: SampledWaveform, bandwidth_hz: float | None, fiber: FiberSpec,
         wavelength_nm: float, trim_km: float = 0.0) -> SampledWaveform:
    """Programmable optical filter on the complex envelope: a brick-wall
    passband ``bandwidth_hz`` wide centred on the carrier (None passes every
    bin) times the all-pass that undoes the dispersion of ``trim_km`` of
    ``fiber``. Both depend on |f| only, so the response is even in f. With
    neither, the field passes unchanged.
    """
    if field.domain_tag != "optical_field":
        raise ParameterError("obpf expects an optical field envelope")
    if bandwidth_hz is None and trim_km == 0:
        return field
    f = _half_freqs(field)
    spectrum = field.spectrum
    if trim_km == 0:
        # the passband alone, equal to multiplying by it up to the sign of
        # zeros: zero the bins with |f| above its edge, which on the n-bin
        # grid are k..n - k for the first such rfftfreq bin k
        k = int(np.searchsorted(f, bandwidth_hz / 2, side="right"))
        out = spectrum.copy()
        out[k:field.n - k + 1] = 0.0
        return field.with_spectrum(out)
    resp = -1j * dispersion_phase(f, fiber, wavelength_nm, trim_km)
    np.exp(resp, out=resp)
    if bandwidth_hz is not None:
        resp[f > bandwidth_hz / 2] = 0.0
    del f
    return field.with_spectrum(_times_even(spectrum, resp))


def _half_freqs(field: SampledWaveform) -> np.ndarray:
    """|f| of the optical field's bins 0..n // 2 (the ``rfftfreq`` grid)."""
    return np.fft.rfftfreq(field.n, d=1.0 / field.sample_rate_hz)


def _times_even(spectrum: np.ndarray, half: np.ndarray,
                scale: float | None = None) -> np.ndarray:
    """``scale * spectrum`` (n ``fft`` bins) times the response that is even
    in f and takes the values ``half`` on bins 0..n // 2, as a new array.

    Bins n // 2 + 1..n - 1 hold the frequencies -((n - 1) // 2)..-1, so they
    take ``half[(n - 1) // 2..1]``. The spectrum stays the first factor, as
    numpy's complex products do not commute bitwise, and no product is taken
    in place: numpy rounds an in-place product of one element differently.
    """
    n = spectrum.size
    h = n // 2 + 1
    out = np.empty_like(spectrum)
    for part, resp in ((slice(0, h), half), (slice(h, n), half[1:(n + 1) // 2][::-1])):
        x = spectrum[part] if scale is None else scale * spectrum[part]
        np.multiply(x, resp, out=out[part])
        del x  # the scaled half record goes before the next is made
    return out


def _real_times_even(samples: np.ndarray, half: np.ndarray, scale: float) -> np.ndarray:
    """``_times_even(scale * fft(samples), half)`` for real ``samples``, from
    their ``rfft``: bins n // 2 + 1..n - 1 of the ``fft`` are the conjugates
    of bins (n - 1) // 2..1, so they take the mirrored conjugate times the
    same mirrored response."""
    n = samples.size
    h = n // 2 + 1
    x = np.fft.rfft(samples)
    x *= scale
    out = np.empty(n, dtype=np.complex128)
    np.multiply(x, half, out=out[:h])
    np.conjugate(x, out=x)
    mirror = slice((n + 1) // 2 - 1, 0, -1)
    np.multiply(x[mirror], half[mirror], out=out[h:])
    return out
