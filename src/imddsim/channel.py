"""Fiber propagation and optical receive-side conditioning.

Dispersion follows the Sellmeier-slope model D(lambda) =
(S0/4)(lambda - lambda0^4/lambda^3); propagation is a frequency-domain
all-pass exp(+j pi lambda^2 D L f^2 / c), so anomalous dispersion (D > 0)
advances high frequencies. Kerr nonlinearity is out of scope for these
short single-span links.

The field stays spectral from fiber to photodiode: ``propagate`` and
``obpf`` multiply the record spectrum, and ``optical_amplify`` adds the ASE
as its DFT to a field that holds its spectrum. The modulator output is
real-valued, so ``propagate`` (or ``obpf``, with no fiber before it) takes
its ``rfft`` and writes the negative half of the spectrum as the conjugate
mirror, and ``photodetect`` forms |E|^2 of the spectrum-held field from two
``irfft``s: the optical chain costs three real transforms and no complex
one.

The dispersion all-passes and the OBPF passband depend on |f| only, so they
are evaluated on the ``n // 2 + 1`` ``rfftfreq`` bins, in blocks, and
applied to both halves of the n-bin spectrum, so no full-length response is
held. ``fftfreq`` gives the negative bins as exactly the negated
``rfftfreq`` values, so this is bit-equal to evaluating them on every bin.

Each stage drops its input field once it has read it, so a field that its
caller handed on (passed without binding a name to it) is freed inside the
stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .sigcore import _RESPONSE_BLOCK, SampledWaveform, _require_finite

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
    n, rate = field.n, field.sample_rate_hz
    real = _real_valued(field)
    if real:
        x = np.fft.rfft(field.samples.real)
        x *= loss
    else:
        x = field.spectrum
    del field  # a caller that handed the field on frees it here

    def allpass(f):
        out = 1j * dispersion_phase(f, spec, lambda_nm, spec.length_km)
        return np.exp(out, out=out)

    out = _times_even(x, n, rate, allpass, real, None if real else loss)
    return SampledWaveform._from_spectrum(rate, out, n, "optical_field", owned=True)


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
    n, rate = field.n, field.sample_rate_hz
    spectral = field.holds_spectrum
    out = gain * (field.spectrum if spectral else field.samples)
    del field  # a caller that handed the field on frees it here
    if spec.noise_spectral_density > 0:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(spec.noise_spectral_density * rate / 2.0)
        if spectral:
            sigma *= np.sqrt(n)
        # real then imaginary part, each added in place to spare a record
        out.real += rng.normal(0, sigma, n)
        out.imag += rng.normal(0, sigma, n)
    if not spectral:
        return SampledWaveform(rate, out, "optical_field")  # scans the samples
    _require_finite(out, "amplified field spectrum")
    return SampledWaveform._from_spectrum(rate, out, n, "optical_field", owned=True)


def obpf(field: SampledWaveform, bandwidth_hz: float | None, fiber: FiberSpec,
         wavelength_nm: float, trim_km: float = 0.0) -> SampledWaveform:
    """Programmable optical filter on the complex envelope: a brick-wall
    passband ``bandwidth_hz`` wide centred on the carrier (None passes every
    bin) times the all-pass that undoes the dispersion of ``trim_km`` of
    ``fiber``. Both depend on |f| only, so the response is even in f, and a
    field that holds only real-valued samples (no fiber before the filter)
    is read by its ``rfft``, as ``propagate`` reads it. With neither, the
    field passes unchanged.
    """
    if field.domain_tag != "optical_field":
        raise ParameterError("obpf expects an optical field envelope")
    if bandwidth_hz is None and trim_km == 0:
        return field
    n, rate = field.n, field.sample_rate_hz
    real = _real_valued(field)
    x = np.fft.rfft(field.samples.real) if real else field.spectrum
    del field  # a caller that handed the field on frees it here
    if trim_km == 0:
        # the passband alone, equal to multiplying by it up to the sign of
        # zeros: zero the bins with |f| above its edge, which on the n-bin
        # grid are k..n - k for the first such rfftfreq bin k
        k = int(np.searchsorted(np.fft.rfftfreq(n, d=1.0 / rate), bandwidth_hz / 2,
                                side="right"))
        out = np.empty(n, dtype=np.complex128)
        if real:  # bins n // 2 + 1..n - 1 are the conjugates of (n - 1) // 2..1
            out[: x.size] = x
            np.conjugate(x[(n + 1) // 2 - 1: 0: -1], out=out[x.size:])
        else:
            out[:] = x
        out[k:n - k + 1] = 0.0
        return SampledWaveform._from_spectrum(rate, out, n, "optical_field", owned=True)

    def response(f):
        out = -1j * dispersion_phase(f, fiber, wavelength_nm, trim_km)
        np.exp(out, out=out)
        if bandwidth_hz is not None:
            out[f > bandwidth_hz / 2] = 0.0
        return out

    out = _times_even(x, n, rate, response, real)
    return SampledWaveform._from_spectrum(rate, out, n, "optical_field", owned=True)


def _real_valued(field: SampledWaveform) -> bool:
    """True when ``field`` holds only samples and they are real-valued (the
    modulator output), so its ``rfft`` gives its whole spectrum."""
    return not field.holds_spectrum and not np.any(field.samples.imag)


def _times_even(x: np.ndarray, n: int, rate_hz: float, response, real: bool = False,
                scale: float | None = None) -> np.ndarray:
    """An n-bin spectrum times the response that is even in f, as a new
    array.

    ``x`` is the n-bin spectrum, each value multiplied by ``scale`` first
    when one is given, or with ``real`` the ``rfft`` of a real record (bins
    0..n // 2): bins n // 2 + 1..n - 1 of its ``fft`` are the conjugates of
    bins (n - 1) // 2..1. The response is ``response(f)`` on blocks of
    ``_RESPONSE_BLOCK`` bins 0..n // 2, with ``f`` their frequencies at
    ``rate_hz`` formed as ``rfftfreq`` forms them, so neither the grid nor
    the response is held at full length; bin n - j takes the value at bin j.

    Each value is the product one full-length product would give: the
    spectrum stays the first factor, as numpy's complex products do not
    commute bitwise, and no product is taken in place, as numpy rounds an
    in-place product of one element differently.
    """
    out = np.empty(n, dtype=np.complex128)
    h = n // 2 + 1
    top = (n + 1) // 2  # bins 1..top - 1 have their mirror at n - j
    step = 1.0 / (n * (1.0 / rate_hz))
    for a in range(0, h, _RESPONSE_BLOCK):
        b = min(a + _RESPONSE_BLOCK, h)
        resp = response(np.arange(a, b) * step)
        pos = x[a:b] if scale is None else scale * x[a:b]
        np.multiply(pos, resp, out=out[a:b])
        lo, hi = max(a, 1), min(b, top)
        if lo >= hi:
            continue
        if real:
            neg = np.conj(x[lo:hi])
        else:
            neg = x[n - hi + 1: n - lo + 1][::-1]
            if scale is not None:
                neg = scale * neg
        np.multiply(neg, resp[lo - a: hi - a], out=out[n - hi + 1: n - lo + 1][::-1])
    return out
