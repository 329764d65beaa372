"""Fiber propagation and optical receive-side conditioning.

Dispersion follows the Sellmeier-slope model D(lambda) =
(S0/4)(lambda - lambda0^4/lambda^3); propagation is a frequency-domain
all-pass exp(+j pi lambda^2 D L f^2 / c), so anomalous dispersion (D > 0)
advances high frequencies. Kerr nonlinearity is out of scope for these
short single-span links.

The field stays spectral from modulator to photodiode: the modulator hands
on the field as its spectrum, ``propagate`` and ``obpf`` multiply it, and
``optical_amplify`` adds the ASE as its DFT. The modulator output is
real-valued, so the modulator takes its ``rfft`` and writes the negative
half of the spectrum as the conjugate mirror, and ``photodetect`` forms
|E|^2 from two ``irfft``s: the optical chain costs three real transforms and
no complex one.

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
from .sigcore import _RESPONSE_BLOCK, SampledWaveform, _bin_spacing, _require_finite

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
    """Chromatic dispersion (all-pass) plus scalar attenuation, on the
    field's spectrum."""
    if field.domain_tag != "optical_field":
        raise ParameterError("propagate expects an optical field envelope")
    loss = 10 ** (-spec.attenuation_db_km * spec.length_km / 20.0)
    n, rate = field.n, field.sample_rate_hz
    x = loss * field.spectrum
    del field  # a caller that handed the field on frees it here

    def allpass(f):
        out = 1j * dispersion_phase(f, spec, lambda_nm, spec.length_km)
        return np.exp(out, out=out)

    out = _times_even(x, n, rate, allpass)
    return SampledWaveform._from_spectrum(rate, out, n, "optical_field")


def optical_amplify(field: SampledWaveform, spec: OpticalAmpSpec,
                    seed: int | None = None) -> SampledWaveform:
    """Amplitude gain plus seeded ASE noise over the simulation bandwidth,
    on the field's spectrum.

    The noise is drawn as its DFT, so the stage costs no transform on a
    field that holds its spectrum (as ``propagate`` hands it on). Complex
    white noise whose real and imaginary parts are each N(0, s^2), with
    2 s^2 = density * rate, has as its DFT n i.i.d. circular complex
    Gaussian bins with n times the per-sample variance, so the bins are
    drawn with parts N(0, n s^2).
    """
    gain = 10 ** (spec.gain_db / 20.0)
    n, rate = field.n, field.sample_rate_hz
    out = gain * field.spectrum
    del field  # a caller that handed the field on frees it here
    if spec.noise_spectral_density > 0:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(spec.noise_spectral_density * rate / 2.0) * np.sqrt(n)
        # real then imaginary part, each added in place to spare a record
        out.real += rng.normal(0, sigma, n)
        out.imag += rng.normal(0, sigma, n)
    _require_finite(out, "amplified field spectrum")
    return SampledWaveform._from_spectrum(rate, out, n, "optical_field")


def obpf(field: SampledWaveform, bandwidth_hz: float | None, fiber: FiberSpec,
         wavelength_nm: float, trim_km: float = 0.0) -> SampledWaveform:
    """Programmable optical filter on the complex envelope's spectrum: a
    brick-wall passband ``bandwidth_hz`` wide centred on the carrier (None
    passes every bin) times the all-pass that undoes the dispersion of
    ``trim_km`` of ``fiber``. Both depend on |f| only, so the response is
    even in f. The all-pass is evaluated on the passband only; every bin
    above ``bandwidth_hz / 2`` is exactly 0. With neither, the field passes
    unchanged.
    """
    if field.domain_tag != "optical_field":
        raise ParameterError("obpf expects an optical field envelope")
    if bandwidth_hz is None and trim_km == 0:
        return field
    n, rate = field.n, field.sample_rate_hz

    def response(f):
        # f rises, so the passband is the block's first bins; the trim is
        # evaluated on those alone
        passband = f.size if bandwidth_hz is None else np.count_nonzero(
            f <= bandwidth_hz / 2)
        if trim_km == 0:
            out = np.ones(f.size)
            out[passband:] = 0.0
            return out
        # -1j * phase is exactly (+0, -phase), so the exponent is written
        # into the zeros as its imaginary part, with no complex temporary
        out = np.zeros(f.size, dtype=np.complex128)
        np.negative(dispersion_phase(f[:passband], fiber, wavelength_nm, trim_km),
                    out=out.imag[:passband])
        np.exp(out[:passband], out=out[:passband])
        return out

    out = _times_even(field.spectrum, n, rate, response)
    return SampledWaveform._from_spectrum(rate, out, n, "optical_field")


def _times_even(x: np.ndarray, n: int, rate_hz: float, response) -> np.ndarray:
    """The n-bin spectrum ``x`` times the response that is even in f, as a
    new array.

    The response is ``response(f)`` on blocks of ``_RESPONSE_BLOCK`` bins
    0..n // 2, with ``f`` their frequencies at ``rate_hz`` formed as
    ``rfftfreq`` forms them, so neither the grid nor the response is held at
    full length; bin n - j takes the value at bin j.

    Each value is the product one full-length product would give: the
    spectrum stays the first factor, as numpy's complex products do not
    commute bitwise, and no product is taken in place, as numpy rounds an
    in-place product of one element differently.
    """
    out = np.empty(n, dtype=np.complex128)
    h = n // 2 + 1
    top = (n + 1) // 2  # bins 1..top - 1 have their mirror at n - j
    step = _bin_spacing(n, rate_hz)
    for a in range(0, h, _RESPONSE_BLOCK):
        b = min(a + _RESPONSE_BLOCK, h)
        resp = response(np.arange(a, b) * step)
        np.multiply(x[a:b], resp, out=out[a:b])
        lo, hi = max(a, 1), min(b, top)
        if lo >= hi:
            continue
        np.multiply(x[n - hi + 1: n - lo + 1][::-1], resp[lo - a: hi - a],
                    out=out[n - hi + 1: n - lo + 1][::-1])
    return out
