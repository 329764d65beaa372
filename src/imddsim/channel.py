"""Fiber propagation and optical receive-side conditioning.

Dispersion follows the Sellmeier-slope model D(lambda) =
(S0/4)(lambda - lambda0^4/lambda^3); propagation is a frequency-domain
all-pass exp(+j pi lambda^2 D L f^2 / c), so anomalous dispersion (D > 0)
advances high frequencies. Kerr nonlinearity is out of scope for these
short single-span links.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as _C_M_S

from .errors import ParameterError
from .sigcore import SampledWaveform


@dataclass(frozen=True)
class FiberSpec:
    """Single fiber segment (or one core of the multicore fiber)."""

    length_km: float
    zero_dispersion_wavelength_nm: float = 1280.0
    dispersion_slope_ps_nm2_km: float = 0.092
    attenuation_db_km: float = 0.4
    label: str = ""

    def __post_init__(self):
        if self.length_km < 0 or self.dispersion_slope_ps_nm2_km < 0:
            raise ParameterError("length and dispersion slope must be non-negative")


@dataclass(frozen=True)
class OpticalAmpSpec:
    """Flat-gain amplifier with additive white complex Gaussian field noise.

    ``noise_spectral_density`` is the field-noise power density (W/Hz); the
    per-sample variance is density times the simulation rate.
    """

    gain_db: float = 0.0
    noise_spectral_density: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.noise_spectral_density < 0:
            raise ParameterError("noise density must be non-negative")


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
    """Chromatic dispersion (all-pass) plus scalar attenuation."""
    if field.domain_tag != "optical_field":
        raise ParameterError("propagate expects an optical field envelope")
    if spec.length_km == 0:
        return field
    phase = dispersion_phase(field.freqs(), spec, lambda_nm, spec.length_km)
    loss = 10 ** (-spec.attenuation_db_km * spec.length_km / 20.0)
    return field.with_spectrum(loss * field.spectrum * np.exp(1j * phase))


def optical_amplify(field: SampledWaveform, spec: OpticalAmpSpec,
                    seed: int | None = None) -> SampledWaveform:
    """Amplitude gain plus seeded ASE noise over the simulation bandwidth."""
    gain = 10 ** (spec.gain_db / 20.0)
    if spec.noise_spectral_density == 0:
        return field.scaled(gain)
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(spec.noise_spectral_density * field.sample_rate_hz / 2.0)
    noise = rng.normal(0, sigma, field.n) + 1j * rng.normal(0, sigma, field.n)
    return SampledWaveform(field.sample_rate_hz, gain * field.samples + noise,
                           "optical_field")


def obpf(field: SampledWaveform, freq_hz: np.ndarray,
         response: np.ndarray) -> SampledWaveform:
    """Programmable optical filter on the complex envelope.

    The table is interpolated on signed baseband frequencies. A table given
    only for f >= 0 is mirrored evenly (H(-f) = H(f)), which covers plain
    bandpass shapes, inverse-photodiode magnitude trims, and quadratic-phase
    dispersion trims alike.
    """
    if field.domain_tag != "optical_field":
        raise ParameterError("obpf expects an optical field envelope")
    f = np.asarray(freq_hz, dtype=float)
    h = np.asarray(response, dtype=np.complex128)
    if f.size != h.size or f.size < 2 or np.any(np.diff(f) <= 0):
        raise ParameterError("response table must be ascending in frequency")
    grid = field.freqs()
    lookup = np.abs(grid) if f.min() >= 0 else grid
    hr = np.interp(lookup, f, h.real)
    hi = np.interp(lookup, f, h.imag)
    return field.with_spectrum(field.spectrum * (hr + 1j * hi))


def multicore_batch(configs, run_fn=None):
    """Run independent per-core simulations (uncoupled cores, no crosstalk).

    ``configs`` share device models but must carry distinct seeds; the
    delay-line decorrelation of the experiment maps to seed decorrelation
    here. Returns one metrics report per core, in input order.
    """
    configs = list(configs)
    seeds = [cfg.seed for cfg in configs]
    if len(set(seeds)) != len(seeds):
        warnings.warn("duplicate seeds across cores defeat decorrelation",
                      stacklevel=2)
    if run_fn is None:
        from .harness import run_link as run_fn
    return [run_fn(cfg) for cfg in configs]
