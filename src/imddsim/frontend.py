"""Behavioral models of the analog transmitter hardware: DAC, LO/mixer
up-conversion, active combiner, amplifiers, laser, and Mach-Zehnder
modulator.

The optical carrier is a baseband complex envelope; absolute optical
frequency only enters through the fiber dispersion parameters. LO tones are
snapped to the record's frequency grid (the lab locks the LO clocks to the
same AWG), which keeps mixing exactly circular: the LO multiply is a shift
of the one-sided spectrum by whole bins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .sigcore import (
    SampledWaveform,
    apply_filter,
    band_energy_fraction,
    bessel_response,
    filter_response,
    require_real,
    resample,
)
from .txdsp import BandPlan


# ---------------------------------------------------------------------------
# device models
# ---------------------------------------------------------------------------

#: Poles of the Bessel bandwidth of the converters (AWG, DAC, scope), the
#: amplifiers and the photodiode.
ANALOG_BESSEL_ORDER = 4
#: Poles of the Bessel electro-optic bandwidth of the MZM.
MZM_BESSEL_ORDER = 2
#: Normalized frequencies (cutoff 1) that bracket the MZM cutoff solve.
_MZM_CUTOFF_BRACKET = (0.1, 50.0)


@dataclass(frozen=True)
class AmplifierModel:
    """RF amplifier: a fourth-order Bessel bandwidth, linear gain, and an
    optional tanh saturation referenced to its input 1-dB compression level."""

    gain_db: float
    bandwidth_hz: float
    compression_in_1db: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.gain_db):
            raise ParameterError("must be finite", "gain_db")
        if self.bandwidth_hz <= 0:
            raise ParameterError("must be positive", "bandwidth_hz")
        if self.compression_in_1db is not None and self.compression_in_1db <= 0:
            raise ParameterError("must be positive (or None for a linear amplifier)",
                                 "compression_in_1db")

    def response(self, freq_hz: np.ndarray) -> np.ndarray:
        """Complex bandwidth response at ``freq_hz``."""
        return bessel_response(freq_hz, self.bandwidth_hz, ANALOG_BESSEL_ORDER)


@dataclass(frozen=True)
class MzmModel:
    """Mach-Zehnder at quadrature: E = sqrt(P) cos(pi (v + Vpi/2) / (2 Vpi)).

    Zero drive sits at half intensity and +Vpi/2 reaches the null. The
    modulator is lossless; the laser power sets the optical level. The
    electro-optic bandwidth is a second-order Bessel whose magnitude hits
    ``bandwidth_atten_db`` at ``bandwidth_hz``.
    """

    v_pi_volts: float
    bandwidth_hz: float = 110e9
    bandwidth_atten_db: float = 4.5

    def __post_init__(self):
        if self.v_pi_volts <= 0:
            raise ParameterError("must be positive", "v_pi_volts")
        if self.bandwidth_hz <= 0:
            raise ParameterError("must be positive", "bandwidth_hz")
        low, high = (-20 * np.log10(_unit_mzm_gain(x)) for x in _MZM_CUTOFF_BRACKET)
        if not low < self.bandwidth_atten_db < high:
            raise ParameterError(f"must lie in ({low:.3g}, {high:.3g}) dB",
                                 "bandwidth_atten_db")

    @cached_property
    def cutoff_hz(self) -> float:
        """Bessel cutoff placing ``bandwidth_atten_db`` at ``bandwidth_hz``,
        solved once per model."""
        target = 10 ** (-self.bandwidth_atten_db / 20.0)
        return self.bandwidth_hz / _brentq(lambda x: _unit_mzm_gain(x) - target,
                                           *_MZM_CUTOFF_BRACKET)

    def response(self, freq_hz: np.ndarray) -> np.ndarray:
        """Complex electro-optic response at ``freq_hz``."""
        return bessel_response(freq_hz, self.cutoff_hz, MZM_BESSEL_ORDER)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def quantize_uniform(x: np.ndarray, bits: int, full_scale: float | None = None) -> np.ndarray:
    """Mid-rise uniform quantizer over [-FS, FS] (FS defaults to the peak)."""
    if bits < 1:
        raise ParameterError("resolution must be >= 1 bit")
    fs = float(np.max(np.abs(x))) if full_scale is None else float(full_scale)
    if fs == 0:
        return x.copy()
    step = 2.0 * fs / (2**bits)
    q = step * (np.floor(x / step) + 0.5)
    return np.clip(q, -fs + step / 2, fs - step / 2)


def dac_response(freq_hz: np.ndarray, rate_hz: float,
                 bandwidth_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """The converter's response at ``freq_hz``, as its two factors: the
    zero-order-hold droop sinc(f / rate) and the analog Bessel filter."""
    return (np.sinc(freq_hz / rate_hz),
            bessel_response(freq_hz, bandwidth_hz, ANALOG_BESSEL_ORDER))


def dac(wave: SampledWaveform, analog_rate_hz: float, bandwidth_hz: float = 80e9,
        resolution_bits: int | None = None) -> SampledWaveform:
    """Zero-order-hold reconstruction to the analog rate, then the converter's
    analog bandwidth filter.

    The hold is modeled by the continuous ZOH sinc droop applied after exact
    rate conversion; the hold's half-sample delay is referenced out (absolute
    converter timing is owned by the band-alignment step), and hold images
    above the converter Nyquist are not modeled, matching a converter whose
    output network removes them.
    """
    if analog_rate_hz < wave.sample_rate_hz:
        raise ParameterError("analog rate must be at least the DAC rate")
    if resolution_bits is not None:
        wave = wave.with_samples(quantize_uniform(wave.real, resolution_bits))
    up = resample(wave, analog_rate_hz)
    droop, bessel = dac_response(up.freqs(), wave.sample_rate_hz, bandwidth_hz)
    return apply_filter(up.with_spectrum(up.spectrum * droop), bessel)


def mixer_gain(freq_hz: np.ndarray, bandwidth_hz: float) -> np.ndarray:
    """Per-sideband (SSB) conversion gain of the mixer: unity, with a
    second-order magnitude roll-off at the RF-side 3-dB point
    ``bandwidth_hz``. An IF tone of amplitude a yields two images of
    amplitude a each, so an ideal HPF + combiner chain reconstructs at unit
    gain."""
    return 1.0 / np.sqrt(1.0 + (np.abs(freq_hz) / bandwidth_hz) ** 4)


def mixer_upconvert(if_wave: SampledWaveform, lo_frequency_hz: float,
                    bandwidth_hz: float | None = None,
                    lo_phase_rad: float = 0.0) -> SampledWaveform:
    """Multiply by the LO cosine; images at f_LO +- f_IF carry
    ``mixer_gain`` at the RF output frequency (no roll-off when
    ``bandwidth_hz`` is None).

    The LO sits on the record grid (bin k), so 2 x(t) cos(2 pi f_LO t + phi)
    has the spectrum exp(j phi) X[f - f_LO] + exp(-j phi) X[f + f_LO], each
    image a slice of the one-sided spectrum: the lower sideband's bins
    below DC fold back as conjugates, and the upper image of bins near
    Nyquist wraps in past Nyquist as the conjugate half of the record.
    """
    require_real(if_wave, "mixer IF input")
    n, rate = if_wave.n, if_wave.sample_rate_hz
    above_lo = band_energy_fraction(if_wave, lo_frequency_hz, rate / 2)
    if above_lo > 1e-6:
        warnings.warn(
            f"{above_lo:.1%} of IF energy lies above the LO; the folded image "
            "may land in band",
            stacklevel=2,
        )

    k = int(round(lo_frequency_hz * n / rate))
    if not 0 <= k <= n // 2:
        raise ParameterError(f"LO {lo_frequency_hz:.4g} Hz lies outside "
                             f"[0, Nyquist {rate / 2:.4g} Hz]")
    x = if_wave.spectrum
    bins = x.size
    up = np.empty_like(x)  # X[f - f_LO]
    up[k:] = x[: bins - k]
    up[:k] = np.conj(x[k:0:-1])
    down = np.empty_like(x)  # X[f + f_LO]
    down[: bins - k] = x[k:]
    down[bins - k:] = np.conj(x[n - bins - k + 1: n - bins + 1][::-1])
    phasor = np.exp(1j * lo_phase_rad)
    product = phasor * up + np.conj(phasor) * down
    if bandwidth_hz is not None:
        product = product * mixer_gain(if_wave.freqs(), bandwidth_hz)
    return SampledWaveform.from_spectrum(rate, product, n)


def combine(lower: SampledWaveform, upper_rf: SampledWaveform,
            gain_imbalance_db: float = 0.0, skew_s: float = 0.0) -> SampledWaveform:
    """Active combiner: lower + imbalance * delay(upper, skew)."""
    if lower.sample_rate_hz != upper_rf.sample_rate_hz or lower.n != upper_rf.n:
        raise ParameterError("combiner inputs must share rate and length")
    if skew_s != 0.0:
        delay = np.exp(-2j * np.pi * upper_rf.freqs() * skew_s)
        upper_rf = upper_rf.with_spectrum(upper_rf.spectrum * delay)
    return lower.plus(upper_rf, 10 ** (gain_imbalance_db / 20.0))


def _brentq(f, xa: float, xb: float) -> float:
    """Root of ``f`` bracketed by [xa, xb], by Brent's method (Brent 1973,
    ch. 4): inverse quadratic or secant steps, falling back to bisection.
    The step and stopping rules and the tolerances are those of
    ``scipy.optimize.brentq``'s defaults, so the iterates, and the root,
    are the same."""
    xtol, rtol, maxiter = 2e-12, 4 * 2.0**-52, 100
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant (interpolate)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic (extrapolate)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"root search did not converge in {maxiter} iterations")


_TANH_1DB = None


def _tanh_compression_point() -> float:
    """u solving tanh(u)/u = -1 dB; input scale of the saturation map."""
    global _TANH_1DB
    if _TANH_1DB is None:
        target = 10 ** (-1.0 / 20.0)
        _TANH_1DB = _brentq(lambda u: np.tanh(u) / u - target, 1e-3, 3.0)
    return _TANH_1DB


def amplify(wave: SampledWaveform, model: AmplifierModel) -> SampledWaveform:
    """Bandwidth filter, then linear gain, then optional tanh saturation
    referenced to the input 1-dB compression level."""
    out = apply_filter(wave, model.response(wave.freqs()))
    g = 10 ** (model.gain_db / 20.0)
    if model.compression_in_1db is None:
        return out.scaled(g)
    sat = g * model.compression_in_1db / _tanh_compression_point()
    return out.with_samples(sat * np.tanh(g * out.real / sat))


def bessel_group_delay_dc(cutoff_hz: float, order: int = ANALOG_BESSEL_ORDER) -> float:
    """Low-frequency group delay of the analog Bessel response (seconds).

    Bessel delay is maximally flat, so the DC value is representative across
    the passband; the band-stitching alignment uses it to set the LO phase
    the way a lab path-matches the two arms.
    """
    f = cutoff_hz * 1e-4
    h = bessel_response(np.array([f, 2 * f]), cutoff_hz, order)
    return float((np.angle(h[0]) - np.angle(h[1])) / (2 * np.pi * f))


def _unit_mzm_gain(x: float) -> float:
    """|H| of the MZM's Bessel response with unit cutoff at frequency ``x``."""
    return abs(bessel_response(np.array([x]), 1.0, MZM_BESSEL_ORDER)[0])


def mzm_modulate(drive: SampledWaveform, laser_power_dbm: float,
                 model: MzmModel) -> SampledWaveform:
    """Field transfer E = sqrt(P_laser) cos(pi (v + Vpi/2) / (2 Vpi)) after
    the modulator bandwidth filter on the drive."""
    require_real(drive, "MZM drive")
    v = apply_filter(drive, model.response(drive.freqs())).real
    amp = np.sqrt(10 ** ((laser_power_dbm - 30.0) / 10.0))
    field = amp * np.cos(np.pi * (v + model.v_pi_volts / 2) / (2.0 * model.v_pi_volts))
    return SampledWaveform(drive.sample_rate_hz, field, "optical_field")


# ---------------------------------------------------------------------------
# band stitching (the bandwidth-extension front end)
# ---------------------------------------------------------------------------

def stitch_bands(lower_awg: SampledWaveform, upper_awg: SampledWaveform,
                 plan: BandPlan, analog_rate_hz: float,
                 mixer_bandwidth_hz: float | None = None,
                 hpf_transition_hz: float = 2e9,
                 dac_bandwidth_hz: float | None = None,
                 dac_resolution_bits: int | None = None,
                 gain_imbalance_db: float = 0.0,
                 skew_s: float = 0.0,
                 upper_amplifier: AmplifierModel | None = None) -> SampledWaveform:
    """Reconstruct the wideband signal from the two AWG records.

    The mixer runs at the plan's LO. With the defaults every element is
    ideal: exact resampling instead of a ZOH DAC, a unity-SSB-gain mixer
    without roll-off, a zero-phase raised-cosine HPF at the plan's analog
    cutoff with a ``hpf_transition_hz`` transition (``1 - filter_response``,
    exactly 0 below and 1 above the transition), no upper-path amplifier,
    and a perfectly balanced combiner. The transmitter runs the same path
    with its device models.

    With a DAC bandwidth, the converter's Bessel response delays the IF arm,
    which up-converts into a constant phase offset between the bands; the LO
    phase absorbs it (the lab equivalent is tuning the LO path length).
    """
    lo_phase_rad = 0.0
    if dac_bandwidth_hz is None:
        lower = resample(lower_awg, analog_rate_hz)
        upper_if = resample(upper_awg, analog_rate_hz)
    else:
        lower = dac(lower_awg, analog_rate_hz, dac_bandwidth_hz, dac_resolution_bits)
        upper_if = dac(upper_awg, analog_rate_hz, dac_bandwidth_hz, dac_resolution_bits)
        tau_if = bessel_group_delay_dc(dac_bandwidth_hz)
        lo_phase_rad = -2 * np.pi * plan.lo_frequency_hz * tau_if

    upper_rf = mixer_upconvert(upper_if, plan.lo_frequency_hz, mixer_bandwidth_hz,
                               lo_phase_rad)

    lpf = filter_response(plan.analog_hpf_cutoff_hz, hpf_transition_hz,
                          upper_rf.n, upper_rf.sample_rate_hz)
    upper_rf = apply_filter(upper_rf, 1.0 - lpf)
    if upper_amplifier is not None:
        upper_rf = amplify(upper_rf, upper_amplifier)
    return combine(lower, upper_rf, gain_imbalance_db, skew_s)
