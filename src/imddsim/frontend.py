"""Behavioral models of the analog transmitter hardware: DAC, LO/mixer
up-conversion, active combiner, amplifiers, laser, and Mach-Zehnder
modulator.

The optical carrier is a baseband complex envelope; absolute optical
frequency only enters through the fiber dispersion parameters. LO tones are
snapped to the record's frequency grid (the lab locks the LO clocks to the
same AWG), which keeps mixing exactly circular: the LO multiply is a shift
of the spectrum by whole bins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

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

@dataclass(frozen=True)
class MixerModel:
    """Up-conversion mixer with per-sideband (SSB) conversion gain.

    With 0 dB gain, an IF tone of amplitude a yields two images of amplitude
    a each, so an ideal HPF + combiner chain reconstructs at unit gain. The
    gain characteristic is flat with a second-order magnitude roll-off at
    ``bandwidth_hz`` (the RF-side 3-dB point), or an explicit
    ``gain_table_hz/gain_table_db`` pair digitized from measurements.
    """

    lo_frequency_hz: float
    bandwidth_hz: float = 150e9
    conversion_gain_db: float = 0.0
    rolloff_order: int = 2
    gain_table_hz: np.ndarray | None = None
    gain_table_db: np.ndarray | None = None
    lo_leakage_db: float | None = None
    if_leakage_db: float | None = None
    lo_phase_rad: float = 0.0

    def __post_init__(self):
        if self.lo_frequency_hz <= 0 or self.bandwidth_hz <= 0:
            raise ParameterError("mixer frequencies must be positive")
        if (self.gain_table_hz is None) != (self.gain_table_db is None):
            raise ParameterError("gain table needs both frequency and dB columns")
        if self.gain_table_hz is not None:
            f = np.asarray(self.gain_table_hz, dtype=float)
            g = np.asarray(self.gain_table_db, dtype=float)
            if f.size != g.size or f.size < 2 or np.any(np.diff(f) <= 0):
                raise ParameterError("gain table must be ascending in frequency")
            knee = g.max() - 3.0
            past_knee = np.where(g <= knee)[0]
            if past_knee.size and np.any(np.diff(g[past_knee[0]:]) > 1e-9):
                raise ParameterError(
                    "gain table must be non-increasing beyond its 3-dB point"
                )
            object.__setattr__(self, "gain_table_hz", f)
            object.__setattr__(self, "gain_table_db", g)

    def gain_linear(self, freq_hz: np.ndarray) -> np.ndarray:
        f = np.abs(np.asarray(freq_hz, dtype=float))
        if self.gain_table_hz is not None:
            return 10 ** (np.interp(f, self.gain_table_hz, self.gain_table_db) / 20.0)
        flat = 10 ** (self.conversion_gain_db / 20.0)
        return flat / np.sqrt(1.0 + (f / self.bandwidth_hz) ** (2 * self.rolloff_order))


@dataclass(frozen=True)
class AmplifierModel:
    gain_db: float
    bandwidth_hz: float
    compression_in_1db: float | None = None
    bandwidth_order: int = 4

    def __post_init__(self):
        if not np.isfinite(self.gain_db) or self.bandwidth_hz <= 0:
            raise ParameterError("amplifier gain must be finite, bandwidth positive")


@dataclass(frozen=True)
class MzmModel:
    """Mach-Zehnder: E = sqrt(P) cos(pi (v - v_bias) / (2 Vpi)).

    Default bias is quadrature (-Vpi/2): zero drive sits at half intensity
    and +Vpi/2 reaches the null. The electro-optic bandwidth is a
    second-order Bessel whose magnitude hits ``bandwidth_atten_db`` at
    ``bandwidth_hz``.
    """

    v_pi_volts: float
    bandwidth_hz: float = 110e9
    bandwidth_atten_db: float = 4.5
    bias_voltage: float | None = None
    insertion_loss_db: float = 0.0

    def __post_init__(self):
        if self.v_pi_volts <= 0:
            raise ParameterError("V_pi must be positive")

    @property
    def bias(self) -> float:
        return -self.v_pi_volts / 2 if self.bias_voltage is None else self.bias_voltage


@dataclass(frozen=True)
class LaserModel:
    wavelength_nm: float
    power_dbm: float = 20.0

    def __post_init__(self):
        if not np.isfinite(self.power_dbm) or self.wavelength_nm <= 0:
            raise ParameterError("laser power must be finite, wavelength positive")

    @property
    def power_w(self) -> float:
        return 10 ** ((self.power_dbm - 30.0) / 10.0)


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


def dac(wave: SampledWaveform, analog_rate_hz: float, bandwidth_hz: float = 80e9,
        resolution_bits: int | None = None, bandwidth_order: int = 4) -> SampledWaveform:
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
    freqs = up.freqs()
    droop = np.sinc(freqs / wave.sample_rate_hz)
    return apply_filter(up.with_spectrum(up.spectrum * droop),
                        bessel_response(freqs, bandwidth_hz, bandwidth_order))


def mixer_upconvert(if_wave: SampledWaveform, model: MixerModel) -> SampledWaveform:
    """Multiply by the LO cosine; images at f_LO +- f_IF carry the
    per-sideband gain evaluated at the RF output frequency. Optional LO and
    IF leakage terms are added ahead of the output roll-off.

    The LO sits on the record grid (bin k), so 2 x(t) cos(2 pi f_LO t + phi)
    has the spectrum exp(j phi) X[f - f_LO] + exp(-j phi) X[f + f_LO].
    """
    require_real(if_wave, "mixer IF input")
    n, rate = if_wave.n, if_wave.sample_rate_hz
    above_lo = band_energy_fraction(if_wave, model.lo_frequency_hz, rate / 2)
    if above_lo > 1e-6:
        warnings.warn(
            f"{above_lo:.1%} of IF energy lies above the LO; the folded image "
            "may land in band",
            stacklevel=2,
        )

    k = int(round(model.lo_frequency_hz * n / rate))
    phasor = np.exp(1j * model.lo_phase_rad)
    x = if_wave.spectrum
    product = phasor * np.roll(x, k) + np.conj(phasor) * np.roll(x, -k)

    if model.lo_leakage_db is not None:
        lo_tone = np.zeros(n, dtype=np.complex128)
        lo_tone[k % n] += n / 2 * phasor
        lo_tone[-k % n] += n / 2 * np.conj(phasor)
        product += 10 ** (model.lo_leakage_db / 20.0) * lo_tone
    if model.if_leakage_db is not None:
        product += 10 ** (model.if_leakage_db / 20.0) * x

    out = product * model.gain_linear(if_wave.freqs())
    return SampledWaveform.from_spectrum(rate, out)


def combine(lower: SampledWaveform, upper_rf: SampledWaveform,
            gain_imbalance_db: float = 0.0, skew_s: float = 0.0) -> SampledWaveform:
    """Active combiner: lower + imbalance * delay(upper, skew)."""
    if lower.sample_rate_hz != upper_rf.sample_rate_hz or lower.n != upper_rf.n:
        raise ParameterError("combiner inputs must share rate and length")
    if skew_s != 0.0:
        delay = np.exp(-2j * np.pi * upper_rf.freqs() * skew_s)
        upper_rf = upper_rf.with_spectrum(upper_rf.spectrum * delay)
    return lower.plus(upper_rf, 10 ** (gain_imbalance_db / 20.0))


_TANH_1DB = None


def _tanh_compression_point() -> float:
    """u solving tanh(u)/u = -1 dB; input scale of the saturation map."""
    global _TANH_1DB
    if _TANH_1DB is None:
        target = 10 ** (-1.0 / 20.0)
        _TANH_1DB = brentq(lambda u: np.tanh(u) / u - target, 1e-3, 3.0)
    return _TANH_1DB


def amplify(wave: SampledWaveform, model: AmplifierModel) -> SampledWaveform:
    """Bandwidth filter, then linear gain, then optional tanh saturation
    referenced to the input 1-dB compression level."""
    out = apply_filter(
        wave, bessel_response(wave.freqs(), model.bandwidth_hz, model.bandwidth_order)
    )
    g = 10 ** (model.gain_db / 20.0)
    if model.compression_in_1db is None:
        return out.scaled(g)
    sat = g * model.compression_in_1db / _tanh_compression_point()
    return out.with_samples(sat * np.tanh(g * out.real / sat))


def bessel_group_delay_dc(cutoff_hz: float, order: int = 4) -> float:
    """Low-frequency group delay of the analog Bessel response (seconds).

    Bessel delay is maximally flat, so the DC value is representative across
    the passband; the band-stitching alignment uses it to set the LO phase
    the way a lab path-matches the two arms.
    """
    f = cutoff_hz * 1e-4
    h = bessel_response(np.array([f, 2 * f]), cutoff_hz, order)
    return float((np.angle(h[0]) - np.angle(h[1])) / (2 * np.pi * f))


def _mzm_bandwidth_cutoff(model: MzmModel) -> float:
    """Bessel-2 cutoff placing ``bandwidth_atten_db`` at ``bandwidth_hz``."""
    target = 10 ** (-model.bandwidth_atten_db / 20.0)

    def mag_at(x):
        return abs(bessel_response(np.array([x]), 1.0, 2)[0]) - target

    return model.bandwidth_hz / brentq(mag_at, 0.1, 50.0)


def mzm_modulate(drive: SampledWaveform, laser: LaserModel,
                 model: MzmModel) -> SampledWaveform:
    """Field transfer E = sqrt(P_in) cos(pi (v - bias) / (2 Vpi)) after the
    modulator bandwidth filter on the drive."""
    require_real(drive, "MZM drive")
    v = apply_filter(
        drive, bessel_response(drive.freqs(), _mzm_bandwidth_cutoff(model), 2)
    ).real
    amp = np.sqrt(laser.power_w) * 10 ** (-model.insertion_loss_db / 20.0)
    field = amp * np.cos(np.pi * (v - model.bias) / (2.0 * model.v_pi_volts))
    return SampledWaveform(drive.sample_rate_hz, field.astype(np.complex128),
                           "optical_field")


# ---------------------------------------------------------------------------
# band stitching (the bandwidth-extension front end)
# ---------------------------------------------------------------------------

def stitch_bands(lower_awg: SampledWaveform, upper_awg: SampledWaveform,
                 plan: BandPlan, analog_rate_hz: float,
                 mixer: MixerModel | None = None,
                 hpf_transition_hz: float = 2e9,
                 dac_bandwidth_hz: float | None = None,
                 dac_resolution_bits: int | None = None,
                 gain_imbalance_db: float = 0.0,
                 skew_s: float = 0.0,
                 upper_amplifier: AmplifierModel | None = None) -> SampledWaveform:
    """Reconstruct the wideband signal from the two AWG records.

    With the defaults every element is ideal: exact resampling instead of a
    ZOH DAC, a unity-SSB-gain leak-free mixer, a linear-phase HPF at the
    plan's analog cutoff with a ``hpf_transition_hz`` transition (the
    complement of the FIR lowpass), no upper-path amplifier, and a perfectly
    balanced combiner. The transmitter runs the same path with its device
    models.

    With a DAC bandwidth, the converter's Bessel response delays the IF arm,
    which up-converts into a constant phase offset between the bands; the LO
    phase absorbs it (the lab equivalent is tuning the LO path length).
    """
    if dac_bandwidth_hz is None:
        lower = resample(lower_awg, analog_rate_hz)
        upper_if = resample(upper_awg, analog_rate_hz)
    else:
        lower = dac(lower_awg, analog_rate_hz, dac_bandwidth_hz, dac_resolution_bits)
        upper_if = dac(upper_awg, analog_rate_hz, dac_bandwidth_hz, dac_resolution_bits)

    mixer = mixer or MixerModel(plan.lo_frequency_hz, bandwidth_hz=1e15)
    if mixer.lo_frequency_hz != plan.lo_frequency_hz:
        raise ParameterError("mixer LO must match the band plan")
    if dac_bandwidth_hz is not None:
        tau_if = bessel_group_delay_dc(dac_bandwidth_hz, 4)
        mixer = replace(mixer, lo_phase_rad=mixer.lo_phase_rad
                        - 2 * np.pi * plan.lo_frequency_hz * tau_if)
    upper_rf = mixer_upconvert(upper_if, mixer)

    lpf = filter_response(plan.analog_hpf_cutoff_hz, hpf_transition_hz,
                          upper_rf.n, upper_rf.sample_rate_hz)
    upper_rf = apply_filter(upper_rf, 1.0 - lpf)
    if upper_amplifier is not None:
        upper_rf = amplify(upper_rf, upper_amplifier)
    return combine(lower, upper_rf, gain_imbalance_db, skew_s)
