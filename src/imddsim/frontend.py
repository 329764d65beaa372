"""Behavioral models of the analog transmitter hardware: DAC, LO/mixer
up-conversion, active combiner, amplifiers, laser, and Mach-Zehnder
modulator, and :func:`transmit`, the transmitter that chains them.

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
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError
from .sigcore import (
    SampledWaveform,
    _bessel_design,
    _bin_spacing,
    _lo_bin,
    _require_finite,
    _resampled_length,
    apply_filter,
    band_energy_fraction,
    bessel_response,
    filter_response,
    lo_shift,
    require_real,
    resample,
)
from .txdsp import BandPlan, linear_preemphasis

if TYPE_CHECKING:
    from .config import TxConfig


# ---------------------------------------------------------------------------
# device models
# ---------------------------------------------------------------------------

#: Poles of the Bessel bandwidth of the converters (AWG, DAC, scope), the
#: amplifiers and the photodiode.
ANALOG_BESSEL_ORDER = 4
#: Poles of the Bessel electro-optic bandwidth of the MZM.
MZM_BESSEL_ORDER = 2
#: Transition width of the analog HPF that removes the mixer's lower image.
ANALOG_HPF_TRANSITION_HZ = 2e9
#: u solving tanh(u)/u = -1 dB: the input scale of the amplifier's tanh
#: saturation at its 1-dB compression point.
_TANH_1DB = 0.6124646942440785


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
        if not (np.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ParameterError("must be positive and finite", "bandwidth_hz")
        if self.compression_in_1db is not None and not (
                np.isfinite(self.compression_in_1db) and self.compression_in_1db > 0):
            raise ParameterError("must be positive and finite (or None for a linear "
                                 "amplifier)", "compression_in_1db")

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
        if not (np.isfinite(self.v_pi_volts) and self.v_pi_volts > 0):
            raise ParameterError("must be positive and finite", "v_pi_volts")
        if not (np.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ParameterError("must be positive and finite", "bandwidth_hz")
        if not (np.isfinite(self.bandwidth_atten_db) and self.bandwidth_atten_db > 0):
            raise ParameterError("must be positive and finite", "bandwidth_atten_db")
        if not (np.isfinite(self.cutoff_hz) and self.cutoff_hz > 0):
            raise ParameterError("gives no finite positive Bessel cutoff",
                                 "bandwidth_atten_db")

    @cached_property
    def cutoff_hz(self) -> float:
        """Bessel cutoff placing ``bandwidth_atten_db`` (A) at ``bandwidth_hz``.

        With a 1 rad/s cutoff the response is g / (s^2 + a1 s + a0), so
        |H(jx)|^2 = 10^(-A/10) is x^4 + B x^2 + C = 0 with B = a1^2 - 2 a0
        and C = a0^2 - g^2 10^(A/10) < 0. Its positive root x^2, in the form
        free of cancellation, is the bandwidth over the cutoff, squared.
        Above about 3 080 dB, g^2 10^(A/10) leaves the float range and the
        cutoff is NaN, which the constructor rejects.
        """
        gain, (_, a1, a0) = _bessel_design(1 / (2 * np.pi), MZM_BESSEL_ORDER)
        b = a1 * a1 - 2 * a0
        with np.errstate(over="ignore", invalid="ignore"):
            t2_inv = np.float64(10.0) ** (self.bandwidth_atten_db / 10.0)
            c = a0 * a0 - gain * gain * t2_inv
            x2 = -2 * c / (b + np.sqrt(b * b - 4 * c))
        return self.bandwidth_hz / float(np.sqrt(x2))

    def response(self, freq_hz: np.ndarray) -> np.ndarray:
        """Complex electro-optic response at ``freq_hz``."""
        return bessel_response(freq_hz, self.cutoff_hz, MZM_BESSEL_ORDER)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def quantize_uniform(x: np.ndarray, bits: int) -> np.ndarray:
    """Mid-rise uniform quantizer over [-FS, FS], the full scale FS the
    record's peak, as both converters scale it."""
    if bits < 1:
        raise ParameterError("resolution must be >= 1 bit")
    fs = float(np.max(np.abs(x)))
    if fs == 0:
        return x.copy()
    step = 2.0 * fs / (2**bits)
    q = step * (np.floor(x / step) + 0.5)
    return np.clip(q, -fs + step / 2, fs - step / 2)


def dac_response(freq_hz: np.ndarray, rate_hz: float, bandwidth_hz: float) -> np.ndarray:
    """The converter's complex response at ``freq_hz``: the zero-order-hold
    droop sinc(f / rate) times the analog Bessel filter."""
    droop = np.sinc(freq_hz / rate_hz)  # its temporaries go before the response is held
    response = bessel_response(freq_hz, bandwidth_hz, ANALOG_BESSEL_ORDER)
    response *= droop
    return response


def dac(wave: SampledWaveform, analog_rate_hz: float, response: np.ndarray | None,
        resolution_bits: int | None = None) -> SampledWaveform:
    """Zero-order-hold reconstruction to the analog rate, then the converter's
    analog bandwidth filter: ``response``, the :func:`dac_response` on the
    record's own bins, ``wave.freqs()``; with ``response`` None, the ideal
    converter (exact resampling alone).

    The hold is modeled by the continuous ZOH sinc droop applied after exact
    rate conversion; its half-sample delay is referenced out (the band
    alignment owns absolute timing), and hold images above the converter
    Nyquist are not modeled, as for an output network that removes them. So
    the response is given on the bins :func:`resample` keeps and filters, and
    the two channels of one AWG, which share a grid, share one response."""
    if analog_rate_hz < wave.sample_rate_hz:
        raise ParameterError("analog rate must be at least the DAC rate")
    if resolution_bits is not None:
        wave = wave.with_samples(quantize_uniform(wave.real, resolution_bits))
    if response is None:
        return resample(wave, analog_rate_hz)
    return resample(wave, analog_rate_hz, response)


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

    The LO sits on the record grid, so 2 x(t) cos(2 pi f_LO t + phi) has
    the spectrum exp(j phi) X[f - f_LO] + exp(-j phi) X[f + f_LO], the two
    images of ``lo_shift``.
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

    up = lo_shift(if_wave.spectrum, n, rate, lo_frequency_hz, np.exp(1j * lo_phase_rad))
    del if_wave  # a caller that handed the IF record on frees it here
    if bandwidth_hz is not None:
        up *= mixer_gain(np.fft.rfftfreq(n, d=1.0 / rate), bandwidth_hz)
    return SampledWaveform._from_spectrum(rate, up, n, "electrical")


def combine(lower: SampledWaveform, upper_rf: SampledWaveform) -> SampledWaveform:
    """Active combiner: a balanced, aligned sum of the two bands' spectra."""
    if lower.sample_rate_hz != upper_rf.sample_rate_hz or lower.n != upper_rf.n:
        raise ParameterError("combiner inputs must share rate and length")
    return SampledWaveform._from_spectrum(lower.sample_rate_hz,
                                          lower.spectrum + upper_rf.spectrum, lower.n,
                                          lower.domain_tag)


def amplify(wave: SampledWaveform, model: AmplifierModel) -> SampledWaveform:
    """Bandwidth filter, then linear gain, then optional tanh saturation
    referenced to the input 1-dB compression level."""
    out = apply_filter(wave, model.response(wave.freqs()))
    del wave  # a caller that handed the record on frees it here
    g = 10 ** (model.gain_db / 20.0)
    if model.compression_in_1db is None:
        spectrum = out.spectrum
        spectrum *= g  # the filter's own product, scaled in place
        _require_finite(spectrum, "amplifier output")
        return out
    sat = g * model.compression_in_1db / _TANH_1DB
    return out.with_samples(sat * np.tanh(g * out.real / sat))


def bessel_group_delay_dc(cutoff_hz: float, order: int = ANALOG_BESSEL_ORDER) -> float:
    """Low-frequency group delay of the analog Bessel response (seconds).

    Bessel delay is maximally flat, so the DC value is representative across
    the passband; the band-stitching alignment uses it to set the LO phase
    the way a lab path-matches the two arms. For the denominator
    ... + a1 s + a0 it is exactly a1 / a0.
    """
    _, den = _bessel_design(cutoff_hz, order)
    return float(den[-2] / den[-1])


def mzm_modulate(drive: SampledWaveform, laser_power_dbm: float,
                 model: MzmModel) -> SampledWaveform:
    """Field transfer E = sqrt(P_laser) cos(pi (v + Vpi/2) / (2 Vpi)) after
    the modulator bandwidth filter on the drive, handed on as its n-bin
    spectrum: the ``rfft`` of the real cosine, with the conjugate mirror."""
    require_real(drive, "MZM drive")
    n, rate = drive.n, drive.sample_rate_hz
    v = apply_filter(drive, model.response(drive.freqs())).real
    del drive  # a caller that handed the drive on frees it here
    amp = np.sqrt(10 ** ((laser_power_dbm - 30.0) / 10.0))
    field = v + model.v_pi_volts / 2
    del v
    field *= np.pi
    field /= 2.0 * model.v_pi_volts
    np.cos(field, out=field)
    field *= amp
    _require_finite(field, "modulator output")
    half = np.fft.rfft(field)
    del field
    spectrum = np.empty(n, dtype=np.complex128)
    spectrum[: half.size] = half
    np.conjugate(half[(n + 1) // 2 - 1: 0: -1], out=spectrum[half.size:])
    return SampledWaveform._from_spectrum(rate, spectrum, n, "optical_field")


# ---------------------------------------------------------------------------
# band stitching (the bandwidth-extension front end) and the transmitter
# ---------------------------------------------------------------------------

def stitch_bands(lower_awg: SampledWaveform, upper_awg: SampledWaveform,
                 plan: BandPlan, analog_rate_hz: float,
                 mixer_bandwidth_hz: float | None = None,
                 dac_response: np.ndarray | None = None,
                 dac_resolution_bits: int | None = None,
                 upper_amplifier: AmplifierModel | None = None) -> SampledWaveform:
    """Reconstruct the wideband signal from the two AWG records.

    Each record is converted by :func:`dac` with ``dac_response``, the
    response of the plan's converters on the records' bins (the
    :func:`dac_response` of ``plan.awg_bandwidth_hz``), and the upper one is
    mixed up at the plan's LO. With the defaults every element is ideal:
    exact resampling instead of a ZOH DAC (``dac`` with no response), a
    unity-SSB-gain mixer without roll-off, a zero-phase raised-cosine HPF at
    the plan's analog cutoff with an ``ANALOG_HPF_TRANSITION_HZ`` transition
    (``1 - filter_response``, exactly 0 below and 1 above the transition),
    and no upper-path amplifier. :func:`transmit` runs the same path with
    its device models.

    With a DAC response, the converter's Bessel response delays the IF arm,
    which up-converts into a constant phase offset between the bands; the LO
    phase absorbs it (the lab equivalent is tuning the LO path length).

    The two records are the two channels of one AWG, so they must share
    rate and length, and both converters apply the one response. Each record
    is dropped once it is converted, and the response once both are.
    """
    if (lower_awg.sample_rate_hz, lower_awg.n) != (upper_awg.sample_rate_hz, upper_awg.n):
        raise ParameterError("the two AWG records must share rate and length")
    lo_phase_rad = 0.0
    if dac_response is not None:
        tau_if = bessel_group_delay_dc(plan.awg_bandwidth_hz)
        lo_phase_rad = -2 * np.pi * plan.lo_frequency_hz * tau_if
    lower = dac(lower_awg, analog_rate_hz, dac_response, dac_resolution_bits)
    del lower_awg
    # the IF record goes to the mixer in a list, so the mixer frees it on reading
    upper_if = [dac(upper_awg, analog_rate_hz, dac_response, dac_resolution_bits)]
    del upper_awg, dac_response  # a caller that handed the response on frees it here
    upper_rf = mixer_upconvert(upper_if.pop(), plan.lo_frequency_hz, mixer_bandwidth_hz,
                               lo_phase_rad)
    # the HPF multiplies the mixer's product, which no one else holds, in place
    hpf = filter_response(plan.analog_hpf_cutoff_hz, ANALOG_HPF_TRANSITION_HZ,
                          lower.n, analog_rate_hz)
    np.subtract(1.0, hpf, out=hpf)
    np.multiply(upper_rf.spectrum, hpf, out=upper_rf.spectrum)
    del hpf
    if upper_amplifier is not None:
        upper_rf = amplify(upper_rf, upper_amplifier)
    return combine(lower, upper_rf)


def _chain_magnitudes(awg: SampledWaveform, plan: BandPlan, tx: TxConfig,
                      converter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude of the chain from each AWG port to the MZM on the AWG
    record's m bins, each band over its own maximum: the converter's
    response ``converter`` at IF; for the upper band the mixer and the
    upper-path amplifier at RF; the amplifier chain and the MZM. No gains,
    no HPF. The analog record's length and the LO's bin k are those
    :func:`resample` and :func:`lo_shift` derive, and the analog grid's
    first m bins are the AWG grid, so each device is evaluated once, on
    k + m analog bins: the lower band reads [0, m), the upper [k, k + m),
    continued past the analog Nyquist if need be."""
    m, rate = awg.spectrum.size, tx.analog_rate_hz
    n = _resampled_length(awg.n, awg.sample_rate_hz, rate)
    k = _lo_bin(plan.lo_frequency_hz, n, rate)
    f = np.arange(k + m) * _bin_spacing(n, rate)
    lower = np.ones(m)
    upper = mixer_gain(f[k:], tx.mixer_bandwidth_hz)
    if tx.upper_path_amplifier is not None:
        upper *= np.abs(tx.upper_path_amplifier.response(f[k:]))
    for device in (*tx.amplifier_chain, tx.mzm):
        mag = np.abs(device.response(f))
        lower *= mag[:m]
        upper *= mag[k:]
    zoh = np.abs(converter)
    for band in (lower, upper):
        band *= zoh
        band /= band.max()
    return lower, upper


def transmit(lower_awg: SampledWaveform, upper_awg: SampledWaveform, plan: BandPlan,
             tx: TxConfig, max_boost_db: float) -> SampledWaveform:
    """The transmitter, from the two AWG records to the optical field: the
    pre-emphasis of each band against its modelled chain, :func:`stitch_bands`
    with the device models, the amplifier chain, the drive scaled to a peak of
    ``tx.drive_peak_fraction_vpi`` Vpi, and :func:`mzm_modulate`. The
    converters' :func:`dac_response` is formed once, on the AWG records'
    bins: the model reads its magnitude, and both converters apply it. The
    response and the records pass from stage to stage in the list ``held``,
    freed as they are read: the response after the second converter."""
    held = [dac_response(lower_awg.freqs(), lower_awg.sample_rate_hz, plan.awg_bandwidth_hz)]
    lower_mag, upper_mag = _chain_magnitudes(lower_awg, plan, tx, held[0])
    held.append(linear_preemphasis(lower_awg, lower_mag, max_boost_db))
    del lower_awg, lower_mag
    held.append(linear_preemphasis(upper_awg, upper_mag, max_boost_db))
    del upper_awg, upper_mag
    # held is [response, lower, upper]: the records go first, the response last
    held.append(stitch_bands(held.pop(1), held.pop(), plan, tx.analog_rate_hz,
                             mixer_bandwidth_hz=tx.mixer_bandwidth_hz,
                             dac_response=held.pop(),
                             dac_resolution_bits=tx.awg_resolution_bits,
                             upper_amplifier=tx.upper_path_amplifier))
    for amp in tx.amplifier_chain:
        held.append(amplify(held.pop(), amp))
    scale = tx.drive_peak_fraction_vpi * tx.mzm.v_pi_volts / np.max(np.abs(held[0].real))
    return mzm_modulate(held.pop().scaled(scale), tx.laser_power_dbm, tx.mzm)
