"""Transmitter DSP: Volterra pre-distortion, RRC pulse shaping, linear
pre-emphasis, and the digital band split feeding the two-converter
bandwidth-extension front end.

The band split divides a wideband record into a lower band (lowpass) and an
upper band that is digitally down-converted to an IF through the analytic
signal, so each half fits one real DAC channel. The digital LPF/HPF pair is
complementary (responses sum to unity), which makes the later analog
recombination exact outside the crossover transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .sigcore import (
    SampledWaveform,
    apply_filter,
    design_rrc,
    filter_response,
    fir_response,
    require_real,
    resample,
)


# ---------------------------------------------------------------------------
# Volterra pre-distortion
# ---------------------------------------------------------------------------

def _centered_offsets(memory: int) -> list[int]:
    if memory <= 0:
        return []
    half = (memory - 1) // 2
    return list(range(-half, half + 1))


@dataclass(frozen=True)
class VolterraStructure:
    """Memory lengths and pruning of a third-order kernel.

    ``max_spread_*`` limits the index spread (max - min) of cross terms;
    ``None`` selects the full symmetric tensor. Defaults keep the first-order
    memory at 31 symbols with short, nearly diagonal nonlinear terms, which
    is tractable at desk scale.
    """

    memory_1: int = 31
    memory_2: int = 7
    memory_3: int = 7
    max_spread_2: int | None = 1
    max_spread_3: int | None = 1

    def __post_init__(self):
        if self.memory_1 < 1 or self.memory_1 % 2 == 0:
            raise ParameterError("must be odd (centered window)", "memory_1")
        for key in ("memory_2", "memory_3"):
            memory = getattr(self, key)
            if memory < 0 or (memory % 2 == 0 and memory != 0):
                raise ParameterError("must be odd (centered window) or 0", key)
        for key in ("max_spread_2", "max_spread_3"):
            if (getattr(self, key) or 0) < 0:
                raise ParameterError("must be >= 0 or None", key)

    def pair_terms(self) -> list[tuple[int, int]]:
        offs = _centered_offsets(self.memory_2)
        spread = self.max_spread_2
        return [
            (i, j)
            for i in offs
            for j in offs
            if i <= j and (spread is None or j - i <= spread)
        ]

    def triple_terms(self) -> list[tuple[int, int, int]]:
        offs = _centered_offsets(self.memory_3)
        spread = self.max_spread_3
        return [
            (i, j, k)
            for i in offs
            for j in offs
            for k in offs
            if i <= j <= k and (spread is None or k - i <= spread)
        ]

    @property
    def coefficient_count(self) -> int:
        return self.memory_1 + len(self.pair_terms()) + len(self.triple_terms())


@dataclass(frozen=True)
class VolterraKernel:
    """Third-order kernel with symmetric-index (i <= j <= k) storage."""

    h1: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    h2: np.ndarray
    triples: tuple[tuple[int, int, int], ...]
    h3: np.ndarray

    def __post_init__(self):
        h1 = np.asarray(self.h1, dtype=float)
        if h1.size % 2 == 0:
            raise ParameterError("first-order memory must be odd")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", np.asarray(self.h2, dtype=float))
        object.__setattr__(self, "h3", np.asarray(self.h3, dtype=float))
        if len(self.pairs) != self.h2.size or len(self.triples) != self.h3.size:
            raise ParameterError("coefficient count does not match term lists")

    @property
    def memory(self) -> int:
        return int(self.h1.size)

    @classmethod
    def identity(cls, structure: VolterraStructure | None = None) -> "VolterraKernel":
        structure = structure or VolterraStructure()
        h1 = np.zeros(structure.memory_1)
        h1[(structure.memory_1 - 1) // 2] = 1.0
        pairs = tuple(structure.pair_terms())
        triples = tuple(structure.triple_terms())
        return cls(h1, pairs, np.zeros(len(pairs)), triples, np.zeros(len(triples)))


def _shifted(x: np.ndarray, delay: int) -> np.ndarray:
    """x[n - delay] with zero padding outside the record."""
    out = np.zeros_like(x)
    if delay >= 0:
        if delay < x.size:
            out[delay:] = x[: x.size - delay]
    else:
        if -delay < x.size:
            out[:delay] = x[-delay:]
    return out


def apply_volterra(symbols: np.ndarray, kernel: VolterraKernel) -> np.ndarray:
    """y[n] = sum h1[i] x[n-i] + sum h2[ij] x[n-i]x[n-j] + third-order terms."""
    x = np.asarray(symbols, dtype=float)
    if kernel.memory > x.size:
        raise ParameterError("kernel memory exceeds sequence length")
    half = (kernel.memory - 1) // 2
    y = np.convolve(x, kernel.h1, mode="full")[half: half + x.size]
    for (i, j), c in zip(kernel.pairs, kernel.h2):
        if c != 0.0:
            y += c * _shifted(x, i) * _shifted(x, j)
    for (i, j, k), c in zip(kernel.triples, kernel.h3):
        if c != 0.0:
            y += c * _shifted(x, i) * _shifted(x, j) * _shifted(x, k)
    return y


def _regression_matrix(x: np.ndarray, structure: VolterraStructure) -> np.ndarray:
    cols = [_shifted(x, d) for d in _centered_offsets(structure.memory_1)]
    cols += [_shifted(x, i) * _shifted(x, j) for i, j in structure.pair_terms()]
    cols += [
        _shifted(x, i) * _shifted(x, j) * _shifted(x, k)
        for i, j, k in structure.triple_terms()
    ]
    return np.column_stack(cols)


@dataclass(frozen=True)
class VolterraFit:
    kernel: VolterraKernel
    train_nmse_db: float
    holdout_nmse_db: float
    condition_number: float


def fit_volterra(stimulus: np.ndarray, observed_response: np.ndarray,
                 structure: VolterraStructure | None = None,
                 holdout_fraction: float = 0.3,
                 max_condition: float = 1e10) -> VolterraFit:
    """Least-squares post-inverse: regress ``stimulus`` on Volterra features
    of ``observed_response``. The resulting kernel, applied before the same
    device, acts as a pre-distorter (indirect learning).

    A trailing fraction of the record is held out to report a generalization
    NMSE next to the training NMSE.
    """
    structure = structure or VolterraStructure()
    x = np.asarray(observed_response, dtype=float)
    y = np.asarray(stimulus, dtype=float)
    if x.shape != y.shape:
        raise ParameterError("stimulus and response must have equal length")
    n_coef = structure.coefficient_count
    if x.size < 10 * n_coef:
        raise ParameterError(
            f"need >= {10 * n_coef} samples to fit {n_coef} coefficients"
        )

    phi = _regression_matrix(x, structure)
    guard = max((structure.memory_1 - 1) // 2,
                (structure.memory_2 - 1) // 2 if structure.memory_2 else 0,
                (structure.memory_3 - 1) // 2 if structure.memory_3 else 0)
    lo, hi = guard, x.size - guard
    n_train = lo + int((hi - lo) * (1.0 - holdout_fraction))

    phi_tr, y_tr = phi[lo:n_train], y[lo:n_train]
    w, _, _, sv = np.linalg.lstsq(phi_tr, y_tr, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > max_condition:
        raise NumericalError(
            f"normal equations ill-conditioned (cond={cond:.3g}); "
            "reduce the term count or decorrelate the stimulus"
        )

    def seg_nmse(sl: slice) -> float:
        err = phi[sl] @ w - y[sl]
        return float(10 * np.log10(np.sum(err**2) / np.sum(y[sl] ** 2)))

    n1 = structure.memory_1
    pairs = tuple(structure.pair_terms())
    triples = tuple(structure.triple_terms())
    kernel = VolterraKernel(
        w[:n1], pairs, w[n1: n1 + len(pairs)], triples, w[n1 + len(pairs):]
    )
    return VolterraFit(kernel, seg_nmse(slice(lo, n_train)),
                       seg_nmse(slice(n_train, hi)), cond)


# ---------------------------------------------------------------------------
# pulse shaping and pre-emphasis
# ---------------------------------------------------------------------------

def default_rrc_span(rolloff: float, n_symbols: int) -> int:
    """Span needed to hold truncation ISI near -60 dB; long for small rolloff."""
    span = 1024 if rolloff <= 0 else int(np.ceil(6.0 / rolloff))
    return max(8, min(max(64, span), 1024, n_symbols - 1))


def rrc_upsample(symbols: np.ndarray, samples_per_symbol: int, rolloff: float,
                 symbol_rate_hz: float, span_symbols: int | None = None) -> SampledWaveform:
    """Zero-stuff and shape with an RRC; output rate = sps * symbol rate."""
    s = np.asarray(symbols, dtype=float)
    if span_symbols is None:
        span_symbols = default_rrc_span(rolloff, s.size)
    taps = design_rrc(rolloff, span_symbols, samples_per_symbol)
    up = np.zeros(s.size * samples_per_symbol)
    up[::samples_per_symbol] = s
    wave = SampledWaveform(symbol_rate_hz * samples_per_symbol, up)
    return apply_filter(wave, fir_response(taps, wave.n))


def linear_preemphasis(wave: SampledWaveform, response: np.ndarray,
                       max_boost_db: float = 20.0) -> SampledWaveform:
    """Magnitude-inverse pre-equalization of a device chain ``response``
    given on the waveform's own FFT grid.

    Boost is clipped at ``max_boost_db``, which also covers zeros in the
    response. Phase is left untouched; the receiver equalizer owns residual
    phase.
    """
    h_mag = np.abs(response)
    if h_mag.shape != (wave.n,):
        raise ParameterError(f"response is not on the {wave.n}-bin grid")
    cap = 10 ** (max_boost_db / 20.0)
    with np.errstate(divide="ignore"):
        boost = np.where(h_mag > 0, np.minimum(1.0 / h_mag, cap), cap)
    return wave.with_spectrum(wave.spectrum * boost)


# ---------------------------------------------------------------------------
# band split
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandPlan:
    """Frequency plan of the two-band transmitter.

    The C-band experiment plan is (76, 75, 72) GHz and the O-band plan
    (82, 82, 76) GHz for (digital crossover, analog HPF, LO). One crossover
    serves both digital filters: the HPF is the complement of the LPF, so
    the two bands sum back to the input.
    """

    crossover_hz: float
    analog_hpf_cutoff_hz: float
    lo_frequency_hz: float
    awg_rate_hz: float = 256e9
    awg_bandwidth_hz: float = 80e9
    crossover_transition_hz: float = 2e9

    def __post_init__(self):
        for key in ("crossover_hz", "analog_hpf_cutoff_hz", "lo_frequency_hz",
                    "awg_rate_hz", "awg_bandwidth_hz", "crossover_transition_hz"):
            if not getattr(self, key) > 0:
                raise ParameterError("must be positive", key)
        if self.lo_frequency_hz >= self.crossover_hz:
            raise ParameterError("must sit below the crossover (positive IF)",
                                 "lo_frequency_hz")
        if self.crossover_hz - self.lo_frequency_hz >= self.awg_bandwidth_hz:
            raise ParameterError("is below the down-converted band edge",
                                 "awg_bandwidth_hz")


def band_split(wave: SampledWaveform, plan: BandPlan) -> tuple[SampledWaveform, SampledWaveform]:
    """Split a real wideband record into (lower band, down-converted upper IF).

    Both outputs land at the AWG rate. The upper branch uses the analytic
    signal of the HPF output shifted down by the LO (snapped to the record's
    frequency grid so the later mixer up-shift cancels it exactly, and so the
    shift moves the spectrum by whole bins), then the real part, an
    AWG-bandwidth lowpass, and resampling.
    """
    require_real(wave, "band_split input")
    n, rate = wave.n, wave.sample_rate_hz

    lp = filter_response(plan.crossover_hz, plan.crossover_transition_hz, n, rate)
    hp = 1.0 - lp

    spectrum = wave.spectrum
    lower = SampledWaveform.from_spectrum(rate, spectrum * lp)
    lower_wave = resample(lower, plan.awg_rate_hz)

    # analytic signal of the upper band: positive frequencies only
    upper_spec = spectrum * hp
    analytic = np.zeros_like(upper_spec)
    analytic[0] = upper_spec[0]
    if n % 2 == 0:
        analytic[n // 2] = upper_spec[n // 2]
        analytic[1: n // 2] = 2.0 * upper_spec[1: n // 2]
    else:
        analytic[1: (n + 1) // 2] = 2.0 * upper_spec[1: (n + 1) // 2]
    # down-shift by the LO bin; the real waveform keeps the real part
    k = int(round(plan.lo_frequency_hz * n / rate))
    if_wave = SampledWaveform.from_spectrum(rate, np.roll(analytic, -k))

    aa_cutoff = min(plan.awg_bandwidth_hz, 0.49 * plan.awg_rate_hz)
    if_wave = apply_filter(if_wave, filter_response(aa_cutoff, 2e9, n, rate))
    upper_wave = resample(if_wave, plan.awg_rate_hz)
    return lower_wave, upper_wave
