"""Transmitter DSP: Volterra pre-distortion, RRC pulse shaping, linear
pre-emphasis, and the digital band split feeding the two-converter
bandwidth-extension front end.

The band split divides a wideband record into a lower band (lowpass) and an
upper band that is digitally down-converted to an IF through the analytic
signal, so each half fits one real DAC channel. Every digital filter here is
a closed-form response on the record's one-sided frequency grid: the RRC
pulse is exact (not truncated), and the LPF/HPF pair is a raised-cosine
crossover whose responses sum to unity and are exactly 0 or 1 outside the
transition, which makes the later analog recombination exact outside the
crossover.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby

import numpy as np

from .errors import NumericalError, ParameterError
from .sigcore import (
    SampledWaveform,
    apply_filter,
    filter_response,
    nmse_db,
    require_real,
    resample,
)


# ---------------------------------------------------------------------------
# Volterra pre-distortion
# ---------------------------------------------------------------------------

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

    def terms(self) -> list[tuple[int, ...]]:
        """Delay tuples in coefficient order: the first-order taps, then the
        pairs i <= j, then the triples i <= j <= k, each order within its
        centred window and spread, in lexicographic order."""
        out = []
        for order, memory, spread in ((1, self.memory_1, None),
                                      (2, self.memory_2, self.max_spread_2),
                                      (3, self.memory_3, self.max_spread_3)):
            half = (memory - 1) // 2
            offsets = range(-half, half + 1)  # empty for memory 0
            out += [t for t in combinations_with_replacement(offsets, order)
                    if spread is None or t[-1] - t[0] <= spread]
        return out

    @property
    def coefficient_count(self) -> int:
        return len(self.terms())


@dataclass(frozen=True)
class VolterraKernel:
    """Third-order kernel: one coefficient per term of ``structure.terms()``."""

    structure: VolterraStructure
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.shape != (self.structure.coefficient_count,):
            raise ParameterError(f"needs {self.structure.coefficient_count} "
                                 f"coefficients, got shape {c.shape}")
        object.__setattr__(self, "coefficients", c)

    @classmethod
    def identity(cls, structure: VolterraStructure | None = None) -> "VolterraKernel":
        structure = structure or VolterraStructure()
        c = np.zeros(structure.coefficient_count)
        c[(structure.memory_1 - 1) // 2] = 1.0
        return cls(structure, c)


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


def _term(x: np.ndarray, delays: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """scale * x[n - d1] * x[n - d2] * ..., multiplied left to right."""
    out = scale * _shifted(x, delays[0])
    for d in delays[1:]:
        out = out * _shifted(x, d)
    return out


def apply_volterra(symbols: np.ndarray, kernel: VolterraKernel) -> np.ndarray:
    """y[n] = sum_t c_t prod_{d in t} x[n - d] over the kernel's terms; the
    first-order taps run as one convolution."""
    x = np.asarray(symbols, dtype=float)
    n1 = kernel.structure.memory_1
    if n1 > x.size:
        raise ParameterError("kernel memory exceeds sequence length")
    half = (n1 - 1) // 2
    c = kernel.coefficients
    y = np.convolve(x, c[:n1], mode="full")[half: half + x.size]
    for t, ct in zip(kernel.structure.terms()[n1:], c[n1:]):
        if ct != 0.0:
            y += _term(x, t, ct)
    return y


#: Trailing share of the usable record that ``fit_volterra`` holds out.
VOLTERRA_HOLDOUT_FRACTION = 0.3
#: Largest singular-value ratio of the training features a Volterra fit
#: accepts. The fit reads it from the Gram matrix, whose eigenvalue ratio is
#: its square, so it can measure no more than about 1/sqrt(eps) ~ 7e7; 1e7
#: keeps the limit inside the range where the reading is still accurate.
VOLTERRA_MAX_CONDITION = 1e7
#: Samples of the Volterra features ``fit_volterra`` builds at a time.
_FIT_BLOCK = 8192


@dataclass(frozen=True)
class VolterraFit:
    kernel: VolterraKernel
    train_nmse_db: float
    holdout_nmse_db: float
    condition_number: float


def _feature_block(x: np.ndarray, terms: list[tuple[int, ...]]):
    """``block(a, b)``: samples a..b-1 of the Volterra features of ``x``,
    term-major, so row ``i`` is ``_term(x, terms[i])[a:b]`` bit for bit.

    Every feature is read from one zero-copy lag view of the zero-padded
    record, ``lags[guard - d] = x[n - d]``. The terms of one order form one
    group of rows: one fancy-indexed copy of the first factors, then one
    in-place multiply per further factor, left to right as ``_term`` does.
    """
    guard = max(abs(d) for t in terms for d in t)
    pad = np.zeros(guard)
    lags = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, x, pad]), x.size)
    groups, start = [], 0
    for _, group in groupby(terms, key=len):
        factors = guard - np.array(list(group)).T  # (order, terms of that order)
        groups.append((start, start + factors.shape[1], factors))
        start += factors.shape[1]

    def block(a: int, b: int) -> np.ndarray:
        phi = np.empty((len(terms), b - a))
        for first, last, factors in groups:
            rows = phi[first:last]
            rows[:] = lags[factors[0], a:b]
            for lag in factors[1:]:
                rows *= lags[lag, a:b]
        return phi

    return block


def fit_volterra(stimulus: np.ndarray, observed_response: np.ndarray,
                 structure: VolterraStructure | None = None) -> VolterraFit:
    """Least-squares post-inverse: regress ``stimulus`` on Volterra features
    of ``observed_response``. The resulting kernel, applied before the same
    device, acts as a pre-distorter (indirect learning).

    The normal equations are accumulated over blocks of ``_FIT_BLOCK``
    samples and solved by Cholesky, so the full feature matrix is never
    held. A trailing ``VOLTERRA_HOLDOUT_FRACTION`` of the record is held out
    to report a generalization NMSE next to the training NMSE; both come
    from the residuals of a second blocked pass.
    """
    structure = structure or VolterraStructure()
    x = np.asarray(observed_response, dtype=float)
    y = np.asarray(stimulus, dtype=float)
    if x.shape != y.shape:
        raise ParameterError("stimulus and response must have equal length")
    terms = structure.terms()
    if x.size < 10 * len(terms):
        raise ParameterError(
            f"need >= {10 * len(terms)} samples to fit {len(terms)} coefficients"
        )

    features = _feature_block(x, terms)
    guard = max(abs(d) for t in terms for d in t)
    lo, hi = guard, x.size - guard
    n_train = lo + int((hi - lo) * (1.0 - VOLTERRA_HOLDOUT_FRACTION))

    gram = np.zeros((len(terms), len(terms)))
    moment = np.zeros(len(terms))
    for a in range(lo, n_train, _FIT_BLOCK):
        b = min(a + _FIT_BLOCK, n_train)
        phi = features(a, b)
        gram += phi @ phi.T
        moment += phi @ y[a:b]
    eig = np.linalg.eigvalsh(gram)
    cond = float(np.sqrt(eig[-1] / eig[0])) if eig[0] > 0 else np.inf
    if cond > VOLTERRA_MAX_CONDITION:
        raise NumericalError(
            f"normal equations ill-conditioned (cond={cond:.3g}); "
            "reduce the term count or decorrelate the stimulus"
        )
    chol = np.linalg.cholesky(gram)
    w = np.linalg.solve(chol.T, np.linalg.solve(chol, moment))

    fitted = np.empty(hi - lo)
    for a in range(lo, hi, _FIT_BLOCK):
        b = min(a + _FIT_BLOCK, hi)
        fitted[a - lo: b - lo] = w @ features(a, b)

    def seg_nmse(a: int, b: int) -> float:
        return float(nmse_db(y[a:b], fitted[a - lo: b - lo]))

    return VolterraFit(VolterraKernel(structure, w), seg_nmse(lo, n_train),
                       seg_nmse(n_train, hi), cond)


# ---------------------------------------------------------------------------
# pulse shaping and pre-emphasis
# ---------------------------------------------------------------------------

def rrc_upsample(symbols: np.ndarray, samples_per_symbol: int, rolloff: float,
                 symbol_rate_hz: float) -> SampledWaveform:
    """Zero-stuff and shape with an RRC; output rate = sps * symbol rate.

    The pulse is the exact RRC response on the record's one-sided grid,
    ``sps * cos(pi/2 * clip((|f|/R - (1 - rolloff)/2) / rolloff, 0, 1))``
    (formed as a sine, so the stopband is exactly 0): DC gain sps (symbol
    amplitude preserved), ``sps / sqrt(2)`` at R/2, and no truncation. At
    roll-off 0 it is the brick wall with gain ``sps / sqrt(2)`` on the R/2
    bin, so the matched pair still meets the Nyquist criterion there.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise ParameterError("rolloff must lie in [0, 1]")
    s = np.asarray(symbols, dtype=float)
    n = s.size * samples_per_symbol
    # f / R from whole bin indices, so R/2 lands on exactly 1/2
    excess = np.arange(n // 2 + 1) / s.size - (1.0 - rolloff) / 2
    if rolloff > 0:
        phase = np.clip(excess / rolloff, 0.0, 1.0)
    else:
        phase = 0.5 * (1.0 + np.sign(excess))
    response = samples_per_symbol * np.sin(0.5 * np.pi * (1.0 - phase))
    # zero-stuffing repeats the symbols' full spectrum, one-sided half plus
    # its mirror, once per sample of a symbol
    half = np.fft.rfft(s)
    period = np.concatenate([half, np.conj(half[1: (s.size + 1) // 2][::-1])])
    spectrum = np.resize(period, n // 2 + 1) * response
    return SampledWaveform.from_spectrum(symbol_rate_hz * samples_per_symbol,
                                         spectrum, n)


def linear_preemphasis(wave: SampledWaveform, response: np.ndarray,
                       max_boost_db: float = 20.0) -> SampledWaveform:
    """Magnitude-inverse pre-equalization of a device chain ``response``
    given on the waveform's own frequency grid (``wave.freqs()``).

    Boost is clipped at ``max_boost_db``, which also covers zeros in the
    response. Phase is left untouched; the receiver equalizer owns residual
    phase.
    """
    h_mag = np.abs(response)
    spectrum = wave.spectrum
    if h_mag.shape != spectrum.shape:
        raise ParameterError(f"response is not on the {spectrum.size}-bin grid")
    cap = 10 ** (max_boost_db / 20.0)
    with np.errstate(divide="ignore"):
        boost = np.where(h_mag > 0, np.minimum(1.0 / h_mag, cap), cap)
    return wave.with_spectrum(spectrum * boost)


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

    Both outputs land at the AWG rate. The upper branch takes the analytic
    signal of the HPF output shifted down by the LO (snapped to the record's
    frequency grid so the later mixer up-shift cancels it exactly, and so the
    shift moves the spectrum by whole bins), then the real part, an
    AWG-bandwidth lowpass, and resampling. The one-sided spectrum already is
    the analytic signal's (each bin but DC and Nyquist doubled, then halved
    again by taking the real part), so the shift is a slice, plus the bins
    shifted below DC folded back as their conjugates.
    """
    require_real(wave, "band_split input")
    n, rate = wave.n, wave.sample_rate_hz

    lp = filter_response(plan.crossover_hz, plan.crossover_transition_hz, n, rate)
    spectrum = wave.spectrum
    lower = SampledWaveform.from_spectrum(rate, spectrum * lp, n)
    lower_wave = resample(lower, plan.awg_rate_hz)

    upper = spectrum * (1.0 - lp)
    # DC and the Nyquist bin of an even n carry no mirror image
    upper[0] *= 0.5
    if n % 2 == 0:
        upper[-1] *= 0.5
    k = int(round(plan.lo_frequency_hz * n / rate))
    shifted = np.zeros_like(upper)
    shifted[: upper.size - k] = upper[k:]
    shifted[: k + 1] += np.conj(upper[k::-1])
    if_wave = SampledWaveform.from_spectrum(rate, shifted, n)

    aa_cutoff = min(plan.awg_bandwidth_hz, 0.49 * plan.awg_rate_hz)
    if_wave = apply_filter(if_wave, filter_response(aa_cutoff, 2e9, n, rate))
    upper_wave = resample(if_wave, plan.awg_rate_hz)
    return lower_wave, upper_wave
