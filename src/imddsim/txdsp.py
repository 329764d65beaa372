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
from itertools import combinations_with_replacement

import numpy as np

from .errors import NumericalError, ParameterError
from .sigcore import (
    SampledWaveform,
    _require_finite,
    filter_response,
    lo_shift,
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


#: Trailing share of the usable record that ``fit_volterra`` holds out.
VOLTERRA_HOLDOUT_FRACTION = 0.3
#: Largest singular-value ratio of the training features a Volterra fit
#: accepts. The fit reads it from the Gram matrix, whose eigenvalue ratio is
#: its square, so it can measure no more than about 1/sqrt(eps) ~ 7e7; 1e7
#: keeps the limit inside the range where the reading is still accurate.
VOLTERRA_MAX_CONDITION = 1e7
#: Samples of the Volterra features ``_feature_blocks`` builds at a time.
_FIT_BLOCK = 8192


@dataclass(frozen=True)
class VolterraFit:
    kernel: VolterraKernel
    train_nmse_db: float
    holdout_nmse_db: float
    condition_number: float


def _feature_blocks(x: np.ndarray, terms: list[tuple[int, ...]], lo: int, hi: int):
    """Yield ``(s, phi)`` for consecutive slices ``s`` that tile samples
    ``lo..hi-1`` in steps of ``_FIT_BLOCK``: ``phi`` holds the Volterra
    features of ``x`` over ``s``, term-major, so row ``i`` is
    ``prod_{d in terms[i]} x[n - d]`` with zeros outside the record,
    multiplied left to right. This is the one evaluator of the series:
    fitting and applying a kernel both read their features here.

    ``phi`` is a view of one buffer that every block reuses, so it is valid
    until the next block is drawn. Every feature is read from one zero-copy
    lag view of the zero-padded record, ``lags[guard - d] = x[n - d]``: each
    row is one copy of its first factor and one in-place multiply per
    further factor, so building a block allocates nothing.
    """
    guard = max(abs(d) for t in terms for d in t)
    pad = np.zeros(guard)
    lags = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([pad, x, pad]), x.size)
    factors = [[guard - d for d in t] for t in terms]
    buffer = np.empty(len(terms) * min(_FIT_BLOCK, hi - lo))
    for a in range(lo, hi, _FIT_BLOCK):
        b = min(a + _FIT_BLOCK, hi)
        phi = buffer[: len(terms) * (b - a)].reshape(len(terms), b - a)
        for row, (first, *rest) in zip(phi, factors):
            row[:] = lags[first, a:b]
            for lag in rest:
                row *= lags[lag, a:b]
        yield slice(a, b), phi


def _volterra_series(x: np.ndarray, terms: list[tuple[int, ...]], w: np.ndarray,
                     lo: int, hi: int) -> np.ndarray:
    """``sum_t w_t * feature_t`` at samples ``lo..hi-1`` of ``x``, zero
    elsewhere."""
    y = np.zeros(x.size)
    for s, phi in _feature_blocks(x, terms, lo, hi):
        y[s] = w @ phi
    return y


def apply_volterra(symbols: np.ndarray, kernel: VolterraKernel) -> np.ndarray:
    """y[n] = sum_t c_t prod_{d in t} x[n - d] over the kernel's terms, with
    zeros outside the record."""
    x = np.asarray(symbols, dtype=float)
    if kernel.structure.memory_1 > x.size:
        raise ParameterError("kernel memory exceeds sequence length")
    return _volterra_series(x, kernel.structure.terms(), kernel.coefficients,
                            0, x.size)


def fit_volterra(stimulus: np.ndarray, observed_response: np.ndarray,
                 structure: VolterraStructure | None = None) -> VolterraFit:
    """Least-squares post-inverse: regress ``stimulus`` on Volterra features
    of ``observed_response``. The resulting kernel, applied before the same
    device, acts as a pre-distorter (indirect learning).

    The normal equations are accumulated over blocks of ``_FIT_BLOCK``
    samples and solved by Cholesky, so the full feature matrix is never
    held. A trailing ``VOLTERRA_HOLDOUT_FRACTION`` of the record is held out
    to report a generalization NMSE next to the training NMSE; both come
    from the residuals of a second blocked pass. Both passes read their
    features from ``_feature_blocks``, as ``apply_volterra`` does.
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

    guard = max(abs(d) for t in terms for d in t)
    lo, hi = guard, x.size - guard
    n_train = lo + int((hi - lo) * (1.0 - VOLTERRA_HOLDOUT_FRACTION))

    gram = np.zeros((len(terms), len(terms)))
    moment = np.zeros(len(terms))
    for s, phi in _feature_blocks(x, terms, lo, n_train):
        gram += phi @ phi.T
        moment += phi @ y[s]
    del phi  # the last block's buffer goes before _volterra_series makes one
    eig = np.linalg.eigvalsh(gram)
    cond = float(np.sqrt(eig[-1] / eig[0])) if eig[0] > 0 else np.inf
    if cond > VOLTERRA_MAX_CONDITION:
        raise NumericalError(
            f"normal equations ill-conditioned (cond={cond:.3g}); "
            "reduce the term count or decorrelate the stimulus"
        )
    chol = np.linalg.cholesky(gram)
    w = np.linalg.solve(chol.T, np.linalg.solve(chol, moment))

    fitted = _volterra_series(x, terms, w, lo, hi)

    def seg_nmse(a: int, b: int) -> float:
        return float(nmse_db(y[a:b], fitted[a:b]))

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
    _require_finite(s, "symbols")
    n = s.size * samples_per_symbol
    # f / R from whole bin indices, so R/2 lands on exactly 1/2; the clipped
    # phase and the response are formed in place in the one array
    response = np.arange(n // 2 + 1) / s.size
    response -= (1.0 - rolloff) / 2
    if rolloff > 0:
        response /= rolloff
        np.clip(response, 0.0, 1.0, out=response)
    else:
        np.sign(response, out=response)
        response += 1.0
        response *= 0.5
    np.subtract(1.0, response, out=response)
    response *= 0.5 * np.pi
    np.sin(response, out=response)
    response *= samples_per_symbol
    # zero-stuffing repeats the symbols' full spectrum, one-sided half plus
    # its mirror, once per sample of a symbol
    half = np.fft.rfft(s)
    spectrum = np.empty(n // 2 + 1, dtype=np.complex128)
    spectrum[: half.size] = half[: spectrum.size]
    mirror = spectrum[half.size: s.size]
    np.conjugate(half[1: (s.size + 1) // 2][::-1][: mirror.size], out=mirror)
    del half
    for start in range(s.size, spectrum.size, s.size):
        period = spectrum[start: start + s.size]
        period[:] = spectrum[: period.size]
    spectrum *= response
    return SampledWaveform._from_spectrum(symbol_rate_hz * samples_per_symbol,
                                          spectrum, n, "electrical")


def linear_preemphasis(wave: SampledWaveform, response: np.ndarray,
                       max_boost_db: float) -> SampledWaveform:
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
    return SampledWaveform._from_spectrum(wave.sample_rate_hz, spectrum * boost, wave.n,
                                          wave.domain_tag)


# ---------------------------------------------------------------------------
# band split
# ---------------------------------------------------------------------------

#: Transition width of the band split's IF anti-alias lowpass.
IF_TRANSITION_HZ = 2e9

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
        # the band split's IF lowpass, at most the AWG bandwidth, must stop
        # its sum image: the HPF band shifted up by the LO
        if (self.crossover_hz - self.crossover_transition_hz / 2 + self.lo_frequency_hz
                < self.awg_bandwidth_hz + IF_TRANSITION_HZ / 2):
            raise ParameterError("puts the band split's sum image in the IF band",
                                 "lo_frequency_hz")


def band_split(wave: SampledWaveform, plan: BandPlan) -> tuple[SampledWaveform, SampledWaveform]:
    """Split a real wideband record into (lower band, down-converted upper IF).

    Both outputs land at the AWG rate. The upper branch takes the analytic
    signal of the HPF output shifted down by the LO (snapped to the record's
    frequency grid so the later mixer up-shift cancels it exactly, and so the
    shift moves the spectrum by whole bins), then the real part, an
    AWG-bandwidth lowpass, and resampling. The one-sided spectrum already is
    the analytic signal's (each bin but DC and Nyquist doubled, then halved
    again by taking the real part), so the real part is the sum of the two
    ``lo_shift`` images. Below the LO, X[f - f_LO] is the fold back through
    DC; above it, ``BandPlan`` puts it where the IF lowpass is 0.
    """
    require_real(wave, "band_split input")
    n, rate = wave.n, wave.sample_rate_hz
    spectrum = wave.spectrum
    del wave  # a caller that handed the record on frees it with ``spectrum``

    lp = filter_response(plan.crossover_hz, plan.crossover_transition_hz, n, rate)
    lower_wave = resample(
        SampledWaveform._from_spectrum(rate, spectrum * lp, n, "electrical"),
        plan.awg_rate_hz)

    np.subtract(1.0, lp, out=lp)  # the complementary highpass
    upper = spectrum * lp
    del spectrum, lp
    # DC and the Nyquist bin of an even n carry no mirror image
    upper[0] *= 0.5
    if n % 2 == 0:
        upper[-1] *= 0.5
    up = lo_shift(upper, n, rate, plan.lo_frequency_hz)
    del upper
    aa_cutoff = min(plan.awg_bandwidth_hz, 0.49 * plan.awg_rate_hz)
    up *= filter_response(aa_cutoff, IF_TRANSITION_HZ, n, rate)
    upper_wave = resample(
        SampledWaveform._from_spectrum(rate, up, n, "electrical"),
        plan.awg_rate_hz)
    return lower_wave, upper_wave
