"""Transmitter DSP: Volterra pre-distortion, RRC pulse shaping, linear
pre-emphasis, and the digital band split feeding the two-converter
bandwidth-extension front end.

The Volterra terms split into shift families, one template delayed by
consecutive shifts, and each family is one base sequence: the product of
its delayed samples. Fit and apply read every feature as a lag view of a
base. The fit's Gram matrix is the covariance method's shift recursion
that the receiver's FFE uses too (``sigcore._shift_gram``), and its moment
and the series are ``einsum`` sums, so the pre-distorter builds no feature
matrix and makes no BLAS call over the record.

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
    _checked,
    _require_finite,
    _shift_gram,
    _solve_spd,
    apply_filter,
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
#: Samples of the Volterra series ``_volterra_series`` sums at a time.
_SERIES_BLOCK = 8192


@dataclass(frozen=True)
class VolterraFit:
    kernel: VolterraKernel
    train_nmse_db: float
    holdout_nmse_db: float
    condition_number: float


def _families(terms: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """Split the terms into shift families, in order of first appearance.

    A family is one template, its delays counted from the smallest, delayed
    by consecutive shifts: the taps, the squares, the adjacent pairs, ...
    Each family is returned as ``(shape, top, index)``: the template, its
    largest shift, and the positions in ``terms`` of its terms from that
    shift down. The terms come in lexicographic order, so within a shape
    the shifts ascend, and every window and spread gives a shape a
    consecutive run of them.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, t in enumerate(terms):
        groups.setdefault(tuple(d - t[0] for d in t), []).append(i)
    return [(shape, terms[index[-1]][0], index[::-1]) for shape, index in groups.items()]


def _family_bases(x: np.ndarray, families, guard: int) -> list[np.ndarray]:
    """The base sequence ``b[m] = prod_{e in shape} x[m - e]`` of each
    family (zeros outside the record), multiplied left to right, so every
    feature is bit for bit the product of its delayed samples.

    The bases live on the record zero-padded by ``guard`` on both sides and
    start ``shape[-1]`` samples in: ``b[m]`` is at index
    ``m + guard - shape[-1]``. The taps' base is the padded record itself.
    """
    pad = np.zeros(guard)
    xp = np.concatenate([pad, x, pad])
    bases = []
    for shape, _, _ in families:
        top = shape[-1]
        first, *rest = [xp[top - e: xp.size - e] for e in shape]
        if rest:
            first = first * rest.pop(0)
            for factor in rest:
                first *= factor
        bases.append(first)
    return bases


def _lag_start(family, guard: int, a: int) -> int:
    """Index in a family's base of its first feature's value at sample
    ``a``: the feature of shift ``top - j`` at sample n is the base at this
    start plus ``n - a + j``, so the family's features are lag views of
    the base with positive strides."""
    shape, top, _ = family
    return a - top + guard - shape[-1]


def _normal_equations(bases, families, guard: int, y: np.ndarray, lo: int,
                      hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``(Phi^T Phi, Phi^T y)`` over samples ``lo..hi-1``, with Phi the
    features in family order (each family's terms from the largest shift
    down). The Gram matrix is :func:`_shift_gram` at hop 1 over the
    families' lag windows; the moment is one ``einsum`` per family."""
    count = hi - lo
    starts = [_lag_start(f, guard, lo) for f in families]
    widths = [len(f[2]) for f in families]
    gram = _shift_gram([b[a:] for b, a in zip(bases, starts)], widths, count, 1)
    moment = np.concatenate([
        np.einsum("jk,k->j", np.lib.stride_tricks.sliding_window_view(
            b[a: a + count + w - 1], count), y[lo:hi])
        for b, a, w in zip(bases, starts, widths)])
    return gram, moment


def _volterra_series(bases, families, guard: int, w: np.ndarray, lo: int, hi: int,
                     n: int) -> np.ndarray:
    """``sum_t w_t * feature_t`` at samples ``lo..hi-1`` of an n-sample
    record, zero elsewhere: per block of ``_SERIES_BLOCK`` samples, one
    ``einsum`` of each family's coefficients with the lag view of its
    base. ``w`` is in term order."""
    rows = [np.lib.stride_tricks.sliding_window_view(
        base[_lag_start(family, guard, lo):][: hi - lo + len(family[2]) - 1], hi - lo)
        for base, family in zip(bases, families)]
    coefficients = [w[family[2]] for family in families]
    y = np.zeros(n)
    for a in range(0, hi - lo, _SERIES_BLOCK):
        out = y[lo + a: min(lo + a + _SERIES_BLOCK, hi)]
        for view, c in zip(rows, coefficients):
            # in Fortran order the loop runs along the samples, not the
            # few coefficients
            out += np.einsum("jn,j->n", view[:, a: a + out.size], c, order="F")
    return y


def _guard(terms: list[tuple[int, ...]]) -> int:
    return max(abs(d) for t in terms for d in t)


def apply_volterra(symbols: np.ndarray, kernel: VolterraKernel) -> np.ndarray:
    """y[n] = sum_t c_t prod_{d in t} x[n - d] over the kernel's terms, with
    zeros outside the record."""
    x = np.asarray(symbols, dtype=float)
    if kernel.structure.memory_1 > x.size:
        raise ParameterError("kernel memory exceeds sequence length")
    terms = kernel.structure.terms()
    families, guard = _families(terms), _guard(terms)
    return _volterra_series(_family_bases(x, families, guard), families, guard,
                            kernel.coefficients, 0, x.size, x.size)


def fit_volterra(stimulus: np.ndarray, observed_response: np.ndarray,
                 structure: VolterraStructure | None = None) -> VolterraFit:
    """Least-squares post-inverse: regress ``stimulus`` on Volterra features
    of ``observed_response``. The resulting kernel, applied before the same
    device, acts as a pre-distorter (indirect learning).

    A trailing ``VOLTERRA_HOLDOUT_FRACTION`` of the record is held out to
    report a generalization NMSE next to the training NMSE. No feature
    matrix is built: the normal equations come from the shift families'
    base sequences (:func:`_normal_equations`) and solved by the FFE's
    ``_solve_spd``, and the residuals of both spans come from
    :func:`_volterra_series` over the same bases, as ``apply_volterra``
    evaluates a kernel. Every sum is an ``einsum`` or the shift recursion and
    every solve at most 96 unknowns wide, so the kernel does not depend on
    the BLAS thread count; only the condition gate's ``eigvalsh`` is one
    LAPACK call on the whole Gram matrix, which OpenBLAS threads above about
    64 coefficients (the default structure has 63).
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

    guard = _guard(terms)
    lo, hi = guard, x.size - guard
    n_train = lo + int((hi - lo) * (1.0 - VOLTERRA_HOLDOUT_FRACTION))

    families = _families(terms)
    bases = _family_bases(x, families, guard)
    gram, moment = _normal_equations(bases, families, guard, y, lo, n_train)
    eig = np.linalg.eigvalsh(gram)
    cond = float(np.sqrt(eig[-1] / eig[0])) if eig[0] > 0 else np.inf
    if cond > VOLTERRA_MAX_CONDITION:
        raise NumericalError(
            f"normal equations ill-conditioned (cond={cond:.3g}); "
            "reduce the term count or decorrelate the stimulus"
        )
    w = np.empty(len(terms))
    w[np.concatenate([f[2] for f in families])] = _solve_spd(gram, moment)

    fitted = _volterra_series(bases, families, guard, w, lo, hi, x.size)
    del bases

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
    if not isinstance(samples_per_symbol, (int, np.integer)) or samples_per_symbol < 1:
        raise ParameterError("samples_per_symbol must be an integer >= 1")
    rate = symbol_rate_hz * samples_per_symbol
    s = _checked(rate, symbols, "electrical", "symbols").astype(float, copy=False)
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
    return SampledWaveform._from_spectrum(rate, spectrum, n, "electrical")


def linear_preemphasis(wave: SampledWaveform, response: np.ndarray,
                       max_boost_db: float) -> SampledWaveform:
    """Magnitude-inverse pre-equalization of a device chain ``response``
    given on the waveform's own frequency grid (``wave.freqs()``).

    Boost is clipped at ``max_boost_db``, which also covers zeros in the
    response. Phase is left untouched; the receiver equalizer owns residual
    phase.
    """
    if not (np.isfinite(max_boost_db) and max_boost_db >= 0):
        raise ParameterError("max_boost_db must be non-negative and finite")
    h_mag = np.abs(response)
    cap = 10 ** (max_boost_db / 20.0)
    with np.errstate(divide="ignore"):
        boost = np.where(h_mag > 0, np.minimum(1.0 / h_mag, cap), cap)
    return apply_filter(wave, boost)


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
    del wave  # a caller that handed the record on frees it once the spectrum goes

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
