"""Direct-detection receiver and metrology: photodiode, digitizer, frame
synchronization, T/2-spaced least-squares FFE, MAP decisions, bit LLRs,
GMI/NGMI estimation, code-rate lookup, and the net-bitrate formula.

``nearest_level_variance`` is the one home of the noise-variance estimator
and ``symbol_metric`` that of the prior-weighted symbol metric;
``decide_and_ber`` and ``llr_compute`` reduce that metric, and
``score_symbols`` turns it into a run's ``MetricsReport``, block by block.

Bitrate convention (symbol rate B in GBd, result in Gb/s): every run uses
C = (H - (1 - R) * m) * B with entropy H and m label bits (4 for PAM12).
For uniform PAM8, H = m = 3 and this is the paper's 3 * R * B; for a
uniform PAM-N with N not a power of two, H = log2 N < m. R is the NGMI for
the achievable bitrate and the required code rate for the net bitrate, so
the achievable bitrate never exceeds H * B.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoRateError, ParameterError, SyncError
from .shaping import PamAlphabet, SymbolFrame, entropy_bits
from .sigcore import (
    ANALOG_BESSEL_ORDER,
    SampledWaveform,
    _bin_spacing,
    _require_finite,
    _resampled_length,
    _shift_gram,
    _solve_spd,
    bessel_response,
    quantize_uniform,
    require_real,
    resample,
    rms,
)

LLR_CAP = 50.0
#: Floor of the symbol metric in ``llr_compute``: exp(-700) is still a
#: normal float, and a term this small cannot move an LLR below the cap.
_METRIC_FLOOR = -700.0


# ---------------------------------------------------------------------------
# opto-electronic front end
# ---------------------------------------------------------------------------

def photodetect(fld: SampledWaveform, thermal_noise_density: float,
                rng: np.random.Generator) -> SampledWaveform:
    """Square-law detection at unit responsivity, i = |E|^2, plus thermal
    noise drawn from ``rng``; the photocurrent is an electrical waveform.
    The PD bandwidth filters it in :func:`digitize`, on the bins the scope
    keeps.

    ``thermal_noise_density`` is the input-referred current noise PSD
    (A^2/Hz); per-sample variance is density times the simulation rate.
    The field is detected from its spectrum by two real transforms (see
    ``_intensity``).
    """
    if fld.domain_tag != "optical_field":
        raise ParameterError("photodetect expects an optical field envelope")
    n, rate = fld.n, fld.sample_rate_hz
    # the spectrum goes to _intensity in a list, so once the two parts are
    # formed it is freed with the field of a caller that handed it on
    spectrum = [fld.spectrum]
    del fld
    current = _intensity(spectrum.pop())
    if thermal_noise_density > 0:
        sigma = np.sqrt(thermal_noise_density * rate)
        current += rng.normal(0, sigma, n)
    _require_finite(current, "photocurrent")
    return SampledWaveform._from_spectrum(rate, np.fft.rfft(current), n, "electrical")


def _intensity(spectrum: np.ndarray) -> np.ndarray:
    """|E|^2 = a^2 + b^2 of the field E = a + j b whose n-bin ``fft`` is S,
    without the complex ``ifft``.

    On bins k = 0..n // 2, rfft(a) is the Hermitian part
    (S[k] + conj S[-k]) / 2 and rfft(b) the anti-Hermitian part
    (S[k] - conj S[-k]) / 2j, so a and b are two ``irfft``s. Both are taken
    of twice those parts, which scales them by exactly 2, and the sum of
    squares by 1/4.
    """
    n = spectrum.size
    h = n // 2 + 1
    head = spectrum[:h]
    mirror = np.empty(h, dtype=np.complex128)  # conj S[-k]
    mirror[0] = spectrum[0]
    mirror[1:] = spectrum[:n - h:-1]
    np.conjugate(mirror, out=mirror)
    both = head + mirror
    np.subtract(head, mirror, out=mirror)
    del head, spectrum  # the caller's spectrum, if it handed it on
    mirror *= -1j
    a = np.fft.irfft(both, n)
    del both
    b = np.fft.irfft(mirror, n)
    del mirror
    a *= a
    b *= b
    a += b
    a *= 0.25
    return a


def digitize(wave: SampledWaveform, rate_hz: float, bandwidth_hz: float,
             resolution_bits: int | None = None,
             pd_bandwidth_hz: float | None = None) -> SampledWaveform:
    """Receiver front end: the photodiode's bandwidth filter (none when
    ``pd_bandwidth_hz`` is None), the scope's bandwidth filter, resample to
    the ADC rate, optional uniform quantization. Both filters are formed on,
    and multiply in that order, only the bins the resample keeps, so the
    result is byte-equal to filtering the whole record first."""
    n, rate = wave.n, wave.sample_rate_hz
    kept = min(n, _resampled_length(n, rate, rate_hz)) // 2 + 1
    freqs = np.arange(kept) * _bin_spacing(n, rate)  # wave.freqs()[:kept]
    cutoffs = (bandwidth_hz,) if pd_bandwidth_hz is None else (pd_bandwidth_hz, bandwidth_hz)
    responses = [bessel_response(freqs, cutoff, ANALOG_BESSEL_ORDER) for cutoff in cutoffs]
    del freqs
    out = resample(wave, rate_hz, *responses)
    del wave  # a caller that handed the record on frees it here
    if resolution_bits is not None:
        out = out.with_samples(quantize_uniform(out.real, resolution_bits))
    return out


# ---------------------------------------------------------------------------
# synchronization
# ---------------------------------------------------------------------------

#: Receiver samples per symbol: the FFE is T/2-spaced.
SAMPLES_PER_SYMBOL = 2
#: Leading symbols of the frame that ``synchronize`` correlates against.
PREAMBLE_SYMBOLS = 512
#: Smallest ratio of the correlation peak to its rms that counts as a lock.
SYNC_PEAK_THRESHOLD = 8.0


def synchronize(received: SampledWaveform,
                preamble_symbols: np.ndarray) -> tuple[SampledWaveform, float]:
    """Locate the frame by circular cross-correlation against the known
    preamble and re-time the record, sampled at ``SAMPLES_PER_SYMBOL``,
    onto the symbol grid.

    Returns the aligned, mean-free waveform (the receiver is AC coupled)
    and the delay estimate in samples (at the received rate). Polarity is
    left to the equalizer; the correlation uses magnitudes, so an inverted
    photocurrent still locks.
    """
    require_real(received, "synchronize input")
    n, rate, tag = received.n, received.sample_rate_hz, received.domain_tag
    pre = np.asarray(preamble_symbols, dtype=float)
    if pre.size * SAMPLES_PER_SYMBOL > n:
        raise ParameterError("preamble longer than the record")

    # mean removed by zeroing the DC bin
    x = received.spectrum.copy()
    del received  # a caller that handed the record on frees it here
    x[0] = 0.0
    # both complex products are left to numpy as written: a complex product
    # rounds by operand order, and from 256 KiB on numpy reuses a temporary
    # factor's array for the product, putting that factor first, so an
    # in-place rewrite would move the results at rounding level
    mag = np.fft.irfft(x * np.conj(_template_spectrum(pre, n)), n)
    np.abs(mag, out=mag)
    peak = int(np.argmax(mag))
    floor = rms(mag)
    if floor == 0 or mag[peak] / floor < SYNC_PEAK_THRESHOLD:
        raise SyncError(
            f"correlation peak {mag[peak] / max(floor, 1e-300):.2f}x the floor "
            f"is below the {SYNC_PEAK_THRESHOLD}x sync threshold"
        )

    # parabolic refinement on the magnitude peak
    a, b, c = mag[peak - 1], mag[peak], mag[(peak + 1) % len(mag)]
    denom = a - 2 * b + c
    frac = 0.0 if denom == 0 else 0.5 * (a - c) / denom
    delay = peak + float(np.clip(frac, -0.5, 0.5))
    if delay > n / 2:
        delay -= n  # wrapped negative delay
    del mag

    aligned = x * np.exp(2j * np.pi * np.fft.rfftfreq(n) * delay)
    return SampledWaveform._from_spectrum(rate, aligned, n, tag), delay


def _template_spectrum(preamble: np.ndarray, n: int) -> np.ndarray:
    """``rfft`` of the n-sample record that holds ``preamble`` on every
    ``SAMPLES_PER_SYMBOL``-th sample from the start and zeros elsewhere."""
    template = np.zeros(n)
    template[: preamble.size * SAMPLES_PER_SYMBOL: SAMPLES_PER_SYMBOL] = preamble
    return np.fft.rfft(template)


# ---------------------------------------------------------------------------
# adaptive equalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqualizerState:
    taps: np.ndarray
    training_symbols: int
    final_mse: float  # the trained taps' mean squared error over the training span


#: Ridge on the FFE normal equations as a fraction of the Gram matrix's mean
#: diagonal. Half of the T/2 band carries no signal, so the bare Gram matrix
#: has a condition number near 2e18 on the presets and its solution is set by
#: rounding; the ridge brings it to about 3e6. Measured on both presets at
#: seeds 7 and 11, ridges from 1e-9 to 1e-6 agree within 0.001 NGMI, while
#: 1e-3 costs 0.0035 on O-band.
FFE_RIDGE = 1e-6


def ffe_train_apply(received: np.ndarray, reference_symbols: np.ndarray,
                    tap_count: int, train_fraction: float,
                    train_passes: int = 1) -> tuple[np.ndarray, EqualizerState]:
    """Data-aided T/2-spaced least-squares feed-forward equalizer.

    Trains on the leading ``train_fraction`` of the reference, freezes the
    taps, and returns the equalized T-spaced symbols for the remainder of
    the record (on the reference scale by construction).

    With V the training windows (one row of ``tap_count`` T/2-spaced samples
    per training symbol) and r the reference, the taps solve the regularised
    normal equations ``(G + FFE_RIDGE * tr(G) / taps * I) w = V^T r`` with
    ``G = V^T V``: the Wiener taps to which an LMS equalizer converges in the
    mean (Haykin, *Adaptive Filter Theory*, 5th ed., 2014).
    The windows of n training symbols are rows of one padded record xp at
    stride 2, so only the first two rows of G are sums over the record; the
    rest follow from the shift recursion of the covariance method of linear
    prediction (Makhoul, "Linear prediction: a tutorial review", Proc. IEEE
    63(4), 1975), ``G[i+2, j+2] = G[i, j] + xp[2n+i] xp[2n+j] - xp[i] xp[j]``:
    ``sigcore._shift_gram`` with one family at hop 2, the routine the
    Volterra fit runs at hop 1 over its shift families.
    The sums are ``einsum`` reductions over the sliding-window view and the
    solve is ``sigcore._solve_spd``, so no threaded BLAS or LAPACK call
    touches the record and the taps do not depend on the BLAS thread count.
    ``train_passes`` is accepted for callers that bind it and must be 1.
    """
    if tap_count % 2 == 0:
        raise ParameterError("tap count must be odd (centered equalizer)")
    if train_passes != 1:
        raise ParameterError("least-squares training takes one pass; "
                             "train_passes must be 1")
    x = np.asarray(received, dtype=float)
    _require_finite(x, "equalizer input")
    ref = np.asarray(reference_symbols, dtype=float)
    n_sym = min(x.size // SAMPLES_PER_SYMBOL, ref.size)
    if n_sym < 4 * tap_count:
        raise ParameterError("record too short for the requested equalizer")
    n_train = int(n_sym * train_fraction)
    if n_train < tap_count:
        raise ParameterError(f"{n_train} training symbols cannot fit "
                             f"{tap_count} equalizer taps")

    half = (tap_count - 1) // 2
    # records are circular end to end; pad by wrapping
    xp = np.concatenate([x[-half:], x, x[: tap_count]])
    windows = np.lib.stride_tricks.sliding_window_view(xp, tap_count)[
        : SAMPLES_PER_SYMBOL * n_sym: SAMPLES_PER_SYMBOL]
    train, target = windows[:n_train], ref[:n_train]

    gram = _shift_gram([xp], [tap_count], n_train, SAMPLES_PER_SYMBOL)
    gram[np.diag_indices(tap_count)] += FFE_RIDGE * np.trace(gram) / tap_count
    w = _solve_spd(gram, np.einsum("ki,k->i", train, target))
    fitted = np.einsum("ki,i->k", windows, w)
    final_mse = float(np.mean((fitted[:n_train] - target) ** 2))
    return fitted[n_train:], EqualizerState(w, n_train, final_mse)


# ---------------------------------------------------------------------------
# decisions, LLRs, and mutual information
# ---------------------------------------------------------------------------

def nearest_level_variance(soft_symbols: np.ndarray, alphabet: PamAlphabet) -> float:
    """The receiver's one noise-variance estimator: decision-directed with
    uniform priors, the mean squared distance from each sample to its
    nearest level (floored at 1e-30).

    The squared distance is a running minimum over the M levels: no (n, M)
    array is built, and for M up to 12 the M contiguous passes are faster
    than a binary search per sample.
    """
    y = np.asarray(soft_symbols, dtype=float)
    nearest = np.full(y.shape, np.inf)
    diff = np.empty_like(y)
    for level in alphabet.levels:
        np.subtract(y, level, out=diff)
        np.square(diff, out=diff)
        np.minimum(nearest, diff, out=nearest)
    return max(float(np.mean(nearest)), 1e-30)


def symbol_metric(soft_symbols: np.ndarray, frame: SymbolFrame,
                  noise_variance: float) -> np.ndarray:
    """Prior-weighted symbol metric ``log p(a) - (y - a)^2 / 2 sigma^2`` as
    an (n, M) array, each row shifted so that its maximum is 0. The array is
    the transpose of a C-ordered (M, n) one.

    Decisions and LLRs both reduce this metric, so a run decides and weighs
    its bits with one variance, its :func:`nearest_level_variance`.
    """
    y = np.asarray(soft_symbols, dtype=float)
    if y.size != frame.n:
        raise ParameterError("soft symbols and frame must have equal length")
    if noise_variance <= 0:
        raise ParameterError("noise variance must be positive")
    # built as (M, n), so that every step, the maximum over the M levels
    # included, runs along contiguous rows of n; (a - y)^2 is (y - a)^2 bit
    # for bit
    metric = np.subtract.outer(frame.alphabet.levels, y)
    np.square(metric, out=metric)
    metric /= -2.0 * noise_variance
    with np.errstate(divide="ignore"):
        metric += np.log(frame.distribution.probabilities)[:, None]
    metric -= metric.max(axis=0)
    return metric.T


def decide_and_ber(metric: np.ndarray, frame: SymbolFrame) -> tuple[float, np.ndarray]:
    """MAP symbol decisions from a :func:`symbol_metric` and the resulting
    bit error ratio over the label bits.

    With uniform priors the decision thresholds reduce to the midpoints.
    """
    hard = np.argmax(metric, axis=1)
    labels = frame.alphabet.labels
    # bit errors of each (sent, decided) pair: the same integer count as
    # comparing the (n, m) label arrays, without building them
    hamming = np.count_nonzero(labels[:, None, :] != labels[None, :, :], axis=2)
    # one flat gather at sent * M + decided, in intp so that the one-byte
    # indices do not wrap, is faster than the two-index fancy gather
    flat = frame.indices * np.intp(frame.alphabet.size) + hard
    errors = int(np.take(hamming, flat).sum())
    return errors / (frame.n * frame.alphabet.label_bits), hard


def llr_compute(metric: np.ndarray, frame: SymbolFrame) -> np.ndarray:
    """Per-bit LLR log[P(b=0|y)/P(b=1|y)] from a :func:`symbol_metric`,
    clipped to +-``LLR_CAP``. Returns an (n, label_bits) array.

    With P the exponential of the metric, the LLRs are
    ``log(P Z0) - log(P Z1)`` for the 0/1 label masks Z0 and Z1. The metric
    is floored at ``_METRIC_FLOOR`` first, so no subnormal reaches ``exp``,
    the product or ``log``. Each row's maximum is 0, so a floored term moves
    a mask sum only where that sum is below about exp(-660), that is where
    |LLR| exceeds 600: the capped LLRs are those of the unfloored metric."""
    # (M, n) like the metric's own layout; both mask sums come from one
    # product, so that one log covers them
    prob = np.maximum(metric.T, _METRIC_FLOOR)
    np.exp(prob, out=prob)
    masks = frame.alphabet.labels.T
    sums = np.vstack([masks == 0, masks == 1]).astype(float) @ prob
    del prob
    np.log(sums, out=sums)
    m = masks.shape[0]
    llr = sums[:m] - sums[m:]
    np.clip(llr, -LLR_CAP, LLR_CAP, out=llr)
    # C order, like the label bits that gmi_ngmi pairs it with
    return np.ascontiguousarray(llr.T)


def gmi_ngmi(llrs: np.ndarray, transmitted_bits: np.ndarray,
             entropy_bits: float, label_bits: int) -> tuple[float, float]:
    """Mismatched-decoding GMI and its normalization.

    GMI = H - mean_n sum_i log2(1 + exp(+/- LLR)), the sign chosen so a
    confident correct LLR contributes ~0; NGMI = 1 - (H - GMI) / m. LLR
    magnitudes are capped at +-50 first, so ``exp`` cannot overflow and
    ``log1p(exp(x))`` stands for ``logaddexp(0, x)``; the deficit over all
    n symbols is one sum.
    """
    llr = np.clip(np.asarray(llrs, dtype=float), -LLR_CAP, LLR_CAP)
    bits = np.asarray(transmitted_bits)
    if llr.shape != bits.shape:
        raise ParameterError("LLR and bit arrays must share shape")
    signed = np.where(bits == 1, llr, -llr)
    np.exp(signed, out=signed)
    np.log1p(signed, out=signed)
    gmi = entropy_bits - float(signed.sum() / (np.log(2.0) * llr.shape[0]))
    ngmi = 1.0 - (entropy_bits - gmi) / label_bits
    return gmi, ngmi


# ---------------------------------------------------------------------------
# rate adaptation and bitrates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateTable:
    """(code rate, NGMI threshold) rows, both strictly increasing.

    Thresholds must not sit below their rates; that ordering is what makes
    net <= achievable hold for every measured NGMI. The default table is a
    declared placeholder (rates 0.60..0.95, threshold = rate + 0.02), not a
    calibrated FEC characterization.
    """

    rates: np.ndarray
    ngmi_thresholds: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        t = np.asarray(self.ngmi_thresholds, dtype=float)
        if r.size != t.size or r.size < 1:
            raise ParameterError("rate table needs matching non-empty columns")
        if np.any(np.diff(r) <= 0) or np.any(np.diff(t) <= 0):
            raise ParameterError("rates and thresholds must be strictly increasing")
        if np.any(r <= 0) or np.any(r > 1) or np.any(t <= 0) or np.any(t > 1):
            raise ParameterError("rates and thresholds must lie in (0, 1]")
        if np.any(t < r):
            raise ParameterError("each threshold must be >= its rate")
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "ngmi_thresholds", t)

    @classmethod
    def default(cls) -> "RateTable":
        rates = np.arange(0.60, 0.951, 0.05)
        return cls(rates, rates + 0.02)


def required_code_rate(ngmi: float, table: RateTable) -> float:
    """Code rate predicted to decode error-free at the measured NGMI,
    interpolated between rows (puncturing gives fine rate granularity)."""
    if not np.isfinite(ngmi):
        raise ParameterError("NGMI must be finite")
    t = table.ngmi_thresholds
    r = table.rates
    if ngmi < t[0]:
        raise NoRateError(
            f"NGMI {ngmi:.4f} is below the lowest threshold {t[0]:.4f}"
        )
    if ngmi >= t[-1]:
        return float(r[-1])
    return float(np.interp(ngmi, t, r))


def net_bitrate_ps(h_bits: float, code_rate: float, symbol_rate_gbd: float,
                   label_bits: int = 4) -> float:
    """Shaped-PAM bitrate (H - (1 - R) * m) * B in Gb/s.

    R = NGMI gives the achievable bitrate, R = required code rate the net
    bitrate. Negative results clamp to zero with a warning (over-parity).
    """
    if not 0 < code_rate <= 1:
        raise ParameterError("code rate must lie in (0, 1]")
    if not (np.isfinite(h_bits) and np.isfinite(symbol_rate_gbd)):
        raise ParameterError("entropy and symbol rate must be finite")
    value = (h_bits - (1.0 - code_rate) * label_bits) * symbol_rate_gbd
    if value < 0:
        warnings.warn("parity overhead exceeds the shaped entropy; clamping to 0",
                      stacklevel=2)
        return 0.0
    return value


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------

CSV_HEADER = (
    "symbol_rate_gbd,entropy_bits,label_bits,ber,gmi_bits,ngmi,"
    "required_code_rate,achievable_bitrate_gbps,net_bitrate_gbps,seed"
)


@dataclass(frozen=True)
class MetricsReport:
    """Per-run metrology outcome; the row format of every sweep table."""

    ber: float
    gmi_bits: float
    ngmi: float
    required_code_rate: float
    achievable_bitrate_gbps: float
    net_bitrate_gbps: float
    symbol_rate_gbd: float
    entropy_bits: float
    label_bits: int
    seed: int

    def __post_init__(self):
        if not -1e-9 <= self.ngmi <= 1.0 + 1e-9:
            raise ParameterError(f"NGMI {self.ngmi} outside [0, 1]")
        if self.net_bitrate_gbps > self.achievable_bitrate_gbps + 1e-9:
            raise ParameterError("net bitrate exceeds achievable bitrate")
        # relative slack for rows read back from CSV, whose symbol rate
        # carries 6 significant digits
        if self.achievable_bitrate_gbps > (
                self.entropy_bits * self.symbol_rate_gbd * (1 + 1e-5) + 1e-9):
            raise ParameterError("achievable bitrate exceeds entropy x symbol rate")
        if min(self.net_bitrate_gbps, self.achievable_bitrate_gbps) < 0:
            raise ParameterError("bitrates must be non-negative")

    def to_csv_row(self) -> str:
        return (
            f"{self.symbol_rate_gbd:.6g},{self.entropy_bits:.9g},{self.label_bits},"
            f"{self.ber:.6e},{self.gmi_bits:.9g},{self.ngmi:.9g},"
            f"{self.required_code_rate:.9g},{self.achievable_bitrate_gbps:.9g},"
            f"{self.net_bitrate_gbps:.9g},{self.seed}"
        )

    @classmethod
    def from_csv_row(cls, row: str) -> "MetricsReport":
        """Inverse of :meth:`to_csv_row` (columns in ``CSV_HEADER`` order)."""
        names, fields = CSV_HEADER.split(","), row.split(",")
        if len(fields) != len(names):
            raise ParameterError(f"CSV row needs the {CSV_HEADER!r} columns: {row!r}")
        return cls(**{name: (int if name in ("label_bits", "seed") else float)(text)
                      for name, text in zip(names, fields)})


#: Symbols ``score_symbols`` scores at a time.
_SCORE_BLOCK = 8192


def score_symbols(soft_symbols: np.ndarray, frame: SymbolFrame, rate_table: RateTable,
                  symbol_rate_gbd: float, seed: int) -> MetricsReport:
    """Score equalized symbols against the frame they carry: MAP decisions
    and BER, bit LLRs, GMI/NGMI, the required code rate and both bitrates.

    The noise variance is estimated once over the whole record; the
    :func:`symbol_metric`, the decisions, the LLRs and the GMI are then
    taken over blocks of ``_SCORE_BLOCK`` symbols, whose error counts and
    GMI deficits add up, so no (n, M) array of the record is held.
    """
    y = np.asarray(soft_symbols, dtype=float)
    if y.size != frame.n:
        raise ParameterError("soft symbols and frame must have equal length")
    variance = nearest_level_variance(y, frame.alphabet)
    h_bits = entropy_bits(frame.distribution)
    m = frame.alphabet.label_bits
    errors, deficit = 0, 0.0
    for a in range(0, frame.n, _SCORE_BLOCK):
        block = SymbolFrame(frame.indices[a: a + _SCORE_BLOCK], frame.alphabet,
                            frame.distribution)
        metric = symbol_metric(y[a: a + _SCORE_BLOCK], block, variance)
        ber, _ = decide_and_ber(metric, block)
        # a block's BER is its error count over n * m, so this is exact
        errors += round(ber * block.n * m)
        llr = llr_compute(metric, block)
        del metric  # before the next block's metric is built
        gmi, _ = gmi_ngmi(llr, block.bits(), h_bits, m)
        del llr
        deficit += (h_bits - gmi) * block.n
    ber = errors / (frame.n * m)
    gmi = h_bits - deficit / frame.n
    ngmi = 1.0 - (h_bits - gmi) / m
    rate = required_code_rate(ngmi, rate_table)
    return MetricsReport(
        ber=ber, gmi_bits=gmi, ngmi=ngmi, required_code_rate=rate,
        achievable_bitrate_gbps=net_bitrate_ps(h_bits, ngmi, symbol_rate_gbd, m),
        net_bitrate_gbps=net_bitrate_ps(h_bits, rate, symbol_rate_gbd, m),
        symbol_rate_gbd=symbol_rate_gbd, entropy_bits=h_bits, label_bits=m,
        seed=seed,
    )
