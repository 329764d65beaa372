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
from .frontend import ANALOG_BESSEL_ORDER, quantize_uniform
from .shaping import PamAlphabet, SymbolFrame, entropy_bits
from .sigcore import SampledWaveform, apply_filter, bessel_response, require_real, resample, rms

LLR_CAP = 50.0


# ---------------------------------------------------------------------------
# opto-electronic front end
# ---------------------------------------------------------------------------

def photodetect(fld: SampledWaveform, bandwidth_hz: float = 100e9,
                responsivity: float = 1.0, thermal_noise_density: float = 0.0,
                seed: int | None = None) -> SampledWaveform:
    """Square-law detection: i = R |E|^2, seeded thermal noise, PD bandwidth.

    ``thermal_noise_density`` is the input-referred current noise PSD
    (A^2/Hz); per-sample variance is density times the simulation rate.
    """
    if fld.domain_tag != "optical_field":
        raise ParameterError("photodetect expects an optical field envelope")
    current = responsivity * np.abs(fld.samples) ** 2
    if thermal_noise_density > 0:
        rng = np.random.default_rng(seed)
        sigma = np.sqrt(thermal_noise_density * fld.sample_rate_hz)
        current = current + rng.normal(0, sigma, fld.n)
    wave = SampledWaveform(fld.sample_rate_hz, current, "photocurrent")
    return apply_filter(wave, bessel_response(wave.freqs(), bandwidth_hz,
                                              ANALOG_BESSEL_ORDER))


def digitize(wave: SampledWaveform, rate_hz: float = 256e9,
             bandwidth_hz: float = 113e9,
             resolution_bits: int | None = None) -> SampledWaveform:
    """Scope front end: bandwidth filter, resample to the ADC rate, optional
    uniform quantization."""
    out = apply_filter(wave, bessel_response(wave.freqs(), bandwidth_hz,
                                             ANALOG_BESSEL_ORDER))
    out = resample(out, rate_hz)
    if resolution_bits is not None:
        out = out.with_samples(quantize_uniform(out.real, resolution_bits))
    return out


# ---------------------------------------------------------------------------
# synchronization
# ---------------------------------------------------------------------------

#: Receiver samples per symbol: the FFE is T/2-spaced.
SAMPLES_PER_SYMBOL = 2
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
    template = np.zeros(received.n)
    pre = np.asarray(preamble_symbols, dtype=float)
    if pre.size * SAMPLES_PER_SYMBOL > received.n:
        raise ParameterError("preamble longer than the record")
    template[: pre.size * SAMPLES_PER_SYMBOL: SAMPLES_PER_SYMBOL] = pre

    # mean removed by zeroing the DC bin
    x = received.spectrum.copy()
    x[0] = 0.0
    corr = np.fft.irfft(x * np.conj(np.fft.rfft(template)), received.n)
    mag = np.abs(corr)
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
    if delay > received.n / 2:
        delay -= received.n  # wrapped negative delay

    freqs = np.fft.rfftfreq(received.n)
    aligned = x * np.exp(2j * np.pi * freqs * delay)
    return received.with_spectrum(aligned), delay


# ---------------------------------------------------------------------------
# adaptive equalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqualizerState:
    taps: np.ndarray
    training_symbols: int
    final_mse: float  # the trained taps' mean squared error over the training span

    @property
    def tap_count(self) -> int:
        return int(self.taps.size)


#: Ridge on the FFE normal equations as a fraction of the Gram matrix's mean
#: diagonal. Half of the T/2 band carries no signal, so the bare Gram matrix
#: has a condition number near 2e18 on the presets and its solve depends on
#: the BLAS; the ridge brings it to about 3e6. Measured on both presets at
#: seeds 7 and 11, ridges from 1e-9 to 1e-6 agree within 0.001 NGMI, while
#: 1e-3 costs 0.0035 on O-band.
FFE_RIDGE = 1e-6
#: Training symbols whose windows ``ffe_train_apply`` copies at a time.
_FFE_BLOCK = 2048


def ffe_train_apply(received: np.ndarray, reference_symbols: np.ndarray,
                    tap_count: int = 101, train_fraction: float = 0.2,
                    train_passes: int = 1) -> tuple[np.ndarray, EqualizerState]:
    """Data-aided T/2-spaced least-squares feed-forward equalizer.

    Trains on the leading ``train_fraction`` of the reference, freezes the
    taps, and returns the equalized T-spaced symbols for the remainder of
    the record (on the reference scale by construction).

    With V the training windows (one row of ``tap_count`` T/2-spaced samples
    per training symbol) and r the reference, the taps solve the regularised
    normal equations ``(G + FFE_RIDGE * tr(G) / taps * I) w = V^T r`` with
    ``G = V^T V``: the Wiener taps to which an LMS equalizer converges in the
    mean (Haykin, *Adaptive Filter Theory*, 5th ed., 2014). G and V^T r are
    accumulated over blocks of ``_FFE_BLOCK`` training symbols, each copied
    into one reused buffer, so V itself is never held; ``final_mse`` comes
    from a second blocked pass.
    ``train_passes`` is accepted for callers that bind it and must be 1.
    """
    if tap_count % 2 == 0:
        raise ParameterError("tap count must be odd (centered equalizer)")
    if train_passes != 1:
        raise ParameterError("least-squares training takes one pass; "
                             "train_passes must be 1")
    x = np.asarray(received, dtype=float)
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
    windows = np.lib.stride_tricks.sliding_window_view(xp, tap_count)
    train = windows[: SAMPLES_PER_SYMBOL * n_train: SAMPLES_PER_SYMBOL]
    target = ref[:n_train]
    buffer = np.empty((min(_FFE_BLOCK, n_train), tap_count))

    def blocks():
        for a in range(0, n_train, _FFE_BLOCK):
            b = min(a + _FFE_BLOCK, n_train)
            v = buffer[: b - a]
            v[...] = train[a:b]
            yield a, b, v

    gram = np.zeros((tap_count, tap_count))
    moment = np.zeros(tap_count)
    for a, b, v in blocks():
        gram += v.T @ v
        moment += v.T @ target[a:b]
    gram[np.diag_indices(tap_count)] += FFE_RIDGE * np.trace(gram) / tap_count
    w = np.linalg.solve(gram, moment)
    residual = np.empty(n_train)
    for a, b, v in blocks():
        residual[a:b] = v @ w - target[a:b]
    final_mse = float(np.mean(residual ** 2))

    out = windows[SAMPLES_PER_SYMBOL * n_train: SAMPLES_PER_SYMBOL * n_sym:
                  SAMPLES_PER_SYMBOL] @ w
    return out, EqualizerState(w, n_train, final_mse)


# ---------------------------------------------------------------------------
# decisions, LLRs, and mutual information
# ---------------------------------------------------------------------------

def nearest_level_variance(soft_symbols: np.ndarray, alphabet: PamAlphabet) -> float:
    """The receiver's one noise-variance estimator: decision-directed with
    uniform priors, the mean squared distance from each sample to its
    nearest level (floored at 1e-30).

    The levels are strictly increasing, so the nearest one is a neighbour of
    the sample's insertion point; rounding is monotone, so the squared
    distance to it is the minimum over all levels bit for bit, and no
    (n, M) array is built.
    """
    y = np.asarray(soft_symbols, dtype=float)
    levels = alphabet.levels
    upper = np.clip(np.searchsorted(levels, y), 1, levels.size - 1)
    nearest = np.minimum((y - levels[upper - 1]) ** 2, (y - levels[upper]) ** 2)
    return max(float(np.mean(nearest)), 1e-30)


def symbol_metric(soft_symbols: np.ndarray, frame: SymbolFrame,
                  noise_variance: float | None = None) -> np.ndarray:
    """Prior-weighted symbol metric ``log p(a) - (y - a)^2 / 2 sigma^2`` as
    an (n, M) array, each row shifted so that its maximum is 0.

    If the variance is not given, it is :func:`nearest_level_variance` of
    the samples. Decisions and LLRs both reduce this metric, so a run
    decides and weighs its bits with one variance.
    """
    y = np.asarray(soft_symbols, dtype=float)
    if y.size != frame.n:
        raise ParameterError("soft symbols and frame must have equal length")
    if noise_variance is None:
        noise_variance = nearest_level_variance(y, frame.alphabet)
    if noise_variance <= 0:
        raise ParameterError("noise variance must be positive")
    metric = (y[:, None] - frame.alphabet.levels[None, :]) ** 2
    metric /= -2.0 * noise_variance
    with np.errstate(divide="ignore"):
        metric += np.log(frame.distribution.probabilities)
    metric -= metric.max(axis=1, keepdims=True)
    return metric


def decide_and_ber(metric: np.ndarray, frame: SymbolFrame) -> tuple[float, np.ndarray]:
    """MAP symbol decisions from a :func:`symbol_metric` and the resulting
    bit error ratio over the label bits.

    With uniform priors the decision thresholds reduce to the midpoints.
    """
    hard = np.argmax(metric, axis=1)
    ber = float(np.mean(frame.bits() != frame.alphabet.labels[hard]))
    return ber, hard


def llr_compute(metric: np.ndarray, frame: SymbolFrame) -> np.ndarray:
    """Per-bit LLR log[P(b=0|y)/P(b=1|y)] from a :func:`symbol_metric`,
    clipped to +-``LLR_CAP``. Returns an (n, label_bits) array.

    With P the exponential of the metric, the LLRs are
    ``log(P Z0) - log(P Z1)`` for the 0/1 label masks Z0 and Z1. A mask sum
    underflows only where the true |LLR| exceeds 700, far beyond the cap."""
    prob = np.exp(metric)
    zero = (frame.alphabet.labels == 0).astype(float)
    # np.dot reaches BLAS for this tall, narrow product; matmul is ~30x slower
    with np.errstate(divide="ignore"):
        llr = np.log(np.dot(prob, zero)) - np.log(np.dot(prob, 1.0 - zero))
    return np.clip(llr, -LLR_CAP, LLR_CAP, out=llr)


def gmi_ngmi(llrs: np.ndarray, transmitted_bits: np.ndarray,
             entropy_bits: float, label_bits: int) -> tuple[float, float]:
    """Mismatched-decoding GMI and its normalization.

    GMI = H - mean_n sum_i log2(1 + exp(+/- LLR)), the sign chosen so a
    confident correct LLR contributes ~0; NGMI = 1 - (H - GMI) / m. LLR
    magnitudes are capped at +-50 first.
    """
    llr = np.clip(np.asarray(llrs, dtype=float), -LLR_CAP, LLR_CAP)
    bits = np.asarray(transmitted_bits)
    if llr.shape != bits.shape:
        raise ParameterError("LLR and bit arrays must share shape")
    sign = np.where(bits == 1, 1.0, -1.0)
    deficit_bits = np.logaddexp(0.0, sign * llr) / np.log(2.0)
    gmi = entropy_bits - float(np.mean(np.sum(deficit_bits, axis=1)))
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
        gmi, _ = gmi_ngmi(llr_compute(metric, block), block.bits(), h_bits, m)
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
