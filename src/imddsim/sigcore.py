"""Waveform container, filter responses and their application, resampling,
the LO shift, signal metrics, and the normal equations that the FFE and the
Volterra fit share: the shift-recursion Gram matrix and its blocked solve.

Conventions used throughout the simulator:

- Records are treated as circular: a linear stage is a response H(f) on the
  record's DFT grid, so zero-phase designs apply with exactly zero
  delay and length is always preserved.
- A :class:`SampledWaveform` holds one array, its spectrum, and its
  public constructors copy their input; the samples are the inverse
  transform, computed on each read. Linear stages (filters, pulse
  shaping, resampling by spectral truncation or zero padding, DAC droop,
  mixer gain, uncompressed amplifiers, dispersion, the optical filter, DC
  removal as a zeroed DC bin) multiply or reshape the spectrum, so a chain
  of them costs no transform. A transform runs only where a pointwise
  stage meets a linear one: quantizers, tanh amplifier, drive peak and MZM
  cosine, thermal noise, square-law detection, sync correlation, and the
  equalizer. The LO sits on the record grid, so the mixer's up-conversion
  and the band split's down-conversion are one whole-bin spectrum shift,
  :func:`lo_shift`.
  The modulator hands on the optical field as its spectrum, and white ASE
  noise is drawn as its DFT, so they cost no transform either.
- Real signals stay real. Electrical waveforms, the photocurrent among
  them, hold the one-sided ``n // 2 + 1``-bin spectrum (``rfft``/``irfft``)
  and float64 samples; only the optical field between the MZM and the
  photodiode holds the full n-bin spectrum, and complex samples. No real
  waveform holds the redundant negative-frequency half of its spectrum.
  Even the field is transformed by real transforms: the modulator takes the
  ``rfft`` of its real-valued cosine and writes the negative half as the
  conjugate mirror, and the photodiode forms |E|^2 from the field's
  spectrum by two ``irfft``s.
- A filter is a response array on the waveform's own frequency grid
  (``wave.freqs()``), written in closed form, and :func:`apply_filter`
  multiplies it onto the spectrum.
  Two functions cover the chain: :func:`bessel_response` (analog Bessel
  lowpass of order 2 or 4, with its phase, for the converter, amplifier,
  modulator, photodiode and scope roll-offs) and :func:`filter_response`
  (zero-phase raised-cosine lowpass for the digital crossover, the IF
  anti-alias filter and the analog HPF; the highpass is ``1 - response``,
  so the pair sums to unity and each is exactly 0 or 1 outside the
  transition). The RRC pulse is ``txdsp``'s, a closed-form response too.
- The Bessel design is a short numpy port of the ``scipy.signal`` design
  the chain used (``bessel(..., analog=True, norm="mag")`` with ``freqs``)
  and matches it bit for bit, so importing the package loads no
  ``scipy.signal``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ParameterError

#: dB floor used wherever a log of a vanishing error is reported.
NMSE_FLOOR_DB = -200.0

_DOMAIN_TAGS = ("electrical", "optical_field")
#: The longest record whose n-bin complex spectrum numpy can size: its
#: bytes must fit in ``intp``.
_MAX_RECORD = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize


class SampledWaveform:
    """Uniformly sampled signal; the carrier between all pipeline stages.

    Parameters
    ----------
    sample_rate_hz : float
        Sampling rate, > 0.
    samples : array-like
        Finite sample values: real for an electrical waveform (a complex
        array raises, whatever its imaginary part), real or complex for an
        optical field.
    domain_tag : str
        ``electrical`` or ``optical_field``.

    A waveform holds one array, its spectrum, in the form that fits the
    domain: the one-sided ``n // 2 + 1``-bin ``rfft`` of a real waveform,
    the full n-bin ``fft`` of an optical field (unnormalized, ``numpy.fft``
    order), with :meth:`freqs` giving its bin frequencies. This constructor
    takes that transform at once and keeps nothing else, and
    :meth:`from_spectrum` builds a waveform from a copy of its spectrum, with
    no transform, so no caller shares the array a waveform holds.
    :attr:`samples` is the inverse transform, a new array on every read.
    Stages never modify a waveform; they build a new one.
    """

    __slots__ = ("sample_rate_hz", "domain_tag", "n", "_spectrum")

    def __init__(self, sample_rate_hz: float, samples, domain_tag: str = "electrical"):
        arr = _checked(sample_rate_hz, samples, domain_tag, "samples")
        _require_finite(arr, "samples")
        if domain_tag == "electrical":
            if np.iscomplexobj(arr):
                raise ParameterError(f"{domain_tag} samples must be real")
            spectrum = np.fft.rfft(arr.astype(np.float64, copy=False))
        else:
            spectrum = np.fft.fft(arr.astype(np.complex128, copy=False))
        self.sample_rate_hz = sample_rate_hz
        self.domain_tag = domain_tag
        self.n = arr.size
        self._spectrum = spectrum

    @classmethod
    def from_spectrum(cls, sample_rate_hz: float, spectrum, n: int,
                      domain_tag: str = "electrical") -> "SampledWaveform":
        """The n-sample waveform whose spectrum is a copy of ``spectrum``: n
        bins for an optical field, and ``n // 2 + 1`` bins for an electrical
        waveform, whose samples are the ``irfft``.

        ``irfft`` ignores the imaginary parts of the DC bin and, for even n,
        the Nyquist bin, so the waveform holds the spectrum with those parts
        zeroed: the ``rfft`` of its samples. Where the record grid later
        changes (resampling, mixing), those bins become interior bins, and
        an imaginary part left there would turn into signal."""
        spec = _checked(sample_rate_hz, spectrum, domain_tag, "spectrum")
        _require_finite(spec, "spectrum")
        return cls._from_spectrum(sample_rate_hz, spec.astype(np.complex128), n,
                                  domain_tag)

    @classmethod
    def _from_spectrum(cls, sample_rate_hz: float, spectrum: np.ndarray, n: int,
                       domain_tag: str) -> "SampledWaveform":
        """The waveform that takes over ``spectrum``, a complex array a stage
        has just computed and no one else holds, unscanned (see
        ``_require_finite``); the DC and Nyquist imaginary parts of a real
        waveform's spectrum are zeroed in it."""
        real = domain_tag == "electrical"
        bins = n // 2 + 1 if real else n
        if spectrum.size != bins:
            raise ParameterError(f"a {n}-sample {domain_tag} waveform has {bins} "
                                 f"spectrum bins, not {spectrum.size}")
        if real:
            ends = [0, -1] if n % 2 == 0 else [0]
            if np.any(spectrum[ends].imag != 0):
                spectrum[ends] = spectrum[ends].real
        wave = cls.__new__(cls)
        wave.sample_rate_hz = sample_rate_hz
        wave.domain_tag = domain_tag
        wave.n = n
        wave._spectrum = spectrum
        return wave

    @property
    def samples(self) -> np.ndarray:
        """The inverse transform of the spectrum, a new array on each read:
        ``irfft`` for a real waveform, ``ifft`` for an optical field."""
        if self.domain_tag == "electrical":
            return np.fft.irfft(self._spectrum, self.n)
        return np.fft.ifft(self._spectrum)

    @property
    def spectrum(self) -> np.ndarray:
        """``rfft`` of the samples of a real waveform, ``fft`` of those of an
        optical field: the waveform's stored array."""
        return self._spectrum

    @property
    def real(self) -> np.ndarray:
        return self.samples.real

    def freqs(self) -> np.ndarray:
        """Frequency of each spectrum bin (Hz): ``rfftfreq`` for a real
        waveform, ``fftfreq`` for an optical field."""
        grid = np.fft.rfftfreq if self.domain_tag == "electrical" else np.fft.fftfreq
        return grid(self.n, d=1.0 / self.sample_rate_hz)

    def with_samples(self, samples: np.ndarray) -> "SampledWaveform":
        return SampledWaveform(self.sample_rate_hz, samples, self.domain_tag)

    def scaled(self, factor: float) -> "SampledWaveform":
        """The waveform times a constant, formed on the spectrum."""
        return SampledWaveform._from_spectrum(self.sample_rate_hz, factor * self._spectrum,
                                              self.n, self.domain_tag)


def _checked(sample_rate_hz: float, values, domain_tag: str, what: str) -> np.ndarray:
    """``values`` as an array, after the checks that need no pass over it."""
    if not (np.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ParameterError("sample_rate_hz must be positive and finite")
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{what} must be a non-empty 1-D sequence")
    if domain_tag not in _DOMAIN_TAGS:
        raise ParameterError(f"unknown domain_tag {domain_tag!r}")
    return arr


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise unless every value is finite.

    This is a pass over the record, so it runs only where outside data
    enters: the public constructors (``SampledWaveform``, ``with_samples``
    through it, and :meth:`~SampledWaveform.from_spectrum`), the raw arrays
    a public stage takes, and the output of the pointwise stages that can
    overflow (amplifier gain, the modulator's cosine, optical gain and ASE,
    square-law detection). A linear stage applies a finite closed-form
    response to a finite record, so the waveforms the stages build in
    between go unscanned.
    """
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{what} must be finite")


def require_real(wave: SampledWaveform, what: str) -> None:
    """Raise unless ``wave`` is an electrical waveform."""
    if wave.domain_tag != "electrical":
        raise ParameterError(f"{what} must be real, not an {wave.domain_tag}")


# ---------------------------------------------------------------------------
# the record grid
# ---------------------------------------------------------------------------

def _bin_spacing(n: int, sample_rate_hz: float) -> float:
    """DFT bin spacing (Hz) of an n-sample record, as ``rfftfreq`` forms it."""
    return 1.0 / (n * (1.0 / sample_rate_hz))


def _resampled_length(n: int, sample_rate_hz: float, target_rate_hz: float) -> int:
    """Samples of an n-sample record at ``sample_rate_hz`` once resampled to
    ``target_rate_hz``: a ``ParameterError`` unless the target rate is
    positive and finite and the record duration maps to a whole number of
    samples that numpy can size."""
    if not (np.isfinite(target_rate_hz) and target_rate_hz > 0):
        raise ParameterError("target rate must be positive and finite")
    n_out_f = n * target_rate_hz / sample_rate_hz
    n_out = int(round(n_out_f)) if np.isfinite(n_out_f) else 0
    if abs(n_out_f - n_out) > 1e-6 or not 1 <= n_out <= _MAX_RECORD:
        raise ParameterError(
            f"rate ratio {target_rate_hz}/{sample_rate_hz} does not yield an "
            f"integer record length from {n} samples that numpy can size"
        )
    return n_out


def _lo_bin(lo_frequency_hz: float, n: int, sample_rate_hz: float) -> int:
    """The bin of an n-sample record's grid that an LO at
    ``lo_frequency_hz`` snaps to, between DC and Nyquist, else a
    ``ParameterError``."""
    k = int(round(lo_frequency_hz * n / sample_rate_hz))
    if not 0 <= k <= n // 2:
        raise ParameterError(f"LO {lo_frequency_hz:.4g} Hz lies outside "
                             f"[0, Nyquist {sample_rate_hz / 2:.4g} Hz]")
    return k


# ---------------------------------------------------------------------------
# filter responses
# ---------------------------------------------------------------------------

def filter_response(cutoff_hz: float, transition_width_hz: float, n: int,
                    sample_rate_hz: float) -> np.ndarray:
    """Zero-phase raised-cosine lowpass on the one-sided grid of a real
    n-sample record at the given rate (``n // 2 + 1`` bins, ``rfftfreq``):
    1 below ``cutoff - w/2``, 0 above ``cutoff + w/2``, and
    ``(1 + cos(pi * ((f - cutoff) / w + 1/2))) / 2`` in between, with the
    width ``w`` shrunk to fit between DC and Nyquist. ``1 - response`` is the
    complementary highpass: the two sum to unity across the crossover."""
    nyq = sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyq:
        raise ParameterError(
            f"cutoff {cutoff_hz:.3g} Hz outside (0, Nyquist {nyq:.3g} Hz)"
        )
    if not transition_width_hz > 0:
        raise ParameterError("transition width must be positive")
    width = min(transition_width_hz, 2 * cutoff_hz, 2 * (nyq - cutoff_hz))
    # the cosine is formed on the transition bins only, their frequencies
    # as ``rfftfreq`` forms them; lo and hi lie a bin or two outside the
    # transition, so every bin outside them has a clipped phase of exactly
    # 0 or 1, that is a response of exactly 1 or 0
    bins = n // 2 + 1
    val = _bin_spacing(n, sample_rate_hz)
    lo = min(max(int(np.floor((cutoff_hz - width / 2) / val)) - 1, 0), bins)
    hi = min(max(int(np.ceil((cutoff_hz + width / 2) / val)) + 2, lo), bins)
    response = np.empty(bins)
    response[:lo] = 1.0
    response[hi:] = 0.0
    phase = np.arange(lo, hi) * val
    phase -= cutoff_hz
    phase /= width
    phase += 0.5
    np.clip(phase, 0.0, 1.0, out=phase)
    phase *= np.pi
    np.cos(phase, out=phase)
    phase += 1.0
    np.multiply(0.5, phase, out=response[lo:hi])
    return response


#: Poles and gain of the analog Bessel lowpass prototypes with their 3-dB
#: point at 1 rad/s (``scipy.signal.besselap(order, norm="mag")``), for the
#: orders the chain uses.
_BESSEL_PROTOTYPES = {
    2: ((complex(-1.1016013305921608, 0.636009824757034),
         complex(-1.1016013305921608, -0.636009824757034)), 1.6180339887498931),
    4: ((complex(-0.995208764350272, 1.257105739454664),
         complex(-1.3700678305514422, 0.41024971749375155),
         complex(-1.3700678305514422, -0.41024971749375155),
         complex(-0.995208764350272, -1.257105739454664)), 5.258199010244144),
}


#: Bins per block in which :func:`bessel_response` and the optical channel
#: evaluate their responses and :func:`lo_shift` adds its second image, so
#: no full-length temporary is held.
_RESPONSE_BLOCK = 8192


def _bessel_design(cutoff_hz: float, order: int) -> tuple[float, np.ndarray]:
    """Gain and real denominator polynomial of the Bessel lowpass with its
    3-dB point at ``cutoff_hz``: the prototype's poles scaled by the cutoff
    in rad/s, multiplied out highest power first."""
    if order not in _BESSEL_PROTOTYPES:
        raise ParameterError(f"Bessel order {order} is not one of "
                             f"{sorted(_BESSEL_PROTOTYPES)}")
    poles, gain = _BESSEL_PROTOTYPES[order]
    wo = float(2 * np.pi * cutoff_hz)
    den = np.ones(1, dtype=np.complex128)
    for pole in wo * np.array(poles):
        den = np.convolve(den, np.array([1.0 + 0j, -pole]))
    return gain * wo**order, den.real


def bessel_response(freqs_hz: np.ndarray, cutoff_hz: float, order: int) -> np.ndarray:
    """Analog Bessel lowpass of ``order`` poles (3-dB point at ``cutoff_hz``;
    orders 2 and 4) evaluated with its phase at ``freqs_hz``; closed form, so
    it may roll off beyond Nyquist. The denominator is real, so the response
    at -f is the conjugate of that at f."""
    if not (np.isfinite(cutoff_hz) and cutoff_hz > 0):
        raise ParameterError("Bessel cutoff must be positive and finite")
    gain, den = _bessel_design(cutoff_hz, order)
    f = np.asarray(freqs_hz, dtype=float)
    out = np.empty(f.shape, dtype=np.complex128)
    flat, y_flat = f.reshape(-1), out.reshape(-1)
    # in blocks, so no full-length complex s = j 2 pi f is held
    for start in range(0, flat.size, _RESPONSE_BLOCK):
        s = 1j * (2 * np.pi * flat[start:start + _RESPONSE_BLOCK])
        y = y_flat[start:start + _RESPONSE_BLOCK]
        y[:] = 0
        for coef in den:  # Horner, as scipy.signal.freqs evaluates it, in place
            y *= s
            y += coef
        np.divide(gain, y, out=y)
    return out


def apply_filter(wave: SampledWaveform, response: np.ndarray) -> SampledWaveform:
    """Filter a waveform: its spectrum times ``response``, given on the
    waveform's own frequency grid (``wave.freqs()``), so length is
    preserved."""
    spectrum = wave.spectrum
    if np.shape(response) != spectrum.shape:
        raise ParameterError(f"response of shape {np.shape(response)} is not on "
                             f"the {spectrum.size}-bin grid")
    return SampledWaveform._from_spectrum(wave.sample_rate_hz, spectrum * response, wave.n,
                                          wave.domain_tag)


# ---------------------------------------------------------------------------
# resampling and the LO shift
# ---------------------------------------------------------------------------

def resample(wave: SampledWaveform, target_rate_hz: float,
             *responses: np.ndarray) -> SampledWaveform:
    """FFT-method rate conversion of a real waveform; exact for band-limited
    circular records.

    The one-sided spectrum is truncated or zero-padded and rescaled, with
    the bin at half the smaller length doubled on the way down and halved
    on the way up when that length is even, as ``scipy.signal.resample``
    does for real input. The record duration must map to an integer number
    of output samples (rational ratio precondition).

    ``responses`` on the kept bins, the first ``min(n_in, n_out) // 2 + 1``
    of ``wave.freqs()``, filter them first, one after the other: each is
    ``apply_filter`` on those bins alone, so a cascade of filters is byte-equal
    to the same ``apply_filter`` calls on the whole record before the resample.
    """
    require_real(wave, "resample input")
    n_out = _resampled_length(wave.n, wave.sample_rate_hz, target_rate_hz)
    if target_rate_hz == wave.sample_rate_hz:
        for response in responses:
            wave = apply_filter(wave, response)
        return wave
    n_in = wave.n
    m = min(n_in, n_out)
    y = np.zeros(n_out // 2 + 1, dtype=np.complex128)
    y[: m // 2 + 1] = wave.spectrum[: m // 2 + 1]
    for response in responses:
        if np.shape(response) != (m // 2 + 1,):
            raise ParameterError(f"response of shape {np.shape(response)} is not on "
                                 f"the {m // 2 + 1} kept bins")
        y[: m // 2 + 1] *= response
        if m == n_in and m % 2 == 0:  # the input's Nyquist bin, real in a real record
            y[m // 2] = y[m // 2].real
    if m % 2 == 0 and n_out != n_in:
        # the unpaired bin: its mirror joins it going down, splits off going up
        y[m // 2] *= 2.0 if n_out < n_in else 0.5
    y *= n_out / n_in
    return SampledWaveform._from_spectrum(target_rate_hz, y, n_out, wave.domain_tag)


def lo_shift(spectrum: np.ndarray, n: int, sample_rate_hz: float,
             lo_frequency_hz: float, phasor: complex = 1.0) -> np.ndarray:
    """``phasor X[f - f_LO] + conj(phasor) X[f + f_LO]`` as a new array, from
    the one-sided spectrum X of a real n-sample record, the LO snapped to a
    grid bin: the spectrum of 2 x(t) cos(2 pi f_LO t + phi) for the phasor
    exp(j phi) (the default 1 is phi = 0). Bins below DC fold back, and bins
    past Nyquist wrap in, as conjugates. The second image is added into the
    first in blocks, so no second record is held; each product keeps the
    phasor first, as numpy rounds a complex product by operand order."""
    k = _lo_bin(lo_frequency_hz, n, sample_rate_hz)
    bins = spectrum.size
    out = np.empty(bins, dtype=np.complex128)  # X[f - f_LO]
    np.conjugate(spectrum[k:0:-1], out=out[:k])
    out[k:] = spectrum[: bins - k]
    wrap = np.conj(spectrum[n - bins - k + 1: n - bins + 1][::-1])
    np.multiply(phasor, out, out=out)
    conj = np.conj(phasor)
    for start in range(k, bins, _RESPONSE_BLOCK):
        stop = min(start + _RESPONSE_BLOCK, bins)
        out[start - k: stop - k] += np.multiply(conj, spectrum[start:stop])
    out[bins - k:] += conj * wrap
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nmse_db(reference: SampledWaveform | np.ndarray,
            test: SampledWaveform | np.ndarray) -> float:
    """10*log10(sum|ref-test|^2 / sum|ref|^2), floored at -200 dB."""
    ref = reference.samples if isinstance(reference, SampledWaveform) else np.asarray(reference)
    tst = test.samples if isinstance(test, SampledWaveform) else np.asarray(test)
    if isinstance(reference, SampledWaveform) and isinstance(test, SampledWaveform):
        if reference.sample_rate_hz != test.sample_rate_hz:
            raise ParameterError("sample rates differ")
    if ref.shape != tst.shape:
        raise ParameterError("length mismatch")
    denom = np.sum(np.abs(ref) ** 2)
    if denom == 0:
        raise ParameterError("zero-energy reference")
    err = np.sum(np.abs(ref - tst) ** 2)
    if err == 0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(err / denom), NMSE_FLOOR_DB)


def _energy(wave: SampledWaveform, spectrum: np.ndarray) -> np.ndarray:
    """|X|^2 per bin of a spectrum on ``wave``'s grid, counted as often as the
    bin occurs in the full n-point spectrum: on the one-sided grid of a real
    waveform, DC and (for even n) the Nyquist bin once and every other bin
    twice."""
    energy = np.abs(spectrum) ** 2
    if wave.domain_tag == "electrical":
        energy[1: (wave.n + 1) // 2] *= 2.0
    return energy


def spectral_nmse_db(reference: SampledWaveform, test: SampledWaveform,
                     exclude_bands: Iterable[tuple[float, float]] = ()) -> float:
    """NMSE evaluated on the spectrum grid with |f| inside exclude_bands
    masked out."""
    if (reference.sample_rate_hz != test.sample_rate_hz or reference.n != test.n
            or reference.domain_tag != test.domain_tag):
        raise ParameterError("waveforms must share grid")
    freqs = np.abs(reference.freqs())
    keep = np.ones(freqs.size, dtype=bool)
    for f_lo, f_hi in exclude_bands:
        keep &= ~((freqs >= f_lo) & (freqs <= f_hi))
    denom = np.sum(_energy(reference, reference.spectrum)[keep])
    if denom == 0:
        raise ParameterError("zero reference energy outside excluded bands")
    err = np.sum(_energy(reference, reference.spectrum - test.spectrum)[keep])
    if err == 0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(err / denom), NMSE_FLOOR_DB)


def band_energy_fraction(wave: SampledWaveform, f_lo_hz: float, f_hi_hz: float) -> float:
    """Fraction of total energy with |f| in [f_lo, f_hi]."""
    energy = _energy(wave, wave.spectrum)
    freqs = np.abs(wave.freqs())
    total = np.sum(energy)
    if total == 0:
        return 0.0
    sel = (freqs >= f_lo_hz) & (freqs <= f_hi_hz)
    return float(np.sum(energy[sel]) / total)


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(np.asarray(x)) ** 2)))


# ---------------------------------------------------------------------------
# normal equations
# ---------------------------------------------------------------------------

def _shift_gram(bases: list[np.ndarray], widths: list[int], count: int,
                hop: int) -> np.ndarray:
    """Gram matrix ``V.T @ V`` of the lag windows of several sequences,
    without a BLAS call.

    Sequence f (a *family*) gives the ``widths[f]`` columns
    ``V_f[k, j] = bases[f][hop * k + j]``, k < ``count``, and V holds the
    families' columns in order. Column j + hop of a family is its column j
    one row later, so the covariance method's shift recursion (Makhoul,
    "Linear prediction: a tutorial review", Proc. IEEE 63(4), 1975; for
    Volterra terms, Lee & Mathews, IEEE Trans. SP 41(3), 1993) gives

        G[(f, j + hop), (g, i + hop)] = G[(f, j), (g, i)]
            + b_f[hop * count + j] b_g[hop * count + i] - b_f[j] b_g[i],

    and only the first ``hop`` rows and columns of each pair of families are
    ``einsum`` sums over the windows. A base must hold
    ``hop * count + width - hop`` samples. The result is exactly symmetric.
    """
    windows = [np.lib.stride_tricks.sliding_window_view(b, w)[: hop * count: hop]
               for b, w in zip(bases, widths)]
    end = hop * count
    heads = [b[: max(w - hop, 0)] for b, w in zip(bases, widths)]
    tails = [b[end: end + max(w - hop, 0)] for b, w in zip(bases, widths)]
    edges = np.cumsum([0, *widths])
    gram = np.empty((edges[-1], edges[-1]))
    for f, wf in enumerate(windows):
        for g in range(f, len(windows)):
            wg, lf, lg = windows[g], widths[f], widths[g]
            block = gram[edges[f]: edges[f + 1], edges[g]: edges[g + 1]]
            block[:hop] = np.einsum("ki,kj->ij", wf[:, :hop], wg)
            if g == f:
                # mirrored, so that the recursion keeps G exactly symmetric
                for i in range(1, min(hop, lf)):
                    block[i, :i] = block[:i, i]
                block[hop:, :hop] = block[:hop, hop:].T
            else:
                block[hop:, :hop] = np.einsum("ki,kj->ij", wf[:, hop:], wg[:, :hop])
            step = (np.multiply.outer(tails[f], tails[g])
                    - np.multiply.outer(heads[f], heads[g]))
            # along the shorter side of the block; the entries do not depend on it
            if lf <= lg:
                for i in range(lf - hop):
                    block[i + hop, hop:] = block[i, :-hop] + step[i]
            else:
                for i in range(lg - hop):
                    block[hop:, i + hop] = block[:-hop, i] + step[:, i]
            if g > f:
                gram[edges[g]: edges[g + 1], edges[f]: edges[f + 1]] = block.T
    return gram


#: Largest block that ``_solve_spd`` hands to ``np.linalg.solve``. OpenBLAS
#: factors small systems on one thread; with numpy 2.4.6 a solve gives the
#: same bytes on one and two threads up to 96 unknowns, but not at 101.
_SOLVE_BLOCK = 96


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive definite system ``a x = b`` by block
    elimination whose LAPACK calls stay at or below ``_SOLVE_BLOCK``.

    With a = [[A11, A12], [A21, A22]] and A11 the leading ``_SOLVE_BLOCK``
    rows, x2 solves the Schur complement A22 - A21 A11^-1 A12 (positive
    definite again, so this recurses) and x1 = A11^-1 (b1 - A12 x2). The
    Schur products are elementwise sums, not BLAS calls.
    """
    p = _SOLVE_BLOCK
    if a.shape[0] <= p:
        return np.linalg.solve(a, b)
    inv_a11 = np.linalg.solve(a[:p, :p], np.column_stack([a[:p, p:], b[:p]]))
    x12, x1 = inv_a11[:, :-1], inv_a11[:, -1]
    a21 = a[p:, :p]
    schur = a[p:, p:] - (a21[:, :, None] * x12[None]).sum(axis=1)
    x2 = _solve_spd(schur, b[p:] - (a21 * x1).sum(axis=1))
    return np.concatenate([x1 - (x12 * x2).sum(axis=1), x2])
