"""Waveform container, filter responses and their application, resampling,
the LO shift, and signal metrics.

Conventions used throughout the simulator:

- Records are treated as circular: a linear stage is a response H(f) on the
  record's DFT grid, so zero-phase designs apply with exactly zero
  delay and length is always preserved.
- A :class:`SampledWaveform` keeps the form it was built from (samples or
  spectrum) and computes the other once, on first use. Linear stages
  (filters, pulse shaping, resampling by spectral truncation or zero
  padding, DAC droop, mixer gain, uncompressed amplifiers, dispersion,
  the optical filter, DC removal as a zeroed DC bin) multiply or reshape
  the spectrum, so a chain of them costs no transform. A transform runs
  only where a pointwise stage meets a linear one: quantizers, tanh
  amplifier, drive peak and MZM cosine, thermal noise, square-law
  detection, sync correlation, and the equalizer. The LO sits on the
  record grid, so the mixer's up-conversion and the band split's
  down-conversion are one whole-bin spectrum shift, :func:`lo_shift`.
  White ASE noise is drawn in the form the optical field holds (as its
  DFT after the fiber), so it costs no transform either.
- Real signals stay real. Electrical and photocurrent waveforms hold
  float64 samples and the one-sided ``n // 2 + 1``-bin spectrum
  (``rfft``/``irfft``); only the optical field between the MZM and the
  photodiode holds complex samples and the full n-bin spectrum. No real
  waveform holds the redundant negative-frequency half of its spectrum.
  Even the field is transformed by real transforms: the fiber reads the
  real-valued modulator output by its ``rfft``, and the photodiode forms
  |E|^2 from the field's spectrum by two ``irfft``s.
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

_DOMAIN_TAGS = ("electrical", "optical_field", "photocurrent")
_REAL_TAGS = ("electrical", "photocurrent")


class SampledWaveform:
    """Uniformly sampled signal; the carrier between all pipeline stages.

    Parameters
    ----------
    sample_rate_hz : float
        Sampling rate, > 0.
    samples : array-like
        Sample values. Electrical and photocurrent waveforms are real and
        stored as float64; a complex input must have an imaginary RMS below
        1e-12 of its total RMS, and its imaginary part is dropped. An optical
        field is stored as complex128.
    domain_tag : str
        One of ``electrical``, ``optical_field``, ``photocurrent``.

    The spectrum has the form that fits the domain: the one-sided
    ``n // 2 + 1``-bin ``rfft`` of a real waveform, the full n-bin ``fft``
    of an optical field (unnormalized, ``numpy.fft`` order), with
    :meth:`freqs` giving its bin frequencies. :meth:`from_spectrum` builds a
    waveform from its spectrum instead; the other form is computed on first
    access. Stages never modify a waveform; they build a new one.
    """

    __slots__ = ("sample_rate_hz", "domain_tag", "n", "_samples", "_spectrum")

    def __init__(self, sample_rate_hz: float, samples, domain_tag: str = "electrical"):
        arr = _checked(sample_rate_hz, samples, domain_tag, "samples")
        _require_finite(arr, "samples")
        if domain_tag in _REAL_TAGS:
            if np.iscomplexobj(arr):
                total = np.sqrt(np.mean(np.abs(arr) ** 2))
                imag = np.sqrt(np.mean(arr.imag**2))
                if total > 0 and imag > 1e-12 * total:
                    raise ParameterError(
                        f"{domain_tag} waveform has non-negligible imaginary part"
                    )
                arr = arr.real.copy()
            arr = arr.astype(np.float64, copy=False)
        else:
            arr = arr.astype(np.complex128, copy=False)
        self.sample_rate_hz = sample_rate_hz
        self.domain_tag = domain_tag
        self.n = arr.size
        self._samples = arr
        self._spectrum = None

    @classmethod
    def from_spectrum(cls, sample_rate_hz: float, spectrum, n: int,
                      domain_tag: str = "electrical") -> "SampledWaveform":
        """The n-sample waveform whose spectrum is ``spectrum``: n bins for an
        optical field, and ``n // 2 + 1`` bins for an electrical or
        photocurrent waveform, whose samples are the ``irfft``.

        ``irfft`` ignores the imaginary parts of the DC bin and, for even n,
        the Nyquist bin, so the waveform holds the spectrum with those parts
        zeroed: the ``rfft`` of its samples. Where the record grid later
        changes (resampling, mixing), those bins become interior bins, and
        an imaginary part left there would turn into signal."""
        _require_finite(_checked(sample_rate_hz, spectrum, domain_tag, "spectrum"),
                        "spectrum")
        return cls._from_spectrum(sample_rate_hz, spectrum, n, domain_tag, owned=False)

    @classmethod
    def _from_spectrum(cls, sample_rate_hz: float, spectrum, n: int, domain_tag: str,
                       owned: bool) -> "SampledWaveform":
        """:meth:`from_spectrum` of a spectrum a stage computed, without the
        scan for non-finite values (see ``_require_finite``). With ``owned``
        the new waveform takes ``spectrum`` over, so the DC and Nyquist
        imaginary parts are zeroed in it rather than in a copy."""
        spec = _checked(sample_rate_hz, spectrum, domain_tag, "spectrum")
        spec = spec.astype(np.complex128, copy=False)
        real = domain_tag in _REAL_TAGS
        bins = n // 2 + 1 if real else n
        if spec.size != bins:
            raise ParameterError(f"a {n}-sample {domain_tag} waveform has {bins} "
                                 f"spectrum bins, not {spec.size}")
        if real:
            ends = [0, -1] if n % 2 == 0 else [0]
            if np.any(spec[ends].imag != 0):
                if not owned:
                    spec = spec.copy()  # the caller's array stays as it was
                spec[ends] = spec[ends].real
        wave = cls.__new__(cls)
        wave.sample_rate_hz = sample_rate_hz
        wave.domain_tag = domain_tag
        wave.n = n
        wave._samples = None
        wave._spectrum = spec
        return wave

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            if self.domain_tag in _REAL_TAGS:
                self._samples = np.fft.irfft(self._spectrum, self.n)
            else:
                self._samples = np.fft.ifft(self._spectrum)
        return self._samples

    @property
    def spectrum(self) -> np.ndarray:
        """``rfft`` of the samples of a real waveform, ``fft`` of those of an
        optical field."""
        if self._spectrum is None:
            if self.domain_tag in _REAL_TAGS:
                self._spectrum = np.fft.rfft(self._samples)
            else:
                self._spectrum = np.fft.fft(self._samples)
        return self._spectrum

    @property
    def holds_spectrum(self) -> bool:
        """True when the spectrum is held (built from it or computed once
        already), so reading it costs no transform."""
        return self._spectrum is not None

    @property
    def holds_samples(self) -> bool:
        """True when the samples are held, so reading them costs no
        transform."""
        return self._samples is not None

    @property
    def real(self) -> np.ndarray:
        return self.samples.real

    def freqs(self) -> np.ndarray:
        """Frequency of each spectrum bin (Hz): ``rfftfreq`` for a real
        waveform, ``fftfreq`` for an optical field."""
        grid = np.fft.rfftfreq if self.domain_tag in _REAL_TAGS else np.fft.fftfreq
        return grid(self.n, d=1.0 / self.sample_rate_hz)

    def with_samples(self, samples: np.ndarray) -> "SampledWaveform":
        return SampledWaveform(self.sample_rate_hz, samples, self.domain_tag)

    def with_spectrum(self, spectrum: np.ndarray) -> "SampledWaveform":
        return SampledWaveform.from_spectrum(self.sample_rate_hz, spectrum, self.n,
                                             self.domain_tag)

    def _with_own_spectrum(self, spectrum: np.ndarray) -> "SampledWaveform":
        """:meth:`with_spectrum` of an array a stage has just computed, which
        the new waveform takes over unscanned (see ``_require_finite``)."""
        return SampledWaveform._from_spectrum(self.sample_rate_hz, spectrum, self.n,
                                              self.domain_tag, owned=True)

    def scaled(self, factor: float) -> "SampledWaveform":
        """The waveform times a constant, formed from the spectrum when one
        is held (so a following linear stage needs no transform)."""
        if self._spectrum is not None:
            return self._with_own_spectrum(factor * self._spectrum)
        return self.with_samples(factor * self._samples)

    def plus(self, other: "SampledWaveform") -> "SampledWaveform":
        """``self + other``, added as samples when both hold them and as
        spectra otherwise."""
        if self._samples is not None and other._samples is not None:
            return self.with_samples(self._samples + other._samples)
        return self._with_own_spectrum(self.spectrum + other.spectrum)


def _checked(sample_rate_hz: float, values, domain_tag: str, what: str) -> np.ndarray:
    """``values`` as an array, after the checks that need no pass over it."""
    if sample_rate_hz <= 0:
        raise ParameterError("sample_rate_hz must be positive")
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{what} must be a non-empty 1-D sequence")
    if domain_tag not in _DOMAIN_TAGS:
        raise ParameterError(f"unknown domain_tag {domain_tag!r}")
    return arr


def _require_finite(values: np.ndarray, what: str) -> None:
    """Raise unless every value is finite.

    This is a pass over the record, so it runs only where outside data
    enters: the public constructors (``SampledWaveform``,
    :meth:`~SampledWaveform.from_spectrum`, ``with_samples``,
    ``with_spectrum``), the raw arrays a public stage takes, and the output
    of the pointwise stages that can overflow (amplifier gain, modulator,
    optical gain and ASE, square-law detection). A linear stage applies a
    finite closed-form response to a finite record, so the waveforms the
    stages build in between go unscanned.
    """
    if not np.all(np.isfinite(values)):
        raise ParameterError(f"{what} must be finite")


def require_real(wave: SampledWaveform, what: str) -> None:
    """Raise unless ``wave`` is an electrical or photocurrent waveform."""
    if wave.domain_tag not in _REAL_TAGS:
        raise ParameterError(f"{what} must be real, not an {wave.domain_tag}")


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
    f = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    phase = np.clip((f - cutoff_hz) / width + 0.5, 0.0, 1.0)
    return 0.5 * (1.0 + np.cos(np.pi * phase))


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
    if cutoff_hz <= 0:
        raise ParameterError("Bessel cutoff must be positive")
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


def apply_filter(wave: SampledWaveform, response: np.ndarray,
                 *cascade: np.ndarray) -> SampledWaveform:
    """Filter a waveform: its spectrum times ``response``, then times each
    response of ``cascade`` in turn, all given on the waveform's own
    frequency grid (``wave.freqs()``), so length is preserved. The cascade's
    products are taken in place, which rounds as new products would, so it
    costs no further record."""
    spectrum = wave.spectrum
    for resp in (response, *cascade):
        if np.shape(resp) != spectrum.shape:
            raise ParameterError(f"response of shape {np.shape(resp)} is not on "
                                 f"the {spectrum.size}-bin grid")
    out = spectrum * response
    for resp in cascade:
        out *= resp
    return SampledWaveform._from_spectrum(wave.sample_rate_hz, out, wave.n,
                                          wave.domain_tag, owned=True)


# ---------------------------------------------------------------------------
# resampling and the LO shift
# ---------------------------------------------------------------------------

def resample(wave: SampledWaveform, target_rate_hz: float) -> SampledWaveform:
    """FFT-method rate conversion of a real waveform; exact for band-limited
    circular records.

    The one-sided spectrum is truncated or zero-padded and rescaled, with
    the bin at half the smaller length doubled on the way down and halved
    on the way up when that length is even, as ``scipy.signal.resample``
    does for real input. The record duration must map to an integer number
    of output samples (rational ratio precondition).
    """
    require_real(wave, "resample input")
    if target_rate_hz <= 0:
        raise ParameterError("target rate must be positive")
    if target_rate_hz == wave.sample_rate_hz:
        return wave
    n_out_f = wave.n * target_rate_hz / wave.sample_rate_hz
    n_out = int(round(n_out_f))
    if abs(n_out_f - n_out) > 1e-6 or n_out < 1:
        raise ParameterError(
            f"rate ratio {target_rate_hz}/{wave.sample_rate_hz} does not yield an "
            f"integer record length from {wave.n} samples"
        )
    n_in = wave.n
    m = min(n_in, n_out)
    y = np.zeros(n_out // 2 + 1, dtype=np.complex128)
    y[: m // 2 + 1] = wave.spectrum[: m // 2 + 1]
    if m % 2 == 0 and n_out != n_in:
        # the unpaired bin: its mirror joins it going down, splits off going up
        y[m // 2] *= 2.0 if n_out < n_in else 0.5
    y *= n_out / n_in
    return SampledWaveform._from_spectrum(target_rate_hz, y, n_out, wave.domain_tag,
                                          owned=True)


def lo_shift(spectrum: np.ndarray, n: int, sample_rate_hz: float,
             lo_frequency_hz: float, phasor: complex | None = None) -> np.ndarray:
    """``phasor X[f - f_LO] + conj(phasor) X[f + f_LO]`` as a new array, from
    the one-sided spectrum X of a real n-sample record, the LO snapped to a
    grid bin: the spectrum of 2 x(t) cos(2 pi f_LO t + phi) for the phasor
    exp(j phi), and of 2 x(t) cos(2 pi f_LO t) without one. Bins below DC
    fold back, and bins past Nyquist wrap in, as conjugates. The second
    image is added into the first in blocks, so no second record is held;
    each product keeps the phasor first, as numpy rounds a complex product
    by operand order."""
    k = int(round(lo_frequency_hz * n / sample_rate_hz))
    if not 0 <= k <= n // 2:
        raise ParameterError(f"LO {lo_frequency_hz:.4g} Hz lies outside "
                             f"[0, Nyquist {sample_rate_hz / 2:.4g} Hz]")
    bins = spectrum.size
    out = np.empty(bins, dtype=np.complex128)  # X[f - f_LO]
    np.conjugate(spectrum[k:0:-1], out=out[:k])
    out[k:] = spectrum[: bins - k]
    wrap = np.conj(spectrum[n - bins - k + 1: n - bins + 1][::-1])
    if phasor is None:
        out[: bins - k] += spectrum[k:]  # X[f + f_LO]
        out[bins - k:] += wrap
        return out
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
    if wave.domain_tag in _REAL_TAGS:
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


def tone_amplitude(wave: SampledWaveform, freq_hz: float) -> float:
    """Amplitude of the tone nearest freq_hz via single-bin DFT (real
    signals): 2|X[k]|/n, or |X[k]|/n at DC and at the Nyquist bin of an even
    n, the bins a real tone does not share with its mirror image. Above
    Nyquist, a real waveform's one-sided spectrum gives |X[k]| = |X[n - k]|."""
    n = wave.n
    k = int(round(freq_hz * n / wave.sample_rate_hz)) % n
    spectrum = wave.spectrum
    value = spectrum[k] if k < spectrum.size else spectrum[n - k]
    return (1.0 if k == 0 or 2 * k == n else 2.0) * np.abs(value) / n


def band_energy_fraction(wave: SampledWaveform, f_lo_hz: float, f_hi_hz: float) -> float:
    """Fraction of total energy with |f| in [f_lo, f_hi]."""
    energy = _energy(wave, wave.spectrum)
    freqs = np.abs(wave.freqs())
    total = np.sum(energy)
    if total == 0:
        return 0.0
    sel = (freqs >= f_lo_hz) & (freqs <= f_hi_hz)
    return float(np.sum(energy[sel]) / total)


def occupied_bandwidth(wave: SampledWaveform, fraction: float = 0.999) -> float:
    """Smallest f such that |f'| <= f holds `fraction` of the energy."""
    freqs = np.abs(wave.freqs())
    order = np.argsort(freqs)
    cum = np.cumsum(_energy(wave, wave.spectrum)[order])
    total = cum[-1]
    if total == 0:
        return 0.0
    idx = int(np.searchsorted(cum, fraction * total))
    return float(freqs[order][min(idx, freqs.size - 1)])


def bin_centered_frequency(freq_hz: float, n: int, sample_rate_hz: float) -> float:
    """Snap a frequency to the nearest n-point FFT bin at the given rate."""
    return round(freq_hz * n / sample_rate_hz) * sample_rate_hz / n


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(np.asarray(x)) ** 2)))
