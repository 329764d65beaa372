"""Probabilistic amplitude shaping: PAM alphabets, Maxwell-Boltzmann
distributions, constant-composition distribution matching, and entropy
accounting.

The distribution matcher maps uniform data bits to fixed-composition
amplitude sequences by exact multiset ranking (Schulte & Boecherer, "Constant
Composition Distribution Matching", IEEE T-IT 62(1), 2016): the k-bit input
indexes the lexicographic enumeration of all permutations of the
composition. The encoder and decoder are the matcher's definition, one
interval split per symbol in arbitrary-precision integers (block lengths
around 1e5 overflow any fixed-width type), so their cost grows
quadratically with the block length (timings in their docstrings).

The CCDM is not on the run path. A run scores the symbols' labels and
never decodes data bits, so the harness draws each shaped frame as a
seeded uniform permutation of the composition and hands it to
``pas_assemble``; the encoder and decoder stay as the library's matcher,
which the acceptance gate tests. The trade-off: the permutation draw is
uniform over all the composition's permutations, where the CCDM reaches
only the lexicographically first 2**k of them, and the bitrates still bill
the design entropy H rather than the CCDM's rate k/n + 1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import isqrt, prod
from typing import Sequence

import numpy as np

from .errors import DecodeError, ParameterError


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _primes_upto(n: int) -> np.ndarray:
    """Primes <= n, ascending (sieve of Eratosthenes)."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def _bits_of(value: int, width: int) -> np.ndarray:
    """The ``width`` low bits of ``value``, most significant first."""
    packed = np.frombuffer(value.to_bytes((width + 7) // 8, "big"), dtype=np.uint8)
    return np.unpackbits(packed)[packed.size * 8 - width:].astype(np.int8)


def _int_of(bits: np.ndarray) -> int:
    """The integer whose binary digits, most significant first, are ``bits``."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)


@dataclass(frozen=True)
class PamAlphabet:
    """Ordered PAM levels with an injective bit labeling.

    ``levels`` are strictly increasing and, for even sizes, symmetric about
    zero. ``labels`` is an (M, m) bit matrix, row i labeling levels[i].
    """

    levels: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        labels = np.asarray(self.labels, dtype=np.int8)
        if levels.ndim != 1 or levels.size < 2:
            raise ParameterError("alphabet needs at least two levels")
        if not np.all(np.diff(levels) > 0):
            raise ParameterError("levels must be strictly increasing")
        if labels.shape[0] != levels.size:
            raise ParameterError("one label row per level required")
        if 2 ** labels.shape[1] < levels.size:
            raise ParameterError("label width too small for alphabet size")
        rows = {tuple(row) for row in labels.tolist()}
        if len(rows) != levels.size:
            raise ParameterError("labels must be injective")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return int(self.levels.size)

    @property
    def label_bits(self) -> int:
        return int(self.labels.shape[1])

    @property
    def is_symmetric(self) -> bool:
        return self.size % 2 == 0 and np.allclose(self.levels, -self.levels[::-1])

    @property
    def index_dtype(self) -> np.dtype:
        """The smallest integer type that holds every level index: uint8 up
        to 256 levels."""
        return np.min_scalar_type(self.size - 1)

    def level_index(self, magnitude_class, negative) -> np.ndarray:
        """Index into ``levels`` of the level in magnitude class
        ``magnitude_class`` (integers in [0, M/2)) with the given sign,
        elementwise, as :attr:`index_dtype`."""
        half = self.size // 2
        classes = np.asarray(magnitude_class).astype(self.index_dtype, copy=False)
        return np.where(negative, half - 1 - classes, half + classes)

    @classmethod
    def uniform(cls, size: int, normalize: bool = True) -> "PamAlphabet":
        """Equally spaced PAM-``size`` with reflected Gray labels."""
        raw = np.arange(-(size - 1), size, 2, dtype=float)
        if normalize:
            raw = raw / np.sqrt(np.mean(raw**2))
        m = max(1, int(np.ceil(np.log2(size))))
        labels = np.array([_bits_of(_gray(i), m) for i in range(size)])
        return cls(raw, labels)

    @classmethod
    def pam12(cls) -> "PamAlphabet":
        """PAM12 for shaping: sign bit plus 3-bit Gray over the 6 magnitudes.

        Four label bits total; the sign bit (bit 0, value 1 for negative
        levels) carries uniform data in the PAS construction.
        """
        raw = np.arange(-11, 12, 2, dtype=float)
        raw = raw / np.sqrt(np.mean(raw**2))
        labels = np.zeros((12, 4), dtype=np.int8)
        for i in range(12):
            mag_idx = 5 - i if i < 6 else i - 6
            labels[i, 0] = 1 if i < 6 else 0
            labels[i, 1:] = _bits_of(_gray(mag_idx), 3)
        return cls(raw, labels)


@dataclass(frozen=True)
class SymbolDistribution:
    """Probabilities aligned with a PamAlphabet's levels."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or not np.all(p >= 0):  # NaN fails p >= 0
            raise ParameterError("probabilities must be a 1-D sequence of "
                                 "non-negative numbers")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ParameterError("probabilities must sum to 1")
        object.__setattr__(self, "probabilities", p)

    @classmethod
    def uniform(cls, size: int) -> "SymbolDistribution":
        return cls(np.full(size, 1.0 / size))


@dataclass(frozen=True)
class Composition:
    """Occurrence count per amplitude class; block length n = sum(counts)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(_integers_below(self.counts, np.inf, ParameterError,
                                       "counts").tolist())
        if sum(counts) < 1:
            raise ParameterError("counts must sum to n >= 1")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    def permutation_count(self) -> int:
        """Exact multinomial(n; counts) = n! / prod(c!), built once per
        composition and kept."""
        return self._permutations

    @cached_property
    def _permutations(self) -> int:
        """The multinomial, from its prime factorization: by Legendre's
        formula the prime p appears sum_i (floor(n / p**i) - sum_c
        floor(c / p**i)) times. The prime powers are multiplied pairwise, so
        every large product has operands of similar size (about 10x faster
        than a chain of binomials at n = 65 529).
        """
        n = self.n
        primes = _primes_upto(n)
        exponents = np.zeros(primes.size, dtype=np.int64)
        powers = primes  # p**i, kept only while <= n: a prefix of the primes
        while powers.size:
            exponents[:powers.size] += n // powers - sum(c // powers for c in self.counts)
            powers = powers * primes[:powers.size]
            powers = powers[powers <= n]
        factors = [int(p) ** int(e) for p, e in zip(primes, exponents) if e]
        while len(factors) > 1:
            factors = [prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
        return factors[0] if factors else 1


@dataclass(frozen=True)
class SymbolFrame:
    """Transmitted PAM symbols: level indices, alphabet, and design prior.

    ``indices`` are kept as the alphabet's :attr:`~PamAlphabet.index_dtype`,
    one byte per symbol up to 256 levels; input of another integer type is
    converted once, here.
    """

    indices: np.ndarray
    alphabet: PamAlphabet
    distribution: SymbolDistribution

    def __post_init__(self):
        idx = _integers_below(self.indices, self.alphabet.size, ParameterError, "indices")
        if idx.size == 0:
            raise ParameterError("indices must be a non-empty 1-D sequence")
        if self.distribution.probabilities.size != self.alphabet.size:
            raise ParameterError("distribution does not match alphabet size")
        object.__setattr__(self, "indices", idx.astype(self.alphabet.index_dtype, copy=False))

    @property
    def n(self) -> int:
        return int(self.indices.size)

    def levels(self) -> np.ndarray:
        return self.alphabet.levels[self.indices]

    def bits(self) -> np.ndarray:
        """(n, m) transmitted label bits."""
        return self.alphabet.labels[self.indices]


# ---------------------------------------------------------------------------
# Maxwell-Boltzmann family
# ---------------------------------------------------------------------------

def maxwell_boltzmann(nu: float, alphabet: PamAlphabet) -> SymbolDistribution:
    """P(a) proportional to exp(-nu * a^2); symmetric and normalized."""
    if not (np.isfinite(nu) and nu >= 0):
        raise ParameterError("nu must be non-negative and finite")
    expo = -nu * alphabet.levels**2
    expo -= expo.max()  # stabilize: largest weight is exactly 1
    w = np.exp(expo)
    return SymbolDistribution(w / w.sum())


def entropy_bits(dist: SymbolDistribution) -> float:
    p = dist.probabilities
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


#: Entropy tolerance (bits) of :func:`check_entropy_target` and
#: :func:`nu_for_entropy`: the bisection's stopping width, and how close to
#: log2 M or to the Maxwell-Boltzmann floor a target counts as that limit.
ENTROPY_TOL_BITS = 1e-6


def check_entropy_target(target_bits: float, alphabet: PamAlphabet,
                         key: str | None = None) -> None:
    """Raise a ``ParameterError`` (naming ``key``) unless ``target_bits`` is
    a Maxwell-Boltzmann entropy of ``alphabet``.

    The attainable range is (H_min, log2 M], where H_min is the entropy of
    the limiting distribution on the minimum-|a| levels (1 bit for a
    symmetric alphabet). Targets within 1e-3 bit above log2 M are accepted
    as the uniform limit (conventional roundings such as 3.585 for PAM12),
    and targets within ``ENTROPY_TOL_BITS`` of H_min as the floor.
    """
    h_max = np.log2(alphabet.size)
    if not 0 < target_bits <= h_max + 1e-3:
        raise ParameterError(f"target entropy must lie in (0, {h_max:.6f}]", key)
    min_sq = np.min(alphabet.levels**2)
    h_min = np.log2(np.sum(np.isclose(alphabet.levels**2, min_sq)))
    if target_bits < h_min - ENTROPY_TOL_BITS:
        raise ParameterError(
            f"entropy {target_bits} unattainable; Maxwell-Boltzmann floor is "
            f"{h_min:.6f} bits for this alphabet", key
        )


def nu_for_entropy(target_bits: float, alphabet: PamAlphabet) -> float:
    """Invert H(nu) by bisection, to within ``ENTROPY_TOL_BITS``; H is
    strictly decreasing in nu.

    The target must pass :func:`check_entropy_target`; targets within
    ``ENTROPY_TOL_BITS`` of log2 M clamp to the uniform limit, nu = 0.
    """
    check_entropy_target(target_bits, alphabet)
    h_max = np.log2(alphabet.size)
    if target_bits >= h_max - ENTROPY_TOL_BITS:
        return 0.0

    def h(nu: float) -> float:
        return entropy_bits(maxwell_boltzmann(nu, alphabet))

    lo, hi = 0.0, 1.0 / np.mean(alphabet.levels**2)
    while h(hi) > target_bits + ENTROPY_TOL_BITS:
        hi *= 2.0
        if hi > 1e9:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        if abs(h_mid - target_bits) <= ENTROPY_TOL_BITS:
            return mid
        if h_mid > target_bits:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def composition_from_distribution(class_probabilities: Sequence[float],
                                  n: int) -> Composition:
    """Largest-remainder rounding of n*P onto integer counts summing to n."""
    p = np.asarray(class_probabilities, dtype=float)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError("block length must be an integer >= 1")
    if p.ndim != 1 or not (abs(p.sum() - 1.0) <= 1e-9 and np.all(p >= 0)):  # NaN fails both
        raise ParameterError("class probabilities must be a 1-D distribution")
    scaled = p * n
    counts = np.floor(scaled).astype(int)
    short = n - counts.sum()
    # distribute the shortfall to the largest remainders (ties: lowest index)
    order = np.lexsort((np.arange(p.size), -(scaled - counts)))
    counts[order[:short]] += 1
    return Composition(tuple(int(c) for c in counts))


def magnitude_distribution(dist: SymbolDistribution,
                           alphabet: PamAlphabet) -> np.ndarray:
    """Marginal over |a| classes (ascending), folding symmetric levels."""
    if not alphabet.is_symmetric:
        raise ParameterError("symmetric alphabet required")
    half = alphabet.size // 2
    p = dist.probabilities
    return p[half:] + p[half - 1::-1]


# ---------------------------------------------------------------------------
# constant composition distribution matcher
# ---------------------------------------------------------------------------

def ccdm_input_bits(composition: Composition) -> int:
    """Data bits consumed per block: floor(log2 multinomial(n; counts))."""
    return composition.permutation_count().bit_length() - 1


def _integers_below(values: Sequence[int], upper: int, error: type[Exception],
                    what: str) -> np.ndarray:
    """``values`` as an integer array, or ``error`` unless they form a 1-D
    sequence of integer-valued numbers in [0, upper).

    Bool and integer input that int64 holds exactly keeps its type, so a
    one-byte frame stays one byte; floats and uint64 become int64."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.ndim != 1 or arr.dtype.kind not in "biuf"
            or arr.size and not 0 <= arr.min() <= arr.max() < upper
            or arr.dtype.kind == "f" and not np.all(arr == np.floor(arr))):
        raise error(f"{what} must be a 1-D sequence of integers in [0, {upper})")
    return arr if np.can_cast(arr.dtype, np.int64) else arr.astype(np.int64)


def ccdm_encode(data_bits: Sequence[int], composition: Composition) -> np.ndarray:
    """Map k data bits (a 1-D 0/1 sequence, else ``ParameterError``) to the
    index-th lexicographic permutation of the composition's multiset, index
    being the bits read as a big-endian integer.

    The definition: with ``total`` permutations left in the rank interval
    and ``n_rem`` symbols to go, class s owns a sub-interval of the integer
    size ``total * c_s / n_rem``, after those of the classes below it. The
    emitted class is the one whose cumulative count range [cum, cum + c)
    holds ``index * n_rem // total``; ``index`` drops by
    ``total * cum // n_rem`` and ``total`` becomes ``total * c // n_rem``.
    Each step divides k-bit integers, so the cost is quadratic: about
    0.1 ms at 64 symbols, 24 ms at 4 050, 0.25 s at 16 384 and 3.9 s at
    65 529 (k = 144 125; 2-core x86-64 VM, Python 3.11).
    """
    bits = _integers_below(data_bits, 2, ParameterError, "data bits")
    total = composition.permutation_count()
    k = total.bit_length() - 1
    if bits.size != k:
        raise ParameterError(f"composition requires exactly {k} data bits, got {bits.size}")
    index = _int_of(bits)
    counts = list(composition.counts)
    out = np.empty(composition.n, dtype=np.int64)
    for pos, n_rem in enumerate(range(composition.n, 0, -1)):
        ends = list(accumulate(counts))
        s = bisect_right(ends, index * n_rem // total)
        c = counts[s]
        index -= total * (ends[s] - c) // n_rem
        total = total * c // n_rem
        counts[s] = c - 1
        out[pos] = s
    return out


def ccdm_decode(symbols: Sequence[int], composition: Composition) -> np.ndarray:
    """Rank a permutation back to its data bits; strict codeword check.

    The rank is the definition's sum of the sub-interval sizes below each
    emitted class: ``index`` grows by ``total * cum // n_rem`` and ``total``
    becomes ``total * c // n_rem``, at ``ccdm_encode``'s quadratic cost
    (2.7 s at 65 529 symbols). Raises ``DecodeError`` unless ``symbols`` is
    1-D and integer, with the composition's counts and a rank below 2**k.
    """
    counts = list(composition.counts)
    sym = _integers_below(symbols, len(counts), DecodeError, "symbols")
    if np.bincount(sym, minlength=len(counts)).tolist() != counts:
        raise DecodeError("symbol sequence does not match the composition")

    total = composition.permutation_count()
    k = total.bit_length() - 1
    index = 0
    for n_rem, s in zip(range(composition.n, 0, -1), sym.tolist()):
        c = counts[s]
        index += total * sum(counts[:s]) // n_rem
        total = total * c // n_rem
        counts[s] = c - 1
    if index >= (1 << k):
        raise DecodeError("permutation rank exceeds the codebook (not a codeword)")
    return _bits_of(index, k)


# ---------------------------------------------------------------------------
# PAS assembly
# ---------------------------------------------------------------------------

def pas_assemble(amplitude_classes: Sequence[int], sign_bits: Sequence[int],
                 alphabet: PamAlphabet,
                 distribution: SymbolDistribution | None = None) -> SymbolFrame:
    """Combine amplitude classes (a CCDM codeword, or the run's permuted
    composition) with uniform sign bits into symbols.

    Sign bit 0 selects the positive level. Classes must be integers in
    [0, M/2) and signs 0 or 1, else ``ParameterError``. When no design
    distribution is given, the exact frame prior implied by the composition
    and equiprobable signs is attached.
    """
    if not alphabet.is_symmetric:
        raise ParameterError("PAS requires a symmetric alphabet")
    half = alphabet.size // 2
    classes = _integers_below(amplitude_classes, half, ParameterError, "amplitude classes")
    signs = _integers_below(sign_bits, 2, ParameterError, "sign bits")
    if classes.shape != signs.shape:
        raise ParameterError("amplitude and sign sequences must have equal length")

    indices = alphabet.level_index(classes, signs == 1)

    if distribution is None:
        class_counts = np.bincount(classes, minlength=half)
        p_mag = class_counts / classes.size
        probs = np.concatenate([p_mag[::-1], p_mag]) / 2.0
        distribution = SymbolDistribution(probs)
    return SymbolFrame(indices, alphabet, distribution)


def uniform_frame(alphabet: PamAlphabet, n: int, rng: np.random.Generator) -> SymbolFrame:
    """Uniform i.i.d. symbols (the unshaped PAM case)."""
    indices = rng.integers(0, alphabet.size, size=n)
    return SymbolFrame(indices, alphabet, SymbolDistribution.uniform(alphabet.size))
