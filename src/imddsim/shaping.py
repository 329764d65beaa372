"""Probabilistic amplitude shaping: PAM alphabets, Maxwell-Boltzmann
distributions, constant-composition distribution matching, and entropy
accounting.

The distribution matcher maps uniform data bits to fixed-composition
amplitude sequences by exact multiset ranking (Schulte & Boecherer, "Constant
Composition Distribution Matching", IEEE T-IT 62(1), 2016): the k-bit input
indexes the lexicographic enumeration of all permutations of the
composition, with the interval subdivision carried out in arbitrary-precision
integers (block lengths around 1e5 overflow any fixed-width type).

By definition, each output symbol splits the current rank interval of
``total`` permutations into one sub-interval per class, of size
``total * c / n_rem``; that is one full-width big-integer step per symbol.
The encoder and decoder here compose runs of such steps into three integers
``(P, Q, A)`` (the interval shrinks to ``total * P / Q`` and moves by
``total * A / Q``) in two levels: short inner batches of about a hundred
symbols, each composed into an outer batch of about a thousand, which is
applied to the full-width integers once. The encoder picks the classes on
two fixed-point windows of the rank, a narrow one per symbol and a wide one
per outer batch, each with a rigorous lower and upper bound, and decides a
class exactly whenever the bounds disagree, so both produce exactly the
per-symbol definition's output for every input (costs in their docstrings).

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
from math import gcd, isqrt, perm, prod
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
    name: str = ""

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

    def magnitudes(self) -> np.ndarray:
        """Distinct magnitudes, ascending (the CCDM amplitude classes)."""
        if not self.is_symmetric:
            raise ParameterError("magnitude classes require a symmetric alphabet")
        return self.levels[self.size // 2:]

    def level_index(self, magnitude_class: int, negative: bool) -> int:
        half = self.size // 2
        return half - 1 - magnitude_class if negative else half + magnitude_class

    @classmethod
    def uniform(cls, size: int, normalize: bool = True, name: str = "") -> "PamAlphabet":
        """Equally spaced PAM-``size`` with reflected Gray labels."""
        raw = np.arange(-(size - 1), size, 2, dtype=float)
        if normalize:
            raw = raw / np.sqrt(np.mean(raw**2))
        m = max(1, int(np.ceil(np.log2(size))))
        labels = np.array([_bits_of(_gray(i), m) for i in range(size)])
        return cls(raw, labels, name or f"PAM{size}")

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
        return cls(raw, labels, "PS-PAM12")


@dataclass(frozen=True)
class SymbolDistribution:
    """Probabilities aligned with a PamAlphabet's levels."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < 0):
            raise ParameterError("probabilities must be non-negative")
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
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts) or sum(counts) < 1:
            raise ParameterError("counts must be non-negative with n >= 1")
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
    """Transmitted PAM symbols: level indices, alphabet, and design prior."""

    indices: np.ndarray
    alphabet: PamAlphabet
    distribution: SymbolDistribution

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ParameterError("indices must be a non-empty 1-D sequence")
        if idx.min() < 0 or idx.max() >= self.alphabet.size:
            raise ParameterError("index out of alphabet range")
        if self.distribution.probabilities.size != self.alphabet.size:
            raise ParameterError("distribution does not match alphabet size")
        object.__setattr__(self, "indices", idx)

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
    if nu < 0:
        raise ParameterError("nu must be non-negative")
    expo = -nu * alphabet.levels**2
    expo -= expo.max()  # stabilize: largest weight is exactly 1
    w = np.exp(expo)
    return SymbolDistribution(w / w.sum())


def entropy_bits(dist: SymbolDistribution) -> float:
    p = dist.probabilities
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def check_entropy_target(target_bits: float, alphabet: PamAlphabet,
                         tol_bits: float = 1e-6, key: str | None = None) -> None:
    """Raise a ``ParameterError`` (naming ``key``) unless ``target_bits`` is
    a Maxwell-Boltzmann entropy of ``alphabet``.

    The attainable range is (H_min, log2 M], where H_min is the entropy of
    the limiting distribution on the minimum-|a| levels (1 bit for a
    symmetric alphabet). Targets within 1e-3 bit above log2 M are accepted
    as the uniform limit (conventional roundings such as 3.585 for PAM12),
    and targets within ``tol_bits`` of H_min as the floor.
    """
    h_max = np.log2(alphabet.size)
    if not 0 < target_bits <= h_max + 1e-3:
        raise ParameterError(f"target entropy must lie in (0, {h_max:.6f}]", key)
    min_sq = np.min(alphabet.levels**2)
    h_min = np.log2(np.sum(np.isclose(alphabet.levels**2, min_sq)))
    if target_bits < h_min - tol_bits:
        raise ParameterError(
            f"entropy {target_bits} unattainable; Maxwell-Boltzmann floor is "
            f"{h_min:.6f} bits for this alphabet", key
        )


def nu_for_entropy(target_bits: float, alphabet: PamAlphabet,
                   tol_bits: float = 1e-6) -> float:
    """Invert H(nu) by bisection; H is strictly decreasing in nu.

    The target must pass :func:`check_entropy_target`; targets within
    ``tol_bits`` of log2 M clamp to the uniform limit, nu = 0.
    """
    check_entropy_target(target_bits, alphabet, tol_bits)
    h_max = np.log2(alphabet.size)
    if target_bits >= h_max - tol_bits:
        return 0.0

    def h(nu: float) -> float:
        return entropy_bits(maxwell_boltzmann(nu, alphabet))

    lo, hi = 0.0, 1.0 / np.mean(alphabet.levels**2)
    while h(hi) > target_bits + tol_bits:
        hi *= 2.0
        if hi > 1e9:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        if abs(h_mid - target_bits) <= tol_bits:
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
    if n < 1:
        raise ParameterError("block length must be >= 1")
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
        raise ParameterError("class probabilities must be a distribution")
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


def ccdm_rate_bits_per_symbol(composition: Composition) -> float:
    return ccdm_input_bits(composition) / composition.n


# Widths, in bits, of the encoder's two fixed-point windows on the rank. The
# outer window bounds the rank for one full-width update and lasts about
# _OUTER_BITS / H symbols (H = bits per symbol); the inner window, cut from
# it, picks one class per symbol and lasts about _INNER_BITS / H symbols.
_OUTER_BITS = 2048
_INNER_BITS = 256
# Symbols ranked per inner batch in the decoder.
_DECODE_BATCH = 256


def _compose(batch: tuple[int, int, int], p: int, q: int,
             a: int) -> tuple[int, int, int]:
    """The batch (P, Q, A), x -> (x*Q - A) / P, followed by x -> (x*q - a) / p.

    The common factor of p, q and a is divided out first: on these short
    operands the gcd is cheap, and it keeps the composed batch, and so the
    gcd and the division in ``_apply_batch``, short.
    """
    g = gcd(p, q, a)
    p, q, a = p // g, q // g, a // g
    P, Q, A = batch
    return P * p, Q * q, A * q + P * a


def _apply_batch(u: int, v: int, p: int, q: int,
                 a: int) -> tuple[int, int, int]:
    """Apply a composed batch to the rank interval, whose size is kept as
    the product u * v: return total * a / q, the offset of the chosen
    sub-interval, and the sub-interval's size total * p / q as (u, p).
    Everything is exact.

    Once the common factor of p, q and a is divided out, q divides total: a
    factor of q missing from total would have to divide p and a as well,
    since both results are integers. The factor v, the previous batch's p,
    is multiplied in only now, after its common factor with q is cancelled,
    which shortens both the full-width division and the product.
    """
    g = gcd(p, q, a)
    p, q, a = p // g, q // g, a // g
    g = gcd(v, q)
    u = u // (q // g) * (v // g)
    return u * a, u, p


def ccdm_encode(data_bits: Sequence[int], composition: Composition) -> np.ndarray:
    """Map data bits to the index-th lexicographic permutation of the
    composition's multiset (index = the bits read as a big-endian integer).

    Definition: at each position, with ``total`` permutations left in the
    rank interval and ``n_rem`` symbols to go, class s owns the sub-interval
    of size ``total * c_s / n_rem`` after those of the classes below it; the
    class whose sub-interval holds ``index`` is emitted, ``index`` drops by
    the sizes before it and ``total`` becomes its size. Equivalently, with
    x = index / total, the class is the one whose cumulative count range
    [cum, cum + c) holds floor(x * n_rem), and x becomes (x * n_rem - cum) / c.

    Algorithm: two batch levels. The outer level bounds x within a
    2**-_OUTER_BITS interval [LO, HI] from the leading bits of ``index`` and
    ``total``. The inner level cuts an _INNER_BITS-bit interval [lo, hi]
    around it and steps both ends in fixed point, one symbol at a time,
    while they pick the same class, accumulating p = prod c and a (the rank
    offset's numerator); q = prod n_rem is a falling factorial. Each inner
    batch is composed into the outer (P, Q, A) (``_compose``), and the outer
    bounds follow the composed map x -> (x*q - a) / p, rounded outward. When
    an inner batch cannot pick a single class, the outer batch is applied to
    the full-width integers with one exact division (``_apply_batch``); when
    a fresh outer window cannot either, one symbol is decided from the exact
    floor(index * n_rem / total). The output equals the definition's for
    every input.

    Cost: the symbol loop works on integers of a few hundred bits, about
    100 symbols per inner batch, and the full-width update runs once per
    outer batch of about 900 symbols (73 updates for the C-band preset's
    65 610 symbols, k = 144 305 bits). That frame encodes in 0.25-0.35 s of
    CPU time on a 2-core x86-64 VM (Python 3.11), against 4.6 s step by
    step: about 45 % in the symbol loop (~1 us a symbol, the interpreter's
    floor), 40 % in the full-width updates (mostly CPython's quadratic long
    division and two products) and 15 % composing batches and stepping the
    outer bounds.
    """
    bits = np.asarray(data_bits, dtype=np.int64)
    total = composition.permutation_count()
    k = total.bit_length() - 1
    if bits.size != k:
        raise ParameterError(f"composition requires exactly {k} data bits, got {bits.size}")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ParameterError("data bits must be 0/1")

    index = _int_of(bits)
    u, v = total, 1  # total = u * v
    counts = list(composition.counts)
    n_rem = composition.n
    out = []
    wide, w = _OUTER_BITS, _INNER_BITS
    cut = wide - w
    while n_rem:
        # x = index / total lies in [LO, HI] / 2**wide
        shift = max(0, u.bit_length() - wide)
        t, i, inexact = u >> shift, index >> shift, int(shift > 0)
        LO = (i << wide) // ((t + inexact) * v)
        HI = -((-(i + inexact) << wide) // (t * v))
        batch = (1, 1, 0)
        outer_start = n_rem
        while n_rem:
            # [lo, hi] / 2**w contains [LO, HI] / 2**wide
            lo, hi = LO >> cut, -(-HI >> cut)
            p, a, start = 1, 0, n_rem
            while n_rem:
                lo_n, hi_n = lo * n_rem, hi * n_rem
                j = lo_n >> w
                s = cum = 0
                c = end = counts[0]
                while j >= end:
                    cum = end
                    s += 1
                    c = counts[s]
                    end += c
                # [lo, hi] straddles a class boundary (x < 1 never reaches
                # the end of the last class)
                if hi_n >> w >= end and end < n_rem:
                    break
                base = cum << w
                lo = (lo_n - base) // c
                hi = -((base - hi_n) // c)
                a = a * n_rem + p * cum
                p *= c
                counts[s] = c - 1
                n_rem -= 1
                out.append(s)
            if n_rem == start:
                break
            q = perm(start, start - n_rem)  # the product of the n_rem
            batch = _compose(batch, p, q, a)
            a <<= wide
            LO = (LO * q - a) // p
            HI = -((a - HI * q) // p)
        if n_rem == outer_start:
            # x sits too close to a class boundary: decide this symbol exactly
            ends = list(accumulate(counts))
            s = bisect_right(ends, index * n_rem // (u * v))
            c = counts[s]
            batch = (c, n_rem, ends[s] - c)
            counts[s] = c - 1
            n_rem -= 1
            out.append(s)
        offset, u, v = _apply_batch(u, v, *batch)
        index -= offset
    return np.array(out, dtype=np.int64)


def ccdm_decode(symbols: Sequence[int], composition: Composition) -> np.ndarray:
    """Rank a permutation back to its data bits; strict codeword check.

    The rank is the sum, over positions, of the sub-interval sizes of the
    classes below the emitted one (the inverse of ``ccdm_encode``'s
    definition). It is accumulated in the encoder's two batch levels: runs
    of ``_DECODE_BATCH`` symbols, each a (p, q, a) composed into an outer
    (P, Q, A) (``_compose``), which is applied to the full-width integers
    once it spans about _OUTER_BITS bits of rank (``_apply_batch``). The
    result equals the per-symbol sum; the C-band preset's 65 610 symbols
    decode in 0.2-0.25 s where the per-symbol sum takes 5 s (same machine as
    ``ccdm_encode``). Sequences with the wrong length or
    composition, and ranks at or beyond 2**k, raise ``DecodeError``.
    """
    sym = np.asarray(symbols, dtype=np.int64)
    counts = list(composition.counts)
    observed = np.bincount(sym, minlength=len(counts)) if sym.size else np.zeros(len(counts), int)
    if sym.size != composition.n or list(observed) != counts:
        raise DecodeError("symbol sequence does not match the composition")

    u, v = composition.permutation_count(), 1  # total = u * v
    k = u.bit_length() - 1
    index = 0
    n_rem = composition.n
    seq = sym.tolist()
    batch = (1, 1, 0)
    for start in range(0, len(seq), _DECODE_BATCH):
        run = seq[start:start + _DECODE_BATCH]
        p, a, q = 1, 0, perm(n_rem, len(run))
        for s in run:
            c = counts[s]
            a = a * n_rem + p * sum(counts[:s])
            p *= c
            counts[s] = c - 1
            n_rem -= 1
        batch = _compose(batch, p, q, a)
        P, Q, _ = batch
        if Q.bit_length() - P.bit_length() >= _OUTER_BITS or not n_rem:
            offset, u, v = _apply_batch(u, v, *batch)
            index += offset
            batch = (1, 1, 0)
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

    Sign bit 0 selects the positive level. When no design distribution is
    given, the exact frame prior implied by the composition and equiprobable
    signs is attached.
    """
    classes = np.asarray(amplitude_classes, dtype=np.int64)
    signs = np.asarray(sign_bits, dtype=np.int64)
    if classes.shape != signs.shape:
        raise ParameterError("amplitude and sign sequences must have equal length")
    if not alphabet.is_symmetric:
        raise ParameterError("PAS requires a symmetric alphabet")
    half = alphabet.size // 2
    if classes.size and (classes.min() < 0 or classes.max() >= half):
        raise ParameterError("amplitude class out of range")

    indices = np.where(signs == 0, half + classes, half - 1 - classes)

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
