import hashlib
import itertools
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from imddsim import shaping
from imddsim.config import c_band_216g, o_band_216g
from imddsim.errors import DecodeError, ParameterError
from imddsim.harness import _build_frame, _spawn_rngs, resolve_sequence_length
from imddsim.rxdsp import RateTable, digitize, net_bitrate_ps, required_code_rate
from imddsim.shaping import (
    Composition,
    PamAlphabet,
    SymbolDistribution,
    SymbolFrame,
    ccdm_decode,
    ccdm_encode,
    ccdm_input_bits,
    composition_from_distribution,
    entropy_bits,
    magnitude_distribution,
    maxwell_boltzmann,
    nu_for_entropy,
    pas_assemble,
    uniform_frame,
)
from imddsim.sigcore import SampledWaveform, resample
from imddsim.txdsp import rrc_upsample


def lex_permutations(composition):
    """Oracle: all distinct permutations of the multiset, in lex order."""
    symbols = []
    for cls, count in enumerate(composition.counts):
        symbols.extend([cls] * count)
    return sorted(set(itertools.permutations(symbols)))


def reference_encode(data_bits, composition):
    """Oracle: the matcher's definition, one full-width interval split per
    class and symbol."""
    index = 0
    for b in data_bits:
        index = (index << 1) | int(b)
    counts = list(composition.counts)
    total = composition.permutation_count()
    n_rem = composition.n
    out = np.empty(n_rem, dtype=np.int64)
    for pos in range(out.size):
        for cls, c in enumerate(counts):
            if c == 0:
                continue
            block = total * c // n_rem
            if index < block:
                out[pos] = cls
                total = block
                counts[cls] -= 1
                n_rem -= 1
                break
            index -= block
    return out


@st.composite
def compositions_and_bits(draw):
    """1-6 classes (zero counts allowed), n up to about 3000, and the input
    bits of rank 0, rank 2**k - 1 or a random rank."""
    counts = draw(st.lists(st.integers(0, 500), min_size=1, max_size=6)
                  .filter(lambda c: sum(c) >= 1))
    comp = Composition(tuple(counts))
    k = ccdm_input_bits(comp)
    kind = draw(st.sampled_from(["zero", "max", "random"]))
    if kind == "zero":
        bits = np.zeros(k, dtype=np.int64)
    elif kind == "max":
        bits = np.ones(k, dtype=np.int64)
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        bits = np.random.default_rng(seed).integers(0, 2, size=k)
    return comp, bits


class TestAlphabet:
    def test_pam12_labeling(self):
        a = PamAlphabet.pam12()
        assert a.size == 12 and a.label_bits == 4
        assert a.is_symmetric
        # unit average power at uniform probability
        assert abs(np.mean(a.levels**2) - 1.0) < 1e-12
        # sign bit: 1 for negative levels, 0 for positive
        assert all(a.labels[i, 0] == (1 if a.levels[i] < 0 else 0) for i in range(12))
        # +a and -a share the magnitude label bits
        for k in range(6):
            neg = a.labels[a.level_index(k, True)]
            pos = a.labels[a.level_index(k, False)]
            assert np.array_equal(neg[1:], pos[1:])

    def test_uniform_pam8_gray(self):
        a = PamAlphabet.uniform(8)
        assert a.label_bits == 3
        diffs = [int(np.sum(a.labels[i] != a.labels[i + 1])) for i in range(7)]
        assert diffs == [1] * 7

    def test_labels_injective_enforced(self):
        with pytest.raises(ParameterError):
            PamAlphabet(np.array([-1.0, 1.0]), np.array([[0], [0]]))


class TestMaxwellBoltzmann:
    def test_zero_nu_is_uniform(self):
        d = maxwell_boltzmann(0.0, PamAlphabet.pam12())
        assert np.allclose(d.probabilities, 1 / 12, atol=1e-15)

    def test_large_nu_concentrates_on_inner_pair(self):
        a = PamAlphabet.uniform(12, normalize=False)
        d = maxwell_boltzmann(1e3, a)
        inner = d.probabilities[5:7]
        assert np.all(inner >= 0.499)

    def test_hand_checked_ratio(self):
        # levels {+-1, +-3}, nu = ln(2)/8: P(+-1)=1/3, P(+-3)=1/6
        a = PamAlphabet.uniform(4, normalize=False)
        d = maxwell_boltzmann(np.log(2) / 8, a)
        assert np.allclose(d.probabilities, [1 / 6, 1 / 3, 1 / 3, 1 / 6], atol=1e-12)

    def test_symmetry_exact(self):
        d = maxwell_boltzmann(0.7, PamAlphabet.pam12())
        p = d.probabilities
        assert np.array_equal(p, p[::-1])


class TestEntropy:
    def test_uniform(self):
        assert abs(entropy_bits(SymbolDistribution.uniform(12)) - np.log2(12)) < 1e-9

    def test_point_mass(self):
        d = SymbolDistribution(np.array([1.0, 0.0, 0.0]))
        assert entropy_bits(d) == 0.0

    def test_hand_summed(self):
        d = SymbolDistribution(np.array([1 / 3, 1 / 3, 1 / 6, 1 / 6]))
        assert abs(entropy_bits(d) - 1.9183) < 1e-4


class TestNuForEntropy:
    def test_uniform_target_gives_zero(self):
        a = PamAlphabet.pam12()
        assert abs(nu_for_entropy(np.log2(12), a)) < 1e-6

    def test_round_trip(self):
        a = PamAlphabet.pam12()
        nu = nu_for_entropy(3.0, a)
        assert abs(entropy_bits(maxwell_boltzmann(nu, a)) - 3.0) < 1e-6

    def test_monotone(self):
        a = PamAlphabet.pam12()
        assert nu_for_entropy(3.5, a) < nu_for_entropy(3.0, a)

    def test_identity_over_attainable_range(self):
        # symmetric MB floors at 1 bit; identity checked across (1, log2 M]
        a = PamAlphabet.pam12()
        for target in np.linspace(1.0, np.log2(12), 9):
            nu = nu_for_entropy(target, a)
            assert abs(entropy_bits(maxwell_boltzmann(nu, a)) - target) < 1e-6

    def test_out_of_range(self):
        a = PamAlphabet.pam12()
        with pytest.raises(ParameterError):
            nu_for_entropy(np.log2(12) + 0.01, a)
        with pytest.raises(ParameterError):
            nu_for_entropy(0.0, a)


class TestCcdm:
    def test_single_class_degenerate(self):
        comp = Composition((4,))
        assert ccdm_input_bits(comp) == 0
        out = ccdm_encode([], comp)
        assert np.array_equal(out, [0, 0, 0, 0])
        assert ccdm_decode(out, comp).size == 0

    def test_two_class_matches_lex_enumeration(self):
        comp = Composition((2, 2))
        assert ccdm_input_bits(comp) == 2
        perms = lex_permutations(comp)
        seen = set()
        for i in range(4):
            bits = [(i >> 1) & 1, i & 1]
            word = tuple(ccdm_encode(bits, comp))
            assert word == perms[i]
            seen.add(word)
        assert len(seen) == 4

    def test_three_class_exhaustive_round_trip(self):
        comp = Composition((2, 1, 1))
        assert ccdm_input_bits(comp) == 3  # floor(log2 12)
        perms = lex_permutations(comp)
        assert len(perms) == 12
        for i in range(8):
            bits = [(i >> 2) & 1, (i >> 1) & 1, i & 1]
            word = ccdm_encode(bits, comp)
            assert tuple(word) == perms[i]
            assert np.array_equal(ccdm_decode(word, comp), bits)

    def test_random_round_trips_n64(self):
        rng = np.random.default_rng(42)
        comp = Composition((20, 16, 16, 12))
        k = ccdm_input_bits(comp)
        for _ in range(1000):
            bits = rng.integers(0, 2, size=k)
            sym = ccdm_encode(bits, comp)
            assert np.bincount(sym, minlength=4).tolist() == list(comp.counts)
            assert np.array_equal(ccdm_decode(sym, comp), bits)

    @settings(max_examples=150, deadline=None)
    @given(case=compositions_and_bits())
    def test_batched_encode_equals_definition(self, case):
        # reference_encode subtracts whole class blocks; ccdm_encode bisects
        # the cumulative counts with one division per symbol
        comp, bits = case
        word = ccdm_encode(bits, comp)
        assert np.array_equal(word, reference_encode(bits, comp))
        assert np.array_equal(ccdm_decode(word, comp), bits)

    @pytest.mark.parametrize("offset", [-1, 0], ids=["below", "on"])
    def test_exact_step_at_a_class_boundary(self, offset):
        # rank total / 2 (+ offset) puts the first symbol's split within one
        # permutation of the boundary between the two classes of a
        # composition whose total has ~3000 bits
        comp = Composition((1500, 1500))
        total = comp.permutation_count()
        bits = shaping._bits_of(total // 2 + offset, ccdm_input_bits(comp))
        word = ccdm_encode(bits, comp)
        assert word[0] == offset + 1
        assert np.array_equal(word, reference_encode(bits, comp))
        assert np.array_equal(ccdm_decode(word, comp), bits)

    def test_pam12_full_block_round_trip(self):
        # 4 050 symbols: k = 8 882 bits, far past any fixed-width integer
        a = PamAlphabet.pam12()
        dist = maxwell_boltzmann(nu_for_entropy(3.2, a), a)
        comp = composition_from_distribution(magnitude_distribution(dist, a), 4050)
        bits = np.random.default_rng(7).integers(0, 2, size=ccdm_input_bits(comp))
        assert bits.size == 8882
        word = ccdm_encode(bits, comp)
        assert np.bincount(word, minlength=6).tolist() == list(comp.counts)
        assert np.array_equal(ccdm_decode(word, comp), bits)

    def test_frame_skips_the_ccdm(self):
        # the run draws the shaped frame as a permutation: neither the
        # encoder nor the multinomial's prime sieve runs
        cfg = replace(c_band_216g(7), sequence_length_symbols=4096)
        rngs = _spawn_rngs(cfg)
        with mock.patch.object(shaping, "_primes_upto",
                               wraps=shaping._primes_upto) as sieve, \
                mock.patch.object(shaping, "ccdm_encode",
                                  wraps=shaping.ccdm_encode) as encode:
            _build_frame(cfg, rngs["data_bits"], rngs["sign_bits"])
        assert sieve.call_count == 0
        assert encode.call_count == 0

    def test_frame_is_a_seeded_permutation_of_the_composition(self):
        def frame(seed):
            cfg = replace(c_band_216g(seed), sequence_length_symbols=4096)
            rngs = _spawn_rngs(cfg)
            return _build_frame(cfg, rngs["data_bits"], rngs["sign_bits"])

        def classes(f):
            return np.abs(f.indices - 5.5).astype(int)  # |level| class, 0..5

        first = frame(7)
        a = first.alphabet
        dist = maxwell_boltzmann(nu_for_entropy(c_band_216g(7).target_entropy_bits, a), a)
        comp = composition_from_distribution(magnitude_distribution(dist, a), first.n)
        assert np.bincount(classes(first), minlength=6).tolist() == list(comp.counts)
        assert np.array_equal(frame(7).indices, first.indices)
        assert not np.array_equal(classes(frame(8)), classes(first))

    def test_c_band_frame_golden(self):
        # SHA-256 of the seed-7 C-band preset's symbol indices at 65 529
        # symbols: the composition's classes shuffled by the data stream,
        # signed by the sign stream
        cfg = replace(c_band_216g(7), sequence_length_symbols=65529)
        rngs = _spawn_rngs(cfg)
        frame = _build_frame(cfg, rngs["data_bits"], rngs["sign_bits"])
        digest = hashlib.sha256(frame.indices.astype("<i8").tobytes()).hexdigest()
        assert frame.n == 65529
        assert digest == "06982a62afda02a5fa9e3806c2c81e9f79bf53e0b548cefd0e63a54e19406580"

    @given(st.lists(st.integers(0, 3000), min_size=1, max_size=6)
           .filter(lambda c: sum(c) >= 1))
    def test_permutation_count_is_multinomial(self, counts):
        expected, rem = 1, sum(counts)
        for c in counts:
            expected *= math.comb(rem, c)
            rem -= c
        assert Composition(tuple(counts)).permutation_count() == expected

    def test_wrong_input_length(self):
        with pytest.raises(ParameterError):
            ccdm_encode([0, 1, 0], Composition((2, 2)))

    @pytest.mark.parametrize("bits", [[0.5, 1], [[0, 1]], [0, 2], [0, -1],
                                      [0, float("nan")], [[0], [0, 1]]],
                             ids=["fraction", "2-d", "two", "negative", "nan", "ragged"])
    def test_malformed_bits_rejected(self, bits):
        with pytest.raises(ParameterError):
            ccdm_encode(bits, Composition((2, 2)))

    @pytest.mark.parametrize("symbols", [[0, 0, -1, 1], [0, 0, 1, 1.7], [[0, 0], [1, 1]],
                                         [0, 0, 1, 2], [0, 0, 1, float("inf")]],
                             ids=["negative", "fraction", "2-d", "beyond", "inf"])
    def test_malformed_symbols_rejected(self, symbols):
        with pytest.raises(DecodeError):
            ccdm_decode(symbols, Composition((2, 2)))

    def test_wrong_composition_rejected(self):
        with pytest.raises(DecodeError):
            ccdm_decode([0, 0, 0, 1], Composition((2, 2)))

    def test_non_codeword_rejected(self):
        comp = Composition((2, 2))
        perms = lex_permutations(comp)
        # ranks 4 and 5 lie beyond the 2-bit codebook
        with pytest.raises(DecodeError):
            ccdm_decode(list(perms[5]), comp)

    def test_rates(self):
        for counts, rate in (((2, 2), 0.5), ((6,), 0.0), ((2, 1, 1), 0.75)):
            comp = Composition(counts)
            assert ccdm_input_bits(comp) / comp.n == rate

    def test_rate_loss_nonnegative_exhaustive(self):
        # all compositions with n <= 8 and up to 3 classes
        for n in range(1, 9):
            for c1 in range(n + 1):
                for c2 in range(n - c1 + 1):
                    c3 = n - c1 - c2
                    comp = Composition((c1, c2, c3))
                    p = np.array([c1, c2, c3]) / n
                    h = -np.sum(p[p > 0] * np.log2(p[p > 0]))
                    assert ccdm_input_bits(comp) / n <= h + 1e-12


class TestComposition:
    @pytest.mark.parametrize("counts", [(2.5, 2), ("2", 2), (2, -1), (0, 0), ()],
                             ids=["fraction", "string", "negative", "zero-sum", "empty"])
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(ParameterError, match="counts"):
            Composition(counts)

    def test_largest_remainder_sums_exactly(self):
        p = np.array([0.4, 0.35, 0.15, 0.1])
        for n in (7, 97, 1000):
            comp = composition_from_distribution(p, n)
            assert comp.n == n

    def test_tv_distance_shrinks_with_n(self):
        a = PamAlphabet.pam12()
        dist = maxwell_boltzmann(nu_for_entropy(3.0, a), a)
        p_mag = magnitude_distribution(dist, a)
        tv = []
        for n in (100, 1000, 10000):
            comp = composition_from_distribution(p_mag, n)
            emp = np.array(comp.counts) / n
            tv.append(0.5 * np.sum(np.abs(emp - p_mag)))
        assert tv[0] > tv[1] > tv[2] or tv[2] < 1e-4


class TestPasAssemble:
    def test_sign_convention(self):
        a = PamAlphabet.pam12()
        frame = pas_assemble([0, 0], [0, 1], a)
        smallest = a.levels[a.size // 2]  # the least positive level
        assert frame.levels()[0] == pytest.approx(smallest)
        assert frame.levels()[1] == pytest.approx(-smallest)

    def test_all_zero_signs_nonnegative(self):
        a = PamAlphabet.pam12()
        frame = pas_assemble([0, 3, 5, 1], [0, 0, 0, 0], a)
        assert np.all(frame.levels() > 0)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            pas_assemble([0, 1], [0], PamAlphabet.pam12())

    @pytest.mark.parametrize("classes, signs, named", [
        ([0.7, 1], [0, 1], "amplitude classes"),
        ([0, 6], [0, 1], "amplitude classes"),
        ([-1, 1], [0, 1], "amplitude classes"),
        ([0, float("nan")], [0, 1], "amplitude classes"),
        ([[0, 1]], [[0, 1]], "amplitude classes"),
        ([0, 1], [0, 5], "sign bits"),
        ([0, 1], [0, 0.5], "sign bits"),
        ([0, 1], [-1, 0], "sign bits"),
    ], ids=["fraction", "beyond", "negative", "nan", "2-d", "sign-5", "sign-fraction",
            "sign-negative"])
    def test_malformed_input_rejected(self, classes, signs, named):
        with pytest.raises(ParameterError, match=named):
            pas_assemble(classes, signs, PamAlphabet.pam12())

    def test_empirical_distribution_near_target(self):
        rng = np.random.default_rng(7)
        a = PamAlphabet.pam12()
        n = 10_000
        dist = maxwell_boltzmann(nu_for_entropy(3.2, a), a)
        comp = composition_from_distribution(magnitude_distribution(dist, a), n)
        bits = rng.integers(0, 2, size=ccdm_input_bits(comp))
        classes = ccdm_encode(bits, comp)
        signs = rng.integers(0, 2, size=n)
        frame = pas_assemble(classes, signs, a, distribution=dist)
        emp = np.bincount(frame.indices, minlength=12) / n
        tv = 0.5 * np.sum(np.abs(emp - dist.probabilities))
        assert tv < 0.02

    def test_uniform_frame(self):
        rng = np.random.default_rng(1)
        frame = uniform_frame(PamAlphabet.uniform(8), 4096, rng)
        assert frame.n == 4096
        assert frame.bits().shape == (4096, 3)


class TestIndexLayout:
    """A frame holds one byte per symbol up to 256 levels, at every stage
    that builds one."""

    @staticmethod
    def preset_frame(make, n=None):
        cfg = make(7)
        cfg = replace(cfg, sequence_length_symbols=n or resolve_sequence_length(cfg))
        rngs = _spawn_rngs(cfg)
        return _build_frame(cfg, rngs["data_bits"], rngs["sign_bits"])

    @pytest.mark.parametrize("build", [
        lambda: TestIndexLayout.preset_frame(c_band_216g, 4096),
        lambda: TestIndexLayout.preset_frame(o_band_216g, 4096),
        lambda: uniform_frame(PamAlphabet.uniform(8), 4096, np.random.default_rng(1)),
        lambda: pas_assemble(np.arange(6).repeat(10), np.tile([0, 1], 30), PamAlphabet.pam12()),
        lambda: pas_assemble([0, 5, 3], [True, False, True], PamAlphabet.pam12()),
    ], ids=["build_frame_c_band", "build_frame_o_band", "uniform_frame", "pas_assemble",
            "pas_assemble_bool_signs"])
    def test_one_byte_per_symbol(self, build):
        frame = build()
        assert frame.indices.itemsize == 1
        assert frame.indices.dtype == frame.alphabet.index_dtype == np.uint8

    def test_wide_alphabet_keeps_every_index(self):
        alphabet = PamAlphabet.uniform(300)
        frame = SymbolFrame([0, 298, 299], alphabet, SymbolDistribution.uniform(300))
        assert frame.indices.dtype == np.uint16
        assert frame.indices.tolist() == [0, 298, 299]
        assert frame.levels()[-1] == alphabet.levels[299]

    @pytest.mark.parametrize("alphabet", [PamAlphabet.pam12(), PamAlphabet.uniform(300)],
                             ids=["PAM12", "PAM300"])
    @pytest.mark.parametrize("narrow", [True, False], ids=["narrow-classes", "int64-classes"])
    def test_level_index_matches_int64(self, alphabet, narrow):
        # every (class, sign) pair, classes in their narrowest type or int64:
        # the index is the int64 formula's, in the alphabet's index type
        half = alphabet.size // 2
        classes = np.repeat(np.arange(half), 2)
        negative = np.tile([False, True], half)
        reference = np.where(negative, half - 1 - classes, half + classes)
        if narrow:
            classes = classes.astype(np.min_scalar_type(half - 1))
        index = alphabet.level_index(classes, negative)
        assert index.dtype == alphabet.index_dtype
        assert np.array_equal(index.astype(np.int64), reference)
        assert sorted(index.tolist()) == list(range(alphabet.size))

    def test_shaped_frame_peak(self):
        # int8 classes, bool signs and uint8 indices: the largest array is
        # one int64 record, the shuffle's and then the sign draw's, each
        # narrowed at once; with int64 classes, signs and indices the peak
        # was 2.69 MB
        peak = traced_peak(lambda: self.preset_frame(c_band_216g))
        assert peak < 1.0e6


#: Inputs that gave a silently wrong object, each as the call that takes it.
MALFORMED_INPUTS = {
    "distribution_nan": lambda: SymbolDistribution([float("nan"), 0.5, 0.5]),
    "distribution_2d": lambda: SymbolDistribution([[0.5, 0.5]]),
    "maxwell_boltzmann_nan": lambda: maxwell_boltzmann(float("nan"), PamAlphabet.uniform(4)),
    "maxwell_boltzmann_inf": lambda: maxwell_boltzmann(float("inf"), PamAlphabet.uniform(4)),
    "frame_fractional_indices": lambda: SymbolFrame(
        np.array([0.5, 1.7, 2.2, 3.9]), PamAlphabet.uniform(4), SymbolDistribution.uniform(4)),
    "code_rate_nan": lambda: required_code_rate(float("nan"), RateTable.default()),
    "rrc_zero_samples_per_symbol": lambda: rrc_upsample(np.ones(8), 0, 0.1, 1e9),
    "rrc_fractional_samples_per_symbol": lambda: rrc_upsample(np.ones(8), 2.5, 0.1, 1e9),
    "rrc_zero_symbol_rate": lambda: rrc_upsample(np.ones(8), 2, 0.1, 0.0),
    "rrc_empty_symbols": lambda: rrc_upsample(np.ones(0), 2, 0.1, 1e9),
    "rrc_2d_symbols": lambda: rrc_upsample(np.ones((4, 4)), 2, 0.1, 1e9),
    "waveform_nan_rate": lambda: SampledWaveform(float("nan"), np.ones(4)),
    "resample_nan_rate": lambda: resample(SampledWaveform(1e9, np.ones(4)), float("nan")),
    "resample_inf_rate": lambda: resample(SampledWaveform(1e9, np.ones(4)), float("inf")),
    "resample_overflowing_rate": lambda: resample(SampledWaveform(1e9, np.ones(4)), 1e308),
    "resample_unsizable_length": lambda: resample(SampledWaveform(1e9, np.ones(4)), 1e300),
    "digitize_nan_rate": lambda: digitize(SampledWaveform(1e9, np.ones(4)), float("nan")),
    "composition_2d": lambda: composition_from_distribution([[0.5, 0.5]], 10),
    "composition_nan": lambda: composition_from_distribution([float("nan"), 0.5], 10),
    "composition_fractional_length": lambda: composition_from_distribution([0.5, 0.5], 10.5),
    "net_bitrate_nan_entropy": lambda: net_bitrate_ps(float("nan"), 0.9, 216.0),
    "net_bitrate_nan_symbol_rate": lambda: net_bitrate_ps(3.0, 0.9, float("nan")),
}


@pytest.mark.parametrize("call", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_raises_parameter_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ParameterError):
            call()
