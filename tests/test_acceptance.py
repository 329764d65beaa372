"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import TRANSPARENT_SEEDS, fast_link_config, transparency_failures
from imddsim.channel import FiberSpec, dispersion_coefficient, propagate
from imddsim.config import c_band_216g, o_band_216g
from imddsim.rxdsp import (
    decide_and_ber,
    ffe_train_apply,
    gmi_ngmi,
    llr_compute,
    nearest_level_variance,
    net_bitrate_ps,
    symbol_metric,
)
from imddsim.shaping import (
    Composition,
    PamAlphabet,
    ccdm_decode,
    ccdm_encode,
    ccdm_input_bits,
    entropy_bits,
    maxwell_boltzmann,
    nu_for_entropy,
    uniform_frame,
)
from imddsim.sigcore import SampledWaveform, nmse_db, spectral_nmse_db
from imddsim.txdsp import (
    BandPlan,
    VolterraStructure,
    apply_volterra,
    band_split,
    fit_volterra,
    rrc_upsample,
)
from imddsim.harness import run_link, sweep_cores, sweep_entropy


def _report(criterion: str, ok: bool):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_01_formula_reproduction():
    checks = [
        # the paper's 3RB for uniform PAM8, where H = m = 3
        abs(net_bitrate_ps(3.0, 0.86019, 216.0, label_bits=3) - 557.4) <= 0.05,
        abs(net_bitrate_ps(3.0, 0.81173, 216.0, label_bits=3) - 526.0) <= 0.05,
        net_bitrate_ps(3.5, 1.0, 216.0) == 756.0,
        # formula-inversion regression for the 582.6 Gb/s headline:
        # H - (1 - R) * 4 = 582.6 / 216 must reproduce 582.6
        abs(net_bitrate_ps(582.6 / 216.0 + (1 - 0.9) * 4, 0.9, 216.0) - 582.6)
        <= 0.05,
    ]
    _report("01 formula-reproduction", all(checks))


@pytest.mark.parametrize(
    "plan",
    [
        BandPlan(76e9, 75e9, 72e9, awg_bandwidth_hz=126e9),
        BandPlan(82e9, 82e9, 76e9, awg_bandwidth_hz=126e9),
    ],
    ids=["C-band", "O-band"],
)
def test_criterion_02_perfect_reconstruction(plan):
    from imddsim.frontend import stitch_bands

    rate, n = 512e9, 32768
    rng = np.random.default_rng(2024)
    freqs = np.fft.fftfreq(n, 1 / rate)
    spec = np.zeros(n, dtype=np.complex128)
    sel = (np.abs(freqs) > 0.2e9) & (np.abs(freqs) < 190e9)
    spec[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
    wide = SampledWaveform(rate, np.fft.ifft(spec).real)

    lower, upper = band_split(wide, plan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # that wide a signal runs IF above LO
        rec = stitch_bands(lower, upper, plan, rate)
    xo = plan.crossover_hz
    nmse = spectral_nmse_db(wide, rec, exclude_bands=[(xo - 2e9, xo + 2e9)])
    band = "C" if plan.lo_frequency_hz == 72e9 else "O"
    _report(f"02 perfect-reconstruction ({band}-band, {nmse:.1f} dB)", nmse <= -30.0)


def test_criterion_03_ccdm_correctness():
    ok = True
    # exhaustive identity and rate-loss sign over n <= 8, up to 3 classes
    for n in range(1, 9):
        for c1 in range(n + 1):
            for c2 in range(n - c1 + 1):
                comp = Composition((c1, c2, n - c1 - c2))
                k = ccdm_input_bits(comp)
                p = np.array(comp.counts) / n
                h = float(-np.sum(p[p > 0] * np.log2(p[p > 0])))
                ok &= k / n <= h + 1e-12
                for i in range(1 << k):
                    bits = [(i >> (k - 1 - b)) & 1 for b in range(k)]
                    word = ccdm_encode(bits, comp)
                    ok &= np.array_equal(ccdm_decode(word, comp), bits)

    rng = np.random.default_rng(3)
    comp = Composition((20, 16, 16, 12))
    k = ccdm_input_bits(comp)
    for _ in range(1000):
        bits = rng.integers(0, 2, size=k)
        ok &= np.array_equal(ccdm_decode(ccdm_encode(bits, comp), comp), bits)
    _report("03 ccdm-correctness", bool(ok))


def test_criterion_04_shaping_solver():
    alphabet = PamAlphabet.pam12()
    # 3.585 is the conventional 3-decimal value of log2(12); the solver takes
    # it (clamping to the uniform limit), and the 1e-6 check runs against the
    # exact attainable target
    targets = [1.0, 2.0, 3.0, 3.5, np.log2(12)]
    errs = []
    for target in targets:
        nu = nu_for_entropy(target, alphabet)
        errs.append(abs(entropy_bits(maxwell_boltzmann(nu, alphabet)) - target))
    ok = max(errs) <= 1e-6 and nu_for_entropy(3.585, alphabet) == 0.0
    _report(f"04 shaping-solver (max err {max(errs):.2e} bits)", ok)


def _gmi_oracle(levels, labels, sigma2):
    """Trapezoidal integration of the bit-metric GMI deficit (capped metric)."""
    m = labels.shape[1]
    span = 12 * np.sqrt(sigma2) + np.max(np.abs(levels))
    y = np.linspace(-span, span, 400001)
    metric = -((y[None, :] - levels[:, None]) ** 2) / (2 * sigma2) + np.log(
        1.0 / levels.size
    )
    deficit = 0.0
    for i in range(m):
        zero = labels[:, i] == 0
        num = np.logaddexp.reduce(metric[zero], axis=0)
        den = np.logaddexp.reduce(metric[~zero], axis=0)
        llr = np.clip(num - den, -50, 50)
        for xi, level in enumerate(levels):
            pdf = np.exp(-((y - level) ** 2) / (2 * sigma2)) / np.sqrt(
                2 * np.pi * sigma2
            )
            sign = 1.0 if labels[xi, i] == 1 else -1.0
            term = np.logaddexp(0.0, sign * llr) / np.log(2.0)
            deficit += np.trapezoid(pdf * term, y) / levels.size
    return m - deficit


def test_criterion_05_metrology_oracle():
    rng = np.random.default_rng(5)
    n = 1 << 20
    worst = 0.0
    ok = True
    for order in (2, 4):
        alphabet = PamAlphabet.uniform(order)
        frame = uniform_frame(alphabet, n, rng)
        es = float(np.mean(alphabet.levels**2))
        for snr_db in (0.0, 3.0, 6.0, 10.0):
            sigma2 = es / 10 ** (snr_db / 10)
            rx = frame.levels() + rng.normal(0, np.sqrt(sigma2), n)
            llr = llr_compute(symbol_metric(rx, frame, sigma2), frame)
            m = alphabet.label_bits
            gmi, _ = gmi_ngmi(llr, frame.bits(), float(m), m)
            oracle = _gmi_oracle(alphabet.levels, alphabet.labels, sigma2)
            worst = max(worst, abs(gmi - oracle))
            ok &= abs(gmi - oracle) <= 0.01
    _report(f"05 metrology-oracle (worst gap {worst:.4f} bits)", ok)


def test_criterion_06_dispersion_analytics():
    rate = 2048e9
    n = 16384
    t = (np.arange(n) - n / 2) / rate
    t0 = 5e-12
    pulse = SampledWaveform(rate, np.exp(-(t**2) / (2 * t0**2)).astype(complex),
                            "optical_field")
    spec = FiberSpec(1.0, 1280.0, 0.092, attenuation_db_km=0.0)
    lam = 1310.0
    from scipy.constants import c as c_m_s

    d_si = dispersion_coefficient(lam, spec) * 1e-6
    beta2 = (lam * 1e-9) ** 2 * d_si / (2 * np.pi * c_m_s)
    length_km = t0**2 / beta2 / 1e3
    fiber = replace(spec, length_km=length_km)

    out = propagate(pulse, fiber, lam)
    inten = np.abs(out.samples) ** 2
    tc = np.sum(t * inten) / np.sum(inten)
    width = np.sqrt(2 * np.sum((t - tc) ** 2 * inten) / np.sum(inten))
    broadening_ok = abs(width / (np.sqrt(2) * t0) - 1.0) <= 0.01

    lossy = FiberSpec(7.0, 1280.0, 0.092, attenuation_db_km=0.3)
    prop = propagate(pulse, lossy, lam)
    e_ratio = np.sum(np.abs(prop.samples) ** 2) / np.sum(np.abs(pulse.samples) ** 2)
    energy_ok = abs(e_ratio - 10 ** (-0.3 * 7.0 / 10.0)) <= 1e-10

    two_hops = propagate(propagate(pulse, FiberSpec(4.0, 1280.0, 0.092, 0.0), lam),
                         FiberSpec(6.0, 1280.0, 0.092, 0.0), lam)
    one_hop = propagate(pulse, FiberSpec(10.0, 1280.0, 0.092, 0.0), lam)
    semigroup_ok = nmse_db(one_hop, two_hops) <= 10 * np.log10(1e-9)

    _report("06 dispersion-analytics", broadening_ok and energy_ok and semigroup_ok)


def test_criterion_07_equalizer_efficacy():
    rng = np.random.default_rng(7)
    n = 1 << 20
    alphabet = PamAlphabet.uniform(4)
    frame = uniform_frame(alphabet, n, rng)
    sym = frame.levels()
    isi = np.convolve(sym, [1.0, 0.5], mode="full")[:n]
    wave = rrc_upsample(isi, 2, 0.1, 100e9)
    x = wave.real
    sigma = np.sqrt(np.mean(x**2) / 10 ** (25.0 / 10.0))
    x = x + rng.normal(0, sigma, x.size)

    eq, state = ffe_train_apply(x, sym, tap_count=31, train_fraction=0.2)
    k = np.arange(state.training_symbols, n)
    ref = sym[k]
    # unequalized baseline: the T-spaced input scaled to the symbol power
    raw = x[2 * k] * np.sqrt(np.mean(sym**2) / np.mean(x**2))
    improvement = 10 * np.log10(np.mean((raw - ref) ** 2) / np.mean((eq - ref) ** 2))

    from imddsim.shaping import SymbolFrame

    eval_frame = SymbolFrame(frame.indices[state.training_symbols:], alphabet,
                             frame.distribution)
    metric = symbol_metric(eq, eval_frame, nearest_level_variance(eq, alphabet))
    ber, _ = decide_and_ber(metric, eval_frame)
    ok = improvement >= 10.0 and ber < 1e-4
    _report(f"07 equalizer-efficacy ({improvement:.1f} dB, BER {ber:.1e})", ok)


def test_criterion_08_dpd_efficacy():
    rng = np.random.default_rng(8)
    levels = np.arange(-7, 8, 2) / 7.0
    fir = np.array([1.0, 0.25, -0.15])

    def channel(x):
        v = np.convolve(x, fir, mode="full")[: x.size]
        return v - 0.1 * v**3

    # training sweep extends the amplitude so the post-inverse is fitted over
    # the whole predistorter input range; held-out evaluation on a new seed
    x_train = levels[rng.integers(0, 8, 30000)] * 1.2
    x_eval = levels[rng.integers(0, 8, 30000)]
    structure = VolterraStructure(memory_1=15, memory_2=0, memory_3=15,
                                  max_spread_3=0)
    fit = fit_volterra(x_train, channel(x_train), structure)
    predistorted = apply_volterra(x_eval, fit.kernel)
    no_dpd = nmse_db(x_eval, channel(x_eval))
    with_dpd = nmse_db(x_eval, channel(predistorted))
    improvement = no_dpd - with_dpd
    _report(
        f"08 dpd-efficacy ({no_dpd:.1f} -> {with_dpd:.1f} dB, +{improvement:.1f} dB)",
        improvement >= 15.0,
    )


def test_criterion_08_dpd_on_link():
    """Criterion 08's claim on the production path: on the O-band preset
    driven into compression (0.7 Vpi), the indirect-learning pre-distorter
    raises NGMI on every golden seed."""
    gains = []
    for seed in (7, 11, 12, 13):
        cfg = o_band_216g(seed)
        cfg = replace(cfg, tx=replace(cfg.tx, drive_peak_fraction_vpi=0.7))
        dpd = replace(cfg, dsp=replace(cfg.dsp, volterra_enabled=True))
        gains.append(run_link(dpd).ngmi - run_link(cfg).ngmi)
    detail = ", ".join(f"{g:+.4f}" for g in gains)
    _report(f"08 dpd-on-link (NGMI gain {detail})", min(gains) > 0)


def test_criterion_09_entropy_sweep_shape():
    base = replace(c_band_216g(1), sequence_length_symbols=16384)
    entropies = [2.6, 2.8, 3.0, 3.2, 3.4, 3.5, 3.585]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = sweep_entropy(base, entropies)
    reports = [row.report for row in result.rows]
    ok = all(rep is not None for rep in reports)
    achievable = [rep.achievable_bitrate_gbps for rep in reports]
    nets = [rep.net_bitrate_gbps for rep in reports]

    tol = 3.0  # Gb/s, desk-scale seed-to-seed spread
    peak = int(np.argmax(achievable))
    rising = all(achievable[i + 1] >= achievable[i] - tol for i in range(peak))
    falling = all(
        achievable[i + 1] <= achievable[i] + tol
        for i in range(peak, len(achievable) - 1)
    )
    net_ok = all(n <= a + 1e-9 for n, a in zip(nets, achievable))
    ok = ok and rising and falling and net_ok
    shape = ", ".join(f"{a:.0f}" for a in achievable)
    _report(f"09 entropy-sweep-shape [{shape}]", ok)


def test_criterion_10_determinism_and_transparency():
    cfg = fast_link_config()
    failures = [msg for seed in TRANSPARENT_SEEDS
                for msg in transparency_failures(run_link(cfg.with_seed(seed)))]
    first = run_link(cfg)
    second = run_link(cfg)
    deterministic = first == second

    # same runs executed through the per-core batch must be bit-identical too
    batch = sweep_cores(cfg, 2).reports()
    replay = [run_link(cfg), run_link(cfg.with_seed(cfg.seed + 1))]
    batch_stable = batch == replay
    detail = "; ".join(failures) or f"{len(TRANSPARENT_SEEDS)} seeds transparent"
    _report(f"10 determinism-and-transparency ({detail})",
            not failures and deterministic and batch_stable)
