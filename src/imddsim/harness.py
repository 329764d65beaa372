"""End-to-end run orchestration: seeded deterministic link simulation,
parameter sweeps, and result persistence (CSV, SVG, run manifest).

A run walks shaping -> Tx DSP -> analog front end -> fiber -> receiver ->
metrology. Record lengths are snapped so every rate conversion in the chain
(AWG, analog, scope, 2 samples/symbol) lands on an integer sample count,
keeping the whole pipeline exact-rational and circular, and so every record
length is 5-smooth apart from primes the rate ratios force.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import LinkConfig, config_to_dict
from .channel import obpf, optical_amplify, propagate
from .errors import ParameterError, StageError
from .frontend import (
    amplify,
    dac_response,
    mixer_gain,
    mzm_modulate,
    stitch_bands,
)
from .rxdsp import (
    CSV_HEADER,
    PREAMBLE_SYMBOLS,
    SAMPLES_PER_SYMBOL,
    MetricsReport,
    digitize,
    ffe_train_apply,
    photodetect,
    score_symbols,
    synchronize,
)
from .shaping import (
    PamAlphabet,
    SymbolFrame,
    composition_from_distribution,
    magnitude_distribution,
    maxwell_boltzmann,
    nu_for_entropy,
    pas_assemble,
    uniform_frame,
)
from .sigcore import SampledWaveform, resample
from .txdsp import (
    apply_volterra,
    band_split,
    fit_volterra,
    linear_preemphasis,
    rrc_upsample,
)


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

_RNG_ROLES = ("data_bits", "sign_bits", "ase", "thermal", "dpd")


def _spawn_rngs(config: LinkConfig) -> dict:
    children = np.random.SeedSequence(config.seed).spawn(len(_RNG_ROLES))
    return {role: np.random.Generator(np.random.PCG64(child))
            for role, child in zip(_RNG_ROLES, children)}


def smallest_feasible_length(symbol_rate_hz: float, rates_hz: tuple[float, ...]) -> int:
    """Smallest symbol count for which every stage rate yields an integer
    record length; the feasible counts are exactly its multiples."""
    b = int(round(symbol_rate_hz))
    return math.lcm(*(b // math.gcd(b, int(round(r))) for r in rates_hz))


# ---------------------------------------------------------------------------
# stage helpers
# ---------------------------------------------------------------------------

def _build_frame(config: LinkConfig, rng_data, rng_signs) -> SymbolFrame:
    """The transmitted frame: uniform i.i.d. PAM-N, or PS-PAM12 from the
    Maxwell-Boltzmann composition with uniform sign bits.

    The run scores the symbols' labels and never reads data bits back, so
    the shaped frame's amplitude classes are a seeded uniform permutation
    of the composition, drawn from ``rng_data``, not the CCDM codeword of
    random bits. The CCDM reaches only the lexicographically first 2**k of
    the composition's permutations; the draw covers all of them. The
    bitrates still bill the design entropy H, not the CCDM's rate.
    """
    n = config.sequence_length_symbols
    if config.modulation == "ps_pam12":
        alphabet = PamAlphabet.pam12()
        nu = nu_for_entropy(config.target_entropy_bits, alphabet)
        dist = maxwell_boltzmann(nu, alphabet)
        comp = composition_from_distribution(magnitude_distribution(dist, alphabet), n)
        classes = np.repeat(np.arange(alphabet.size // 2), comp.counts)
        rng_data.shuffle(classes)
        signs = rng_signs.integers(0, 2, size=n)
        return pas_assemble(classes, signs, alphabet, dist)
    return uniform_frame(PamAlphabet.uniform(config.pam_order), n, rng_data)


def _tx_chain_magnitude(config: LinkConfig, rf_freq_hz: np.ndarray,
                        upper_path: bool) -> np.ndarray:
    """Magnitude of the device chain from one AWG port to the MZM, used by
    the pre-emphasis stage. Upper-path frequencies are RF (post-mixer)."""
    tx = config.tx
    mag = np.ones_like(rf_freq_hz, dtype=float)
    devices = [*tx.amplifier_chain, tx.mzm]
    if upper_path:
        mag *= mixer_gain(rf_freq_hz, tx.mixer_bandwidth_hz)
        if tx.upper_path_amplifier is not None:
            devices.insert(0, tx.upper_path_amplifier)
    for device in devices:
        mag *= np.abs(device.response(rf_freq_hz))
    return mag


def _preemphasize(config: LinkConfig, bands: list[SampledWaveform]) -> list[SampledWaveform]:
    """Pre-emphasize the ``[lower, upper]`` AWG records, popped from
    ``bands`` so each is freed once its product is formed."""
    plan = config.plan
    # both bands share the AWG record grid
    f = bands[0].freqs()
    droop, bessel = dac_response(f, plan.awg_rate_hz, plan.awg_bandwidth_hz)
    zoh_awg = np.abs(droop) * np.abs(bessel)
    del droop, bessel
    resp_lower = zoh_awg * _tx_chain_magnitude(config, f, upper_path=False)
    resp_upper = zoh_awg * _tx_chain_magnitude(
        config, f + plan.lo_frequency_hz, upper_path=True
    )
    del f, zoh_awg
    boost = config.dsp.preemphasis_max_boost_db
    return [linear_preemphasis(bands.pop(0), resp_lower / resp_lower.max(), boost),
            linear_preemphasis(bands.pop(), resp_upper / resp_upper.max(), boost)]


def _transmit(config: LinkConfig, tx_symbols: np.ndarray) -> SampledWaveform:
    """Symbols to modulated optical field.

    Each record goes straight into the call that reads it, or in a list
    that the call empties, so no stage's input outlives its first use
    (CPython 3.11 and later hand a call's arguments to the callee's frame,
    where the stage drops them)."""
    dsp, tx, plan = config.dsp, config.tx, config.plan
    bands = _preemphasize(config, list(band_split(
        rrc_upsample(tx_symbols, SAMPLES_PER_SYMBOL, dsp.rrc_rolloff,
                     config.symbol_rate_hz),
        plan)))
    held = [stitch_bands(
        bands.pop(0), bands.pop(), plan, tx.analog_rate_hz,
        mixer_bandwidth_hz=tx.mixer_bandwidth_hz,
        dac_bandwidth_hz=plan.awg_bandwidth_hz,
        dac_resolution_bits=tx.awg_resolution_bits,
        upper_amplifier=tx.upper_path_amplifier,
    )]
    for amp in tx.amplifier_chain:
        held.append(amplify(held.pop(), amp))

    peak = np.max(np.abs(held[0].real))
    scale = tx.drive_peak_fraction_vpi * tx.mzm.v_pi_volts / peak
    return mzm_modulate(held.pop().scaled(scale), tx.laser_power_dbm, tx.mzm)


def _through_channel(config: LinkConfig, held: list[SampledWaveform],
                     seed_ase) -> SampledWaveform:
    """Field to field through fiber, amplifier and OBPF; pops the input
    field from ``held`` (see ``_receive``) and hands each stage's output
    straight to the next, so each field is freed inside the stage that
    reads it."""
    chan = config.channel
    return obpf(
        optical_amplify(propagate(held.pop(), chan.fiber, chan.wavelength_nm),
                        chan.amplifier, seed_ase),
        chan.obpf_bandwidth_hz, chan.fiber, chan.wavelength_nm, chan.obpf_cd_trim_km)


def _receive(config: LinkConfig, held: list[SampledWaveform], reference: np.ndarray,
             seed_thermal) -> tuple[np.ndarray, int]:
    """Field to equalized T-spaced symbols; returns (symbols, train_count).

    The field is popped from the one-element list ``held``: the caller
    passes the list, not the field, so no frame of the caller holds it.
    Each stage's output goes straight into the next stage, which frees it
    once it has read it, so every record dies at its last use.
    """
    rx, dsp = config.rx, config.dsp
    wave, _ = synchronize(
        resample(digitize(photodetect(held.pop(), rx.pd_bandwidth_hz,
                                      rx.pd_thermal_noise_density, seed_thermal),
                          rx.dso_rate_hz, rx.dso_bandwidth_hz, rx.dso_resolution_bits),
                 SAMPLES_PER_SYMBOL * config.symbol_rate_hz),
        reference[:PREAMBLE_SYMBOLS])
    samples = wave.real
    del wave  # the FFE needs only the samples, not the spectrum
    eq, state = ffe_train_apply(samples, reference, dsp.ffe_taps, dsp.ffe_train_fraction)
    return eq, state.training_symbols


def _train_dpd(config: LinkConfig, rngs: dict):
    """Indirect-learning pre-distorter fitted on an independent seed."""
    train_seed = int(rngs["dpd"].integers(0, 2**31 - 1))
    train_cfg = replace(config, seed=train_seed)
    sub = _spawn_rngs(train_cfg)
    symbols = _build_frame(train_cfg, sub["data_bits"], sub["sign_bits"]).levels()
    held = [_transmit(train_cfg, symbols)]
    held.append(_through_channel(train_cfg, held, sub["ase"]))
    eq, n_train = _receive(train_cfg, held, symbols, sub["thermal"])
    fit = fit_volterra(symbols[n_train:], eq, config.dsp.volterra)
    return fit.kernel


# ---------------------------------------------------------------------------
# run_link
# ---------------------------------------------------------------------------

#: glibc ``mallopt(3)`` parameters and the values ``run_link`` pins them to:
#: the largest that glibc's own dynamic mmap threshold reaches on 64-bit
#: (``DEFAULT_MMAP_THRESHOLD_MAX``), and twice that for the trim threshold,
#: as glibc's dynamic rule sets it.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds, once per process.

    A run allocates and frees about a dozen record-sized arrays (1-3 MB)
    per pass. Under glibc's dynamic thresholds the heap top freed by one
    stage is returned to the kernel and faulted back in by the next; pinned,
    the process keeps up to 64 MiB of freed heap for reuse, and arrays of
    32 MiB or more are still mmapped and returned at once. Elsewhere
    (musl, macOS, Windows) this does nothing. Results do not depend on it.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not (libc or "").startswith("glibc"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _smooth_numbers(limit: int) -> list[int]:
    """All integers in [1, limit] with no prime factor above 5."""
    out = []
    p2 = 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                out.append(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return out


def resolve_sequence_length(config: LinkConfig) -> int:
    """Symbol count a run uses: the feasible count nearest the request whose
    record lengths are FFT-friendly.

    With ``step`` the smallest feasible count, the result is ``step * k`` for
    the 5-smooth ``k`` nearest ``requested / step`` (the larger on a tie).
    Every stage record is then ``k`` times a constant that carries only the
    prime factors the rate ratios force, so no FFT in the chain falls back to
    a prime-length algorithm.

    Rates off a common grid with the symbol rate can force a minimum record
    of billions of symbols; a ``step`` above both the request and 2**16 is
    rejected with a ``ParameterError`` instead of building that record.
    """
    rates = (config.plan.awg_rate_hz, config.tx.analog_rate_hz, config.rx.dso_rate_hz)
    step = smallest_feasible_length(config.symbol_rate_hz, rates)
    requested = config.sequence_length_symbols
    if step > max(requested, 2**16):
        names = ("plan.awg_rate_hz", "tx.analog_rate_hz", "rx.dso_rate_hz")
        listed = ", ".join(f"{n}={r:.12g}" for n, r in zip(names, rates))
        raise ParameterError(f"stage rates {listed} force records of at least {step} "
                             f"symbols at {config.symbol_rate_gbd:.12g} GBd")
    # a power of two lies in [q, 2q), so the nearest 5-smooth k is below 2q + 2
    k = min(_smooth_numbers(2 * (requested // step) + 2),
            key=lambda c: (abs(c * step - requested), -c))
    return step * k


def run_link(config: LinkConfig) -> MetricsReport:
    """Execute one deterministic end-to-end run and report its metrology."""
    _pin_malloc_thresholds()
    config = replace(config, sequence_length_symbols=resolve_sequence_length(config))
    rngs = _spawn_rngs(config)

    frame = _stage("shaping", _build_frame, config, rngs["data_bits"], rngs["sign_bits"])
    symbols = frame.levels()

    tx_symbols = symbols
    if config.dsp.volterra_enabled:
        kernel = _stage("dpd_training", _train_dpd, config, rngs)
        tx_symbols = _stage("txdsp", apply_volterra, symbols, kernel)

    # the field goes from stage to stage in ``held``, which each stage
    # empties, so no stage's input outlives its first use
    held = [_stage("frontend", _transmit, config, tx_symbols)]
    del tx_symbols
    held.append(_stage("channel", _through_channel, config, held, rngs["ase"]))
    eq, n_train = _stage("rxdsp", _receive, config, held, symbols, rngs["thermal"])

    eval_frame = SymbolFrame(frame.indices[n_train:], frame.alphabet,
                             frame.distribution)
    return _stage("metrology", score_symbols, eq, eval_frame, config.rate_table(),
                  config.symbol_rate_gbd, config.seed)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    parameter: float
    report: MetricsReport | None
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    parameter_name: str
    rows: tuple[SweepRow, ...]

    def reports(self) -> list[MetricsReport]:
        return [r.report for r in self.rows if r.report is not None]


def _run_rows(base: LinkConfig, name: str, values, make_config) -> SweepResult:
    values = list(values)
    if not values:
        raise ParameterError(f"the {name} sweep needs at least one value")
    rows = []
    for i, value in enumerate(values):
        try:
            cfg = make_config(value).with_seed(base.seed + i)
            rows.append(SweepRow(float(value), run_link(cfg)))
        except Exception as exc:  # per-row failures recorded, sweep continues
            rows.append(SweepRow(float(value), None, error=str(exc)))
    rows.sort(key=lambda r: r.parameter)
    return SweepResult(name, tuple(rows))


def sweep_entropy(base: LinkConfig, entropies) -> SweepResult:
    """One run per target entropy; per-point seeds are base.seed + index,
    so duplicate entropies yield distinct-seed rows."""
    if base.modulation != "ps_pam12":
        raise ParameterError("entropy sweeps require ps_pam12 modulation")
    result = _run_rows(base, "entropy_bits", entropies,
                       lambda h: replace(base, target_entropy_bits=float(h)))
    good = [(r.parameter, r.report.achievable_bitrate_gbps)
            for r in result.rows if r.report]
    if len(good) >= 3:
        vals = [v for _, v in good]
        peak = int(np.argmax(vals))
        tol = 3.0  # Gb/s, desk-scale run-to-run spread
        rising = all(vals[i + 1] >= vals[i] - tol for i in range(peak))
        falling = all(vals[i + 1] <= vals[i] + tol for i in range(peak, len(vals) - 1))
        if not (rising and falling):
            warnings.warn(
                "achievable-bitrate curve is not unimodal/saturating across the "
                "entropy sweep", stacklevel=2,
            )
    return result


def sweep_symbol_rate(base: LinkConfig, rates_gbd) -> SweepResult:
    """One run per symbol rate; record lengths and filters re-derive per rate."""
    return _run_rows(base, "symbol_rate_gbd", rates_gbd,
                     lambda r: replace(base, symbol_rate_gbd=float(r)))


def sweep_cores(base: LinkConfig, n_cores: int) -> SweepResult:
    """One run per core of the uncoupled multicore fibre (no crosstalk).

    The cores share device models; the experiment's delay-line
    decorrelation maps to seed decorrelation, so core k + 1 runs with seed
    base.seed + k."""
    return _run_rows(base, "core", range(1, n_cores + 1), lambda k: base)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def sweep_to_csv(result: SweepResult) -> str:
    lines = [f"{result.parameter_name},{CSV_HEADER},error"]
    for row in result.rows:
        if row.report is not None:
            lines.append(f"{row.parameter:.9g},{row.report.to_csv_row()},")
        else:
            blanks = "," * len(CSV_HEADER.split(","))
            message = row.error.replace(",", ";").replace("\n", " ")
            lines.append(f"{row.parameter:.9g}{blanks},{message}")
    return "\n".join(lines) + "\n"


def _svg_plot(result: SweepResult) -> str:
    """Small deterministic SVG line/scatter plot of the sweep bitrates."""
    rows = [r for r in result.rows if r.report is not None]
    xs = [r.parameter for r in rows]
    series = {
        "achievable": [r.report.achievable_bitrate_gbps for r in rows],
        "net": [r.report.net_bitrate_gbps for r in rows],
    }
    width, height, margin = 640, 420, 60
    x0, x1 = min(xs), max(xs)
    ys_all = series["achievable"] + series["net"]
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{result.parameter_name}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">bitrate (Gb/s)</text>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11" '
        f'text-anchor="middle">{x0:.4g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" font-size="11" '
        f'text-anchor="middle">{x1:.4g}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" font-size="11" '
        f'text-anchor="end">{y0:.4g}</text>',
        f'<text x="{margin - 6}" y="{margin + 4}" font-size="11" '
        f'text-anchor="end">{y1:.4g}</text>',
    ]
    colors = {"achievable": "#1f77b4", "net": "#d62728"}
    for label, ys in series.items():
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors[label]}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" '
                         f'fill="{colors[label]}"/>')
    parts.append(f'<text x="{width - margin}" y="{margin - 10}" font-size="12" '
                 f'text-anchor="end" fill="#1f77b4">achievable</text>')
    parts.append(f'<text x="{width - margin}" y="{margin + 6}" font-size="12" '
                 f'text-anchor="end" fill="#d62728">net</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@dataclass(frozen=True)
class RunManifest:
    config: dict
    seed: int
    artifact_version: str
    rng: str
    created_utc: str
    input_digest: str
    outputs: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True, default=list)


def build_manifest(config: LinkConfig, outputs: tuple[str, ...]) -> RunManifest:
    cfg_dict = config_to_dict(config)
    canonical = json.dumps(cfg_dict, sort_keys=True) + f"|seed={config.seed}|v={__version__}"
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return RunManifest(
        config=cfg_dict,
        seed=config.seed,
        artifact_version=__version__,
        rng=f"numpy.PCG64 (numpy {np.__version__})",
        created_utc=datetime.now(timezone.utc).isoformat(),
        input_digest=digest,
        outputs=outputs,
    )


def emit_outputs(result: SweepResult, out_dir: str | Path,
                 config: LinkConfig | None = None) -> list[Path]:
    """Write sweep.csv (stable formatting), plot.svg (when there is data),
    and manifest.json; returns the written paths. The manifest names its
    outputs relative to ``out_dir``, so it reads the same wherever the
    directory lives."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    csv_path = out / "sweep.csv"
    csv_path.write_text(sweep_to_csv(result))
    written.append(csv_path)

    if result.reports():
        svg_path = out / "plot.svg"
        svg_path.write_text(_svg_plot(result))
        written.append(svg_path)

    if config is not None:
        manifest = build_manifest(config, tuple(p.name for p in written))
        man_path = out / "manifest.json"
        man_path.write_text(manifest.to_json())
        written.append(man_path)
    return written
