"""End-to-end run orchestration: seeded deterministic link simulation,
parameter sweeps, and result persistence (CSV, SVG, run manifest).

A run walks shaping -> Tx DSP -> analog front end -> fiber -> receiver ->
metrology. Record lengths are snapped so every rate conversion in the chain
(AWG, analog, scope, 2 samples/symbol) lands on an integer sample count,
keeping the whole pipeline exact-rational and circular, and so every record
length is 5-smooth apart from primes the rate ratios force.
"""

from __future__ import annotations

import contextlib
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
from .frontend import transmit
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
from .sigcore import resample
from .txdsp import (
    apply_volterra,
    band_split,
    fit_volterra,
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
        # shuffled as int64, which numpy swaps 1.5x faster than int8, and
        # signed by an int64 draw, since a narrow one changes the stream;
        # each is narrowed to one byte at once, so the stage peaks at one
        # int64 record
        classes = np.repeat(np.arange(alphabet.size // 2), comp.counts)
        rng_data.shuffle(classes)
        classes = classes.astype(np.int8)
        signs = rng_signs.integers(0, 2, size=n).astype(bool)
        return pas_assemble(classes, signs, alphabet, dist)
    return uniform_frame(PamAlphabet.uniform(config.pam_order), n, rng_data)


def _link(config: LinkConfig, rngs: dict,
          kernel=None) -> tuple[SymbolFrame, np.ndarray]:
    """One pass of the chain, shaping to equalizer; returns the held-out
    frame (the symbols after the equalizer's training span) and its
    equalized symbols. With ``kernel``, a fitted ``VolterraKernel``, the
    symbols are pre-distorted before the front end.

    Each stage is a ``_stage`` block. The symbols and then each record go
    from call to call through the one-element list ``held``: every call
    reads its input as ``held.pop()``, so no name here holds a record
    through the call that frees it (CPython 3.11 and later hand a call's
    arguments to the callee's frame, where the stage drops them). Only the
    frame is held through the link; the receiver forms its reference
    symbols from it, the preamble for the sync and the whole record only
    for the FFE.
    """
    dsp, plan, chan, rx = config.dsp, config.plan, config.channel, config.rx
    with _stage("shaping"):
        frame = _build_frame(config, rngs["data_bits"], rngs["sign_bits"])
    held = [frame.levels()]
    if kernel is not None:
        with _stage("txdsp"):
            held.append(apply_volterra(held.pop(), kernel))
    with _stage("frontend"):
        bands = list(band_split(rrc_upsample(held.pop(), SAMPLES_PER_SYMBOL, dsp.rrc_rolloff,
                                             config.symbol_rate_hz), plan))
        held.append(transmit(bands.pop(0), bands.pop(), plan, config.tx,
                             dsp.preemphasis_max_boost_db))
    with _stage("channel"):
        held.append(obpf(
            optical_amplify(propagate(held.pop(), chan.fiber, chan.wavelength_nm),
                            chan.amplifier, rngs["ase"]),
            chan.obpf_bandwidth_hz, chan.fiber, chan.wavelength_nm, chan.obpf_cd_trim_km))
    with _stage("rxdsp"):
        wave, _ = synchronize(
            resample(digitize(photodetect(held.pop(), rx.pd_thermal_noise_density,
                                          rngs["thermal"]),
                              rx.dso_rate_hz, rx.dso_bandwidth_hz, rx.dso_resolution_bits,
                              rx.pd_bandwidth_hz),
                     SAMPLES_PER_SYMBOL * config.symbol_rate_hz),
            frame.alphabet.levels[frame.indices[:PREAMBLE_SYMBOLS]])
        samples = wave.real
        del wave  # the FFE needs only the samples, not the spectrum
        eq, state = ffe_train_apply(samples, frame.levels(), dsp.ffe_taps,
                                    dsp.ffe_train_fraction)
    return SymbolFrame(frame.indices[state.training_symbols:], frame.alphabet,
                       frame.distribution), eq


def _train_dpd(config: LinkConfig, rngs: dict):
    """Indirect-learning pre-distorter fitted on an independent seed: the
    training link is ``_link`` itself, and the fit reads the held-out
    symbols from its frame."""
    train_cfg = replace(config, seed=int(rngs["dpd"].integers(0, 2**31 - 1)))
    frame, eq = _link(train_cfg, _spawn_rngs(train_cfg))
    return fit_volterra(frame.levels(), eq, config.dsp.volterra).kernel


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


def _glibc():
    """The process's C library as a ``ctypes.CDLL`` when it is glibc, else
    None."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None
    return ctypes.CDLL(None) if (libc or "").startswith("glibc") else None


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
    mallopt = getattr(_glibc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise any exception of the block as ``StageError(name, cause)``.

    A stage nested in this one has already tagged its failure; this name
    replaces that tag, so every failure of the DPD-training link reads
    ``dpd_training``."""
    try:
        yield
    except StageError as exc:
        raise StageError(name, exc.cause) from exc.cause
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
    # the pre-distorter is trained before the frame is shaped, so that no
    # record of the main link is held through the training link; every
    # stream is its own seed child, so the order changes no draw
    with _stage("dpd_training"):
        kernel = _train_dpd(config, rngs) if config.dsp.volterra_enabled else None
    frame, eq = _link(config, rngs, kernel)
    with _stage("metrology"):
        return score_symbols(eq, frame, config.rate_table(), config.symbol_rate_gbd,
                             config.seed)


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
    """The sweep table: one row per sweep point, its report's columns blank
    and its error filled in where the point failed."""
    lines = [f"{result.parameter_name},{CSV_HEADER},error"]
    for row in result.rows:
        if row.report is not None:
            lines.append(f"{row.parameter:.9g},{row.report.to_csv_row()},")
        else:
            blanks = "," * len(CSV_HEADER.split(","))
            message = row.error.replace(",", ";").replace("\n", " ")
            lines.append(f"{row.parameter:.9g}{blanks},{message}")
    return "\n".join(lines) + "\n"


def _sweep_from_csv(csv_path: Path) -> SweepResult:
    """The sweep that :func:`sweep_to_csv` wrote to ``csv_path``, or a
    ``ParameterError`` naming the file unless it holds a sweep table."""
    header, _, body = csv_path.read_text().strip().partition("\n")
    rows = []
    try:
        for line in body.splitlines():
            param, rest = line.split(",", 1)
            metrics, error = rest.rsplit(",", 1)
            report = MetricsReport.from_csv_row(metrics) if metrics.strip(",") else None
            rows.append(SweepRow(float(param), report, error))
    except ValueError as exc:
        raise ParameterError(f"{csv_path} is not a sweep table: {exc}") from exc
    return SweepResult(header.split(",")[0], tuple(rows))


def rerender_plot(directory: str | Path) -> Path:
    """Redraw ``plot.svg`` from the ``sweep.csv`` in ``directory`` and return
    its path: the ``imddsim report`` command. A missing or malformed table,
    or one with no successful row, is a ``ParameterError``."""
    csv_path = Path(directory) / "sweep.csv"
    if not csv_path.exists():
        raise ParameterError(f"{csv_path} not found")
    result = _sweep_from_csv(csv_path)
    if not result.reports():
        raise ParameterError("no successful rows to plot")
    return _write_plot(result, csv_path.parent)


def _write_plot(result: SweepResult, out: Path) -> Path:
    """Write ``plot.svg`` into ``out``, a small deterministic SVG line/scatter
    plot of the bitrates of the sweep's successful rows; returns its path."""
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
    svg_path = out / "plot.svg"
    svg_path.write_text("\n".join(parts) + "\n")
    return svg_path


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
                 config: LinkConfig) -> list[Path]:
    """Write sweep.csv (stable formatting), plot.svg (when there is data),
    and manifest.json, the record of ``config``; returns the written paths.
    The manifest names its outputs relative to ``out_dir``, so it reads the
    same wherever the directory lives."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    csv_path = out / "sweep.csv"
    csv_path.write_text(sweep_to_csv(result))
    written.append(csv_path)

    if result.reports():
        written.append(_write_plot(result, out))

    manifest = build_manifest(config, tuple(p.name for p in written))
    man_path = out / "manifest.json"
    man_path.write_text(manifest.to_json())
    written.append(man_path)
    return written
