"""The benchmark's workloads, driven through the public imddsim API.

Every workload is a function of the benchmark seed alone: the seed becomes
the link config's seed and nothing else. Functions are looked up on the
``imddsim`` package at call time, so the tracer's wrappers are seen.

- ``c_band_run``: ``run_link`` on the C-band preset (65 536 requested
  symbols). Shaping-heavy: the exact CCDM dominates the pass.
- ``o_band_dpd``: ``run_link`` on the O-band preset with Volterra DPD, the
  config built through the JSON/``load_config`` path. Uniform PAM8, so no
  CCDM work; DPD training runs the chain twice. FFT- and filter-heavy.
- ``entropy_sweep``: ``sweep_entropy`` on the C-band preset at 16 384
  requested symbols, five entropies, then ``emit_outputs``. Five short
  records, so per-run fixed costs weigh more; the only workload that writes
  files.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import imddsim
from imddsim.harness import resolve_sequence_length

ENTROPIES = (2.8, 3.0, 3.2, 3.4, 3.585)
SWEEP_SYMBOLS = 16384
O_BAND_JSON = "o_band_dpd.json"


@dataclass
class PassOutput:
    """What one pass produced: one CSV row per ``run_link`` call (``None``
    for a call that failed), the reports, and the scored record symbols."""

    rows: list
    reports: list
    symbols: int
    configs: list


def prepare(workload: str, workdir: Path, seed: int) -> None:
    """Write the workload's input files, if it has any."""
    if workload == "o_band_dpd":
        base = imddsim.o_band_216g(seed)
        cfg = replace(base, dsp=replace(base.dsp, volterra_enabled=True))
        imddsim.save_config(cfg, workdir / O_BAND_JSON)


def load(workload: str, workdir: Path, seed: int):
    """Build or load the workload's config, as a user of the API would."""
    if workload == "c_band_run":
        return imddsim.load_config("C-band-216G").with_seed(seed)
    if workload == "o_band_dpd":
        return imddsim.load_config(str(workdir / O_BAND_JSON))
    if workload == "entropy_sweep":
        cfg = imddsim.load_config("C-band-216G").with_seed(seed)
        return replace(cfg, sequence_length_symbols=SWEEP_SYMBOLS)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, workdir: Path, seed: int) -> PassOutput:
    """One closed-loop pass: load the config, run it, emit sweep outputs."""
    cfg = load(workload, workdir, seed)
    if workload != "entropy_sweep":
        report = imddsim.run_link(cfg)
        return PassOutput([report.to_csv_row()], [report],
                          resolve_sequence_length(cfg), [cfg])
    result = imddsim.sweep_entropy(cfg, ENTROPIES)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        imddsim.emit_outputs(result, tmp, cfg)
        csv_lines = (Path(tmp) / "sweep.csv").read_text().splitlines()[1:]
    row_configs = [replace(cfg, target_entropy_bits=h).with_seed(cfg.seed + i)
                   for i, h in enumerate(ENTROPIES)]
    rows = [line if r.report is not None else None
            for line, r in zip(csv_lines, result.rows)]
    reports = [r.report for r in result.rows]
    symbols = sum(resolve_sequence_length(c)
                  for c, r in zip(row_configs, reports) if r is not None)
    return PassOutput(rows, reports, symbols, row_configs)


def calls_per_pass(workload: str) -> int:
    return len(ENTROPIES) if workload == "entropy_sweep" else 1


def report_ok(report, cfg) -> bool:
    """``MetricsReport`` invariants, checked again where we measure."""
    values = (report.ber, report.gmi_bits, report.ngmi, report.required_code_rate,
              report.achievable_bitrate_gbps, report.net_bitrate_gbps)
    return (all(math.isfinite(v) for v in values)
            and 0.0 <= report.ber <= 1.0
            and 0.0 <= report.ngmi <= 1.0
            and 0.0 <= report.net_bitrate_gbps <= report.achievable_bitrate_gbps + 1e-9
            and report.seed == cfg.seed
            and math.isclose(report.symbol_rate_gbd, cfg.symbol_rate_gbd))


def failed_calls(out: PassOutput | None, reference: list, workload: str) -> int:
    """Calls of a pass that raised, reported an error, broke an invariant,
    or gave a CSV row that differs from the reference pass."""
    if out is None:
        return calls_per_pass(workload)
    failed = 0
    for row, report, cfg, ref in zip(out.rows, out.reports, out.configs, reference):
        if row is None or report is None or row != ref or not report_ok(report, cfg):
            failed += 1
    return failed + abs(len(out.rows) - len(reference))
