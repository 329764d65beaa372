"""Command-line interface.

Subcommands: ``run``, ``sweep-entropy``, ``sweep-baud``, ``cores``, and
``report``. ``--config`` takes a JSON file path or a preset name
(C-band-216G, O-band-216G). Exit code 0 on success; failures print a
stage-tagged diagnostic and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import PRESETS, load_config
from .errors import ParameterError, StageError
from .harness import (
    build_manifest,
    emit_outputs,
    rerender_plot,
    run_link,
    sweep_cores,
    sweep_entropy,
    sweep_symbol_rate,
)
from .rxdsp import CSV_HEADER


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True,
                   help=f"JSON config path or preset name {sorted(PRESETS)}")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imddsim",
        description="Deterministic >200-GBd band-stitched IMDD link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("run", help="single end-to-end run"))

    p = sub.add_parser("sweep-entropy", help="PS-PAM12 entropy sweep")
    _add_common(p)
    p.add_argument("--entropies", required=True, type=_float_list,
                   help="comma-separated entropy targets in bits/symbol")

    p = sub.add_parser("sweep-baud", help="symbol-rate sweep")
    _add_common(p)
    p.add_argument("--rates", required=True, type=_float_list,
                   help="comma-separated symbol rates in GBd")

    p = sub.add_parser("cores", help="multicore-fibre batch")
    _add_common(p)
    p.add_argument("--n", type=int, default=4, help="number of cores")

    p = sub.add_parser("report", help="re-render plots from an existing sweep.csv")
    p.add_argument("directory", help="directory holding sweep.csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "report":
        try:
            svg_path = rerender_plot(args.directory)
        except (ParameterError, OSError) as exc:
            print(f"error [report]: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {svg_path}")
        return 0

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)

        if args.command == "run":
            report = run_link(config)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "run.csv").write_text(
                CSV_HEADER + "\n" + report.to_csv_row() + "\n"
            )
            manifest = build_manifest(config, ("run.csv",))
            (out / "manifest.json").write_text(manifest.to_json())
            print(
                f"NGMI={report.ngmi:.4f} BER={report.ber:.3e} "
                f"R={report.required_code_rate:.4f} "
                f"achievable={report.achievable_bitrate_gbps:.1f} Gb/s "
                f"net={report.net_bitrate_gbps:.1f} Gb/s"
            )
        elif args.command == "sweep-entropy":
            result = sweep_entropy(config, args.entropies)
            emit_outputs(result, args.out, config)
        elif args.command == "sweep-baud":
            result = sweep_symbol_rate(config, args.rates)
            emit_outputs(result, args.out, config)
        else:  # cores
            result = sweep_cores(config, args.n)
            emit_outputs(result, args.out, config)

        if args.command != "run":
            failed = [r for r in result.rows if r.report is None]
            for row in failed:
                print(f"row {row.parameter:g} failed: {row.error}", file=sys.stderr)
            print(f"wrote {Path(args.out) / 'sweep.csv'}")
            if len(failed) == len(result.rows):
                return 1
        return 0
    except StageError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return 1
    except Exception as exc:  # configuration and I/O problems
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
