"""Rerun the golden preset cases and compare their CSV rows with the record.

The golden file ``golden_rows.csv`` (next to this script) holds one
``MetricsReport.to_csv_row()`` line per case: C-band and O-band at seeds 7,
11, 12 and 13, plus O-band with Volterra DPD at seed 7. Each line is
prefixed with the case name.

    python scripts/golden_rows.py            # per-seed dNGMI and dnet
    python scripts/golden_rows.py --exact    # exit 1 on any byte difference
    python scripts/golden_rows.py --write    # record the current rows
    python scripts/golden_rows.py --repr     # print each full-precision report

Without ``--exact`` the script prints, for each case, the change in NGMI and
net bitrate next to the NGMI range over the golden seeds of that case (n/a
for a case with one seed), so a deliberate physics change can be read
against the seed-to-seed spread. ``--repr`` runs the cases and prints one
line per case, its name, seed and full-precision ``repr(MetricsReport)``,
and compares nothing: the CSV row rounds, so a byte-identity check between
two checkouts is one ``cmp`` of this output from each (copy the script into
the other checkout's ``scripts/`` to run it against that ``src/``).
Run it from the repository root; ``src/`` is put on the import path.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from imddsim import MetricsReport, c_band_216g, o_band_216g, run_link  # noqa: E402

GOLDEN = HERE / "golden_rows.csv"
SEEDS = (7, 11, 12, 13)


def _o_band_dpd(seed: int):
    cfg = o_band_216g(seed)
    return replace(cfg, dsp=replace(cfg.dsp, volterra_enabled=True))


CASES = (
    [("C-band-216G", c_band_216g, s) for s in SEEDS]
    + [("O-band-216G", o_band_216g, s) for s in SEEDS]
    + [("O-band-216G+dpd", _o_band_dpd, 7)]
)


def read_golden() -> dict[tuple[str, int], str]:
    rows = {}
    for line in GOLDEN.read_text().splitlines():
        case, row = line.split(",", 1)
        rows[case, MetricsReport.from_csv_row(row).seed] = row
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exit 1 if any row differs from the golden by a byte")
    mode.add_argument("--write", action="store_true",
                      help="overwrite the golden with the current rows")
    mode.add_argument("--repr", action="store_true",
                      help="print each case's full-precision report and compare nothing")
    args = parser.parse_args(argv)

    if args.repr:
        for case, build, seed in CASES:
            print(f"{case},{seed},{run_link(build(seed))!r}")
        return 0
    current = {(case, seed): run_link(build(seed)).to_csv_row()
               for case, build, seed in CASES}
    if args.write:
        GOLDEN.write_text("".join(f"{case},{row}\n" for (case, _), row in current.items()))
        print(f"wrote {len(current)} rows to {GOLDEN}")
        return 0

    golden = read_golden()
    ngmi_range = {}
    for (case, _), row in golden.items():
        ngmi_range.setdefault(case, []).append(MetricsReport.from_csv_row(row).ngmi)
    ngmi_range = {case: f"{max(v) - min(v):.4g}" if len(v) > 1 else "n/a"
                  for case, v in ngmi_range.items()}

    differ = 0
    print(f"{'case':<16} {'seed':>4} {'dNGMI':>11} {'dnet Gb/s':>11} "
          f"{'NGMI range':>10}  bytes")
    for key, new in current.items():
        case, seed = key
        old = golden.get(key)
        if old is None:
            print(f"{case:<16} {seed:>4}  not in the golden")
            differ += 1
            continue
        a, b = MetricsReport.from_csv_row(old), MetricsReport.from_csv_row(new)
        differ += new != old
        print(f"{case:<16} {seed:>4} {b.ngmi - a.ngmi:>+11.3e} "
              f"{b.net_bitrate_gbps - a.net_bitrate_gbps:>+11.3e} "
              f"{ngmi_range[case]:>10}  {'same' if new == old else 'DIFFER'}")
    print(f"{differ} of {len(CASES)} rows differ from {GOLDEN.name}")
    return 1 if args.exact and differ else 0


if __name__ == "__main__":
    sys.exit(main())
