"""Rerun the golden preset cases and compare their CSV rows with the record.

The golden file ``golden_rows.csv`` (next to this script) holds one
``MetricsReport.to_csv_row()`` line per case: C-band and O-band at seeds 7,
11, 12 and 13, plus O-band with Volterra DPD at seed 7. Each line is
prefixed with the case name.

    python scripts/golden_rows.py            # per-seed dNGMI and dnet
    python scripts/golden_rows.py --exact    # exit 1 on any byte difference
    python scripts/golden_rows.py --write    # record the current rows
    python scripts/golden_rows.py --repr     # print each full-precision report
    python scripts/golden_rows.py --repr --against REV  # compare with git REV

Without ``--exact`` the script prints, for each case, the change in NGMI and
net bitrate next to the NGMI range over the golden seeds of that case (n/a
for a case with one seed), so a deliberate physics change can be read
against the seed-to-seed spread. ``--repr`` runs the cases and prints one
line per case, its name, seed and full-precision ``repr(MetricsReport)``,
and compares nothing: the CSV row rounds. ``--against REV`` makes it the
byte-identity check of a change: it exports ``src/imddsim`` at the git
revision REV with ``git archive`` into a temporary directory, runs the cases
on that tree and on this one, each in a subprocess on one OpenBLAS thread,
and prints per case ``same`` or each changed field as old -> new; it exits
1 unless every case is the same.
Run it from the repository root; ``src/`` is put on the import path.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
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


def repr_lines(script: Path) -> dict[str, str]:
    """The reports ``script --repr`` prints, keyed by case name and seed, run
    in a subprocess on one OpenBLAS thread; the script imports the library
    from the ``src/`` beside its own directory."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(script), "--repr"], check=True,
                         capture_output=True, text=True, env=env).stdout
    lines = {}
    for line in out.splitlines():
        case, seed, report = line.split(",", 2)
        lines[f"{case} {seed}"] = report
    return lines


#: A ``name=value`` field of a ``MetricsReport`` repr.
_FIELD = re.compile(r"(\w+)=([^,)]+)")


def _change(name: str, old: str | None, new: str | None) -> str:
    """``name old -> new``, with the difference when both are numbers."""
    try:
        delta = f" ({float(new) - float(old):+.2g})"
    except (TypeError, ValueError):
        delta = ""
    return f"{name} {old} -> {new}{delta}"


def compare_against(rev: str) -> int:
    """Run the cases on ``src/imddsim`` at git revision ``rev`` and on this
    tree, print per case ``same`` or each changed field as old -> new, and
    return the number of cases that differ."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src/imddsim"],
                             cwd=HERE.parent, check=True, stdout=subprocess.PIPE).stdout
    with tempfile.TemporaryDirectory(prefix="golden-rows-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        script = Path(tmp) / "scripts" / Path(__file__).name
        script.parent.mkdir()
        shutil.copyfile(__file__, script)  # this script's cases, on that tree
        old = repr_lines(script)
    new = repr_lines(Path(__file__).resolve())
    differ = 0
    for key, report in new.items():
        if old[key] == report:
            print(f"{key:<20} same")
            continue
        differ += 1
        a, b = (dict(_FIELD.findall(x)) for x in (old[key], report))
        print(f"{key:<20} " + "; ".join(_change(name, a.get(name), b.get(name))
                                         for name in {**a, **b} if a.get(name) != b.get(name)))
    print(f"{differ} of {len(new)} cases differ from {rev}")
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exit 1 if any row differs from the golden by a byte")
    mode.add_argument("--write", action="store_true",
                      help="overwrite the golden with the current rows")
    mode.add_argument("--repr", action="store_true",
                      help="print each case's full-precision report and compare nothing")
    parser.add_argument("--against", metavar="REV",
                        help="with --repr: compare the reports with those of git REV "
                             "and exit 1 unless every case is the same")
    args = parser.parse_args(argv)

    if args.against:
        if not args.repr:
            parser.error("--against needs --repr")
        return 1 if compare_against(args.against) else 0
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
