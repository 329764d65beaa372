"""Print the process's memory after each pipeline stage of two passes.

    python scripts/heap_profile.py C-band-216G
    python scripts/heap_profile.py O-band-216G --dpd
    python scripts/heap_profile.py path/to/config.json

The argument is a preset name or a JSON config file, as ``imddsim run
--config`` takes it; ``--dpd`` turns on Volterra DPD training. The script
runs ``run_link`` twice in this (fresh) process, a first and a warm pass,
with the garbage collector run before each. After each ``_stage`` block of
either pass it prints one row: the pass, the stage (a stage nested in
another, such as the DPD-training link's, as ``outer/inner``), the peak and
the current anonymous resident memory (``VmHWM`` and ``RssAnon`` of
``/proc/self/status``), and glibc's heap: the bytes its main arena holds
from the kernel and the bytes in use (``mallinfo2(3)``, read through
``ctypes``). Columns the platform does not provide read ``-``. All values
are MB (1e6 bytes). Run it from the repository root; ``src/`` is put on
the import path.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from imddsim import harness, load_config, run_link  # noqa: E402

_STATUS_FIELDS = ("VmHWM", "RssAnon")
COLUMNS = _STATUS_FIELDS + ("arena", "in_use")


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    """glibc's ``mallinfo2``, or None off glibc or before glibc 2.33."""
    call = getattr(harness._glibc(), "mallinfo2", None)
    if call is not None:
        call.argtypes = []
        call.restype = _Mallinfo2
    return call


def _status_kb() -> dict[str, int]:
    """The ``_STATUS_FIELDS`` of ``/proc/self/status`` in kB; empty off Linux."""
    try:
        lines = Path("/proc/self/status").read_text().splitlines()
    except OSError:
        return {}
    fields = dict(line.split(":", 1) for line in lines if ":" in line)
    return {name: int(fields[name].split()[0]) for name in _STATUS_FIELDS if name in fields}


def sample(mallinfo2) -> dict[str, float | None]:
    """Each of ``COLUMNS`` in MB, None where the platform has no value."""
    values = {name: kb * 1024 / 1e6 for name, kb in _status_kb().items()}
    if mallinfo2 is not None:
        info = mallinfo2()
        values.update(arena=info.arena / 1e6, in_use=info.uordblks / 1e6)
    return {name: values.get(name) for name in COLUMNS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="preset name or JSON config file")
    parser.add_argument("--dpd", action="store_true", help="train a Volterra DPD")
    args = parser.parse_args(argv)
    config = load_config(args.config)
    if args.dpd:
        config = replace(config, dsp=replace(config.dsp, volterra_enabled=True))

    mallinfo2 = _mallinfo2()
    print(f"{'pass':<6} {'stage':<22}" + "".join(f" {name:>8}" for name in COLUMNS))

    def row(pass_name: str, stage: str) -> None:
        cells = "".join(" {:>8}".format("-" if v is None else f"{v:.2f}")
                        for v in sample(mallinfo2).values())
        print(f"{pass_name:<6} {stage:<22}{cells}", flush=True)

    original, path = harness._stage, []

    @contextlib.contextmanager
    def probed(name: str):
        path.append(name)
        with original(name):
            yield
        row(current, "/".join(path))
        path.pop()

    harness._stage = probed
    try:
        for current in ("first", "warm"):
            gc.collect()
            row(current, "(start)")
            run_link(config)
    finally:
        harness._stage = original
    return 0


if __name__ == "__main__":
    sys.exit(main())
