"""imddsim benchmark: three closed-loop workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload c_band_run --seed 7 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --trace both

``--trace 0`` reports the end-to-end metrics from untraced passes; ``--trace
1`` reports the per-layer metrics of one traced pass (see ``tracing.py``).
Each workload runs one pass at a time in one process, with BLAS/OpenMP
threads capped at the number of usable cores. With ``--trace 0`` the timed
processes (set-up, a cold first pass, then warm passes for an equal share of
``--seconds``; see ``TIMED_PROCESSES``) run in turn, with a set-up-only
process before, between and after them. Every pass's CSV rows must equal
those of the first process's first pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is
nonzero when any call failed or any output differed. Raw samples, the
environment and (traced) the spans go to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import workdir_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("c_band_run", "o_band_dpd", "entropy_sweep")
TIME_LIMIT_S = 170.0
# With --trace 0: processes that each set up, run a first pass and warm
# passes; set-up-only processes run before, between and after them. Three
# where the cold pass is bimodal or short; two for the long, unimodal
# c_band_run pass, to keep its runs under a minute.
TIMED_PROCESSES = {"c_band_run": 2, "o_band_dpd": 3, "entropy_sweep": 3}

# (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("wall_s", "s"), ("first_pass_s", "s"), ("setup_s", "s"),
    ("symbols_per_s", "symbols/s"), ("peak_rss_mb", "MB"), ("ngmi", "1"),
    ("net_bitrate_gbps", "Gb/s"), ("success_rate", "1"),
)


class BenchError(RuntimeError):
    pass


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "imddsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


class Runner:
    """Starts worker processes for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.workdir = workdir_for(workload, seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, OMP_NUM_THREADS=threads,
                        OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def worker(self, mode: str, seconds: float = 0.0, trace: int = 0) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--seconds", str(seconds),
               "--trace", str(trace)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before all processes ran")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the time limit") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} process exited with status {proc.returncode}")
        return json.loads(lines[-1])


def mismatched_rows(rows: list, reference: list) -> int:
    return sum(a != b for a, b in zip(rows, reference)) + abs(len(rows) - len(reference))


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # The machine's speed drifts over seconds, so the samples of each metric
    # are spread over the run: the warm passes are split over the timed
    # processes, and set-up is timed in every process, set-up-only ones
    # before, between and after the timed ones.
    processes = TIMED_PROCESSES[runner.workload]
    setups, timed = [runner.worker("setup")], []
    for _ in range(processes):
        timed.append(runner.worker("timed", seconds / processes))
        setups.append(runner.worker("setup"))
    warm = [w for t in timed for w in t["warm_s"]]
    wall = statistics.median(warm)
    first = timed[0]
    attempted = sum(t["attempted"] for t in timed)
    failed = sum(t["failed"] + mismatched_rows(t["reference"], first["reference"])
                 for t in timed)
    metrics = {
        "wall_s": wall,
        # A mean, not a median: the cold pass is bimodal (the first lstsq
        # call sometimes costs ~1 s more), and a median of a few samples
        # flips between the modes from run to run.
        "first_pass_s": statistics.fmean(t["first_pass_s"] for t in timed),
        "setup_s": statistics.median(w["setup_s"] for w in setups + timed),
        "symbols_per_s": first["symbols"] / wall,
        "peak_rss_mb": max(t["peak_rss_mb"] for t in timed),
        "ngmi": first["ngmi"],
        "net_bitrate_gbps": first["net_bitrate_gbps"],
        "success_rate": 1.0 - failed / attempted,
    }
    record = {"attempted": attempted, "failed": failed, "env": first["env"],
              "samples": {"timed": timed, "setup": setups}}
    return metrics, record


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    timed = runner.worker("timed", seconds, trace=1)
    record = {"attempted": timed["attempted"], "failed": timed["failed"],
              "env": timed["env"], "fft_lengths": timed["fft_lengths"],
              "samples": {"timed": timed}}
    return timed["per_layer"], record


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in one trace mode; returns the result object."""
    runner = Runner(workload, seed, time.monotonic() + TIME_LIMIT_S)
    metrics, record = (per_layer if trace else end_to_end)(runner, seconds)
    record["env"].update(commit=git_commit(), source_sha256=source_digest(),
                         workload=workload, seconds=seconds, trace=trace)
    (runner.workdir / f"result-trace{trace}.json").write_text(
        json.dumps(dict(record, metrics=metrics), indent=1))
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics, "env": record["env"],
            "fft_lengths": record.get("fft_lengths", [])}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--trace", default="0", choices=("0", "1", "both"))
    args = p.parse_args()

    if not (ROOT / "src" / "imddsim" / "__init__.py").is_file():
        print(f"error: no imddsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from tracing import PER_LAYER_METRICS

    units = dict(END_TO_END + PER_LAYER_METRICS)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            for trace in traces:
                res = run_one(name, args.seed, args.seconds, trace)
                print(f"# {name} trace={trace} env={json.dumps(res['env'], sort_keys=True)}")
                for metric, value in res["metrics"].items():
                    print(f"{name:14s} {metric:24s} {value:16.6f} {units[metric]}")
                for f in res["fft_lengths"]:
                    print(f"# {name} fft length {f['length']} = {f['factors']}: "
                          f"{f['calls']} calls")
                prefix = f"{name}/" if args.workload == "all" else ""
                total["metrics"].update({prefix + m: {"value": v, "unit": units[m]}
                                         for m, v in res["metrics"].items()})
                total["correct"] &= res["correct"]
                total["attempted"] += res["attempted"]
                total["failed"] += res["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
