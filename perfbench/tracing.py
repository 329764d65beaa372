"""In-memory span tracer for the benchmark's traced pass.

The tracer wraps the public functions of each ``imddsim`` layer in every
module namespace that binds them (``imddsim.harness.ccdm_encode``,
``imddsim.frontend.apply_filter``, ...) and the one-dimensional
``numpy.fft`` / ``scipy.fft`` entry points. Each call becomes a span with
name, layer, start, end, parent and pass id. Nothing under ``src/`` changes:
the wrappers are installed for the traced pass and removed afterwards.

A span's self time is its duration minus the durations of its direct
children. The benchmark opens one root span (layer ``harness``) around the
whole pass, so the self times of all layers add up to the pass wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Layer -> public functions whose calls are timed. The layer is the module
# that defines the function.
LAYER_FUNCTIONS = {
    "shaping": ("ccdm_encode", "composition_from_distribution", "nu_for_entropy",
                "maxwell_boltzmann", "pas_assemble", "uniform_frame"),
    "txdsp": ("rrc_upsample", "band_split", "linear_preemphasis", "fit_volterra",
              "apply_volterra"),
    "frontend": ("dac", "mixer_upconvert", "combine", "amplify", "mzm_modulate"),
    "channel": ("propagate", "optical_amplify", "obpf"),
    "rxdsp": ("photodetect", "digitize", "synchronize", "ffe_train_apply",
              "decide_and_ber", "llr_compute", "gmi_ngmi", "required_code_rate"),
    "sigcore": ("apply_filter", "resample", "filter_response"),
    "harness": ("run_link", "sweep_entropy", "emit_outputs"),
    "config": ("load_config", "config_from_dict"),
}

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
METROLOGY_FUNCTIONS = ("decide_and_ber", "llr_compute", "gmi_ngmi", "required_code_rate")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER_METRICS = (
    ("shaping.busy_s", "s"), ("shaping.ccdm_s", "s"), ("shaping.symbols", "symbols"),
    ("txdsp.busy_s", "s"), ("txdsp.volterra_fit_s", "s"), ("txdsp.calls", "count"),
    ("frontend.busy_s", "s"), ("frontend.calls", "count"),
    ("channel.busy_s", "s"),
    ("rxdsp.busy_s", "s"), ("rxdsp.ffe_s", "s"), ("rxdsp.ffe_updates", "count"),
    ("rxdsp.sync_s", "s"), ("rxdsp.metrology_s", "s"),
    ("sigcore.busy_s", "s"), ("sigcore.filter_calls", "count"),
    ("sigcore.resample_calls", "count"),
    ("fft.calls", "count"), ("fft.points", "points"), ("fft.non_smooth_calls", "count"),
    ("fft.busy_s", "s"),
    ("harness.self_s", "s"), ("harness.runs", "count"), ("harness.emit_s", "s"),
    ("harness.bytes_written", "B"),
    ("config.load_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    length: int | None = None  # transform length, FFT spans only


def factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def is_smooth(n: int) -> bool:
    """True when every prime factor of n is at most 5."""
    return max(factorize(n), default=1) <= 5


def _fft_length(name: str, args, kwargs) -> int:
    n = args[1] if len(args) > 1 else kwargs.get("n")
    if n is not None:
        return int(n)
    x = args[0] if args else kwargs.get("x", kwargs.get("a"))
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    m = x.shape[axis]
    return 2 * (m - 1) if name in ("irfft", "hfft") else int(m)


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.pass_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, length: int | None = None):
        s = Span(len(self.spans), name, layer, time.perf_counter(), 0.0,
                 self._stack[-1] if self._stack else None, self.pass_id, length)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _count_result(self, name: str, fn, args, kwargs, result) -> None:
        if name in ("pas_assemble", "uniform_frame"):
            self.counts["shaping.symbols"] += result.n
        elif name == "ffe_train_apply":
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            self.counts["rxdsp.ffe_updates"] += (result[1].training_symbols
                                                 * bound.arguments["train_passes"])
        elif name == "emit_outputs":
            self.counts["harness.bytes_written"] += sum(p.stat().st_size for p in result)

    def _wrap_layer(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(fn.__name__, layer):
                result = fn(*args, **kwargs)
            self._count_result(fn.__name__, fn, args, kwargs, result)
            return result
        return traced

    def _wrap_fft(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, "fft", _fft_length(name, args, kwargs)):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers in every loaded ``imddsim`` namespace and in
        ``numpy.fft``/``scipy.fft``; restore the originals on exit."""
        import numpy.fft
        import scipy.fft

        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"imddsim.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrappers[name] = (original, self._wrap_layer(original, layer))
        namespaces = [m for key, m in sys.modules.items()
                      if key == "imddsim" or key.startswith("imddsim.")]
        patched = []
        for module in namespaces:
            for name, (original, wrapper) in wrappers.items():
                if getattr(module, name, None) is original:
                    patched.append((module, name, original))
                    setattr(module, name, wrapper)
        for module in (numpy.fft, scipy.fft):
            for name in FFT_FUNCTIONS:
                original = getattr(module, name)
                patched.append((module, name, original))
                setattr(module, name, self._wrap_fft(original, name))
        try:
            yield self
        finally:
            for module, name, original in reversed(patched):
                setattr(module, name, original)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass.

    ``*.busy_s`` and ``harness.self_s`` are self times. The named breakdowns
    (``shaping.ccdm_s``, ``rxdsp.ffe_s``, ``rxdsp.sync_s``,
    ``rxdsp.metrology_s``, ``txdsp.volterra_fit_s``, ``harness.emit_s``) are
    inclusive span durations of the functions they name.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_time: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_calls: Counter = Counter()
    for s in spans:
        self_time[s.layer] += (s.end - s.start) - child_time[s.id]
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        layer_calls[s.layer] += 1
    ffts = [s for s in spans if s.layer == "fft"]
    return {
        "shaping.busy_s": self_time["shaping"],
        "shaping.ccdm_s": total["ccdm_encode"],
        "shaping.symbols": counts["shaping.symbols"],
        "txdsp.busy_s": self_time["txdsp"],
        "txdsp.volterra_fit_s": total["fit_volterra"],
        "txdsp.calls": layer_calls["txdsp"],
        "frontend.busy_s": self_time["frontend"],
        "frontend.calls": layer_calls["frontend"],
        "channel.busy_s": self_time["channel"],
        "rxdsp.busy_s": self_time["rxdsp"],
        "rxdsp.ffe_s": total["ffe_train_apply"],
        "rxdsp.ffe_updates": counts["rxdsp.ffe_updates"],
        "rxdsp.sync_s": total["synchronize"],
        "rxdsp.metrology_s": sum(total[n] for n in METROLOGY_FUNCTIONS),
        "sigcore.busy_s": self_time["sigcore"],
        "sigcore.filter_calls": calls["apply_filter"],
        "sigcore.resample_calls": calls["resample"],
        "fft.calls": len(ffts),
        "fft.points": sum(s.length for s in ffts),
        "fft.non_smooth_calls": sum(not is_smooth(s.length) for s in ffts),
        "fft.busy_s": self_time["fft"],
        "harness.self_s": self_time["harness"],
        "harness.runs": calls["run_link"],
        "harness.emit_s": total["emit_outputs"],
        "harness.bytes_written": counts["harness.bytes_written"],
        "config.load_s": self_time["config"],
    }


def fft_lengths(spans: list[Span]) -> list[dict]:
    """Distinct FFT lengths of a pass with call counts and factorisation."""
    seen = Counter(s.length for s in spans if s.layer == "fft")
    return [{"length": n, "calls": c, "smooth": is_smooth(n),
             "factors": "*".join(f"{p}^{e}" if e > 1 else str(p)
                                 for p, e in sorted(factorize(n).items()))}
            for n, c in sorted(seen.items())]
