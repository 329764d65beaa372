"""Desk-scale end-to-end simulator for band-stitched >200-GBd IMDD links.

The package walks a deterministic chain from probabilistically shaped PAM
symbols, through the digital band-split / analog-mixer bandwidth-extension
transmitter and a dispersive fiber, to direct detection and NGMI/code-rate/
net-bitrate metrology.
"""

__version__ = "0.1.0"

# numpy 2 loads these submodules on first use; importing them with the
# package keeps their cost in set-up rather than in the first run.
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .config import LinkConfig, PRESETS, c_band_216g, load_config, o_band_216g, save_config
from .harness import (
    emit_outputs,
    run_link,
    sweep_cores,
    sweep_entropy,
    sweep_symbol_rate,
)
from .rxdsp import MetricsReport, RateTable

__all__ = [
    "LinkConfig",
    "MetricsReport",
    "PRESETS",
    "RateTable",
    "c_band_216g",
    "emit_outputs",
    "load_config",
    "o_band_216g",
    "run_link",
    "save_config",
    "sweep_cores",
    "sweep_entropy",
    "sweep_symbol_rate",
    "__version__",
]
