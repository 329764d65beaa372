"""Experiment configuration: the full link description, JSON persistence,
and the two built-in presets.

Presets encode the two experiment frequency plans: C-band runs digital cutoffs at
76 GHz, analog HPF at 75 GHz, LO at 72 GHz; O-band runs 82/82/76 GHz with an
extra 130-GHz amplifier in the upper path. Symbol rate defaults to 216 GBd
with RRC roll-off 0.01 on both.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import FiberSpec, OpticalAmpSpec
from .errors import ParameterError
from .frontend import AmplifierModel, LaserModel, MixerModel, MzmModel
from .rxdsp import RateTable
from .txdsp import BandPlan


@dataclass(frozen=True)
class DspConfig:
    rrc_rolloff: float = 0.01
    samples_per_symbol: int = 2
    rrc_span_symbols: int | None = None
    ffe_taps: int = 101
    ffe_step_size: float = 1e-3
    ffe_train_fraction: float = 0.2
    ffe_train_passes: int = 4
    preamble_symbols: int = 512
    volterra_enabled: bool = False
    volterra_memory_1: int = 31
    volterra_memory_2: int = 7
    volterra_memory_3: int = 7
    volterra_spread_2: int | None = 1
    volterra_spread_3: int | None = 1
    preemphasis_enabled: bool = True
    preemphasis_max_boost_db: float = 12.0
    ccdm_block_symbols: int = 65536

    def __post_init__(self):
        if self.samples_per_symbol != 2:
            raise ParameterError(
                "samples_per_symbol must be 2: the receiver equalizer is T/2-spaced"
            )
        if not 0.0 < self.ffe_train_fraction < 1.0:
            raise ParameterError("ffe_train_fraction must lie in (0, 1)")
        if not self.ffe_step_size > 0.0:
            raise ParameterError("ffe_step_size must be positive")
        if self.ccdm_block_symbols < 1:
            raise ParameterError("ccdm_block_symbols must be >= 1")


@dataclass(frozen=True)
class TxConfig:
    mixer: MixerModel
    mzm: MzmModel
    laser: LaserModel
    analog_rate_hz: float = 512e9
    awg_resolution_bits: int | None = None
    analog_hpf_transition_hz: float = 2e9
    upper_path_amplifier: AmplifierModel | None = None
    amplifier_chain: tuple[AmplifierModel, ...] = ()
    combiner_imbalance_db: float = 0.0
    combiner_skew_s: float = 0.0
    drive_peak_fraction_vpi: float = 0.25


@dataclass(frozen=True)
class RxConfig:
    pd_bandwidth_hz: float = 100e9
    pd_responsivity: float = 1.0
    pd_thermal_noise_density: float = 0.0
    dso_rate_hz: float = 256e9
    dso_bandwidth_hz: float = 113e9
    dso_resolution_bits: int | None = None


@dataclass(frozen=True)
class ChannelConfig:
    fiber: FiberSpec
    wavelength_nm: float
    amplifier: OpticalAmpSpec = OpticalAmpSpec()
    obpf_bandwidth_hz: float | None = None
    obpf_cd_trim_km: float = 0.0


@dataclass(frozen=True)
class LinkConfig:
    """Complete description of one end-to-end run."""

    plan: BandPlan
    tx: TxConfig
    rx: RxConfig
    channel: ChannelConfig
    band: str = "C"
    symbol_rate_gbd: float = 216.0
    modulation: str = "ps_pam12"  # ps_pam12 | uniform_pam8 | uniform_pamN
    pam_order: int = 12
    target_entropy_bits: float = 3.2
    sequence_length_symbols: int = 65536
    seed: int = 1
    rng_algorithm: str = "pcg64"  # pcg64 | mt19937
    dsp: DspConfig = DspConfig()
    rate_table_rates: tuple[float, ...] | None = None
    rate_table_thresholds: tuple[float, ...] | None = None
    rate_interpolation: bool = True
    hd_fec_overhead_deduction: bool = False

    def __post_init__(self):
        if self.band not in ("C", "O"):
            raise ParameterError("band must be 'C' or 'O'")
        if self.modulation not in ("ps_pam12", "uniform_pam8", "uniform_pamN"):
            raise ParameterError(f"unknown modulation {self.modulation!r}")
        if self.symbol_rate_gbd <= 0 or self.sequence_length_symbols < 1:
            raise ParameterError("symbol rate and sequence length must be positive")
        if self.rng_algorithm not in ("pcg64", "mt19937"):
            raise ParameterError("rng_algorithm must be pcg64 or mt19937")
        if (self.rate_table_rates is None) != (self.rate_table_thresholds is None):
            raise ParameterError("rate table needs both rates and thresholds")

    @property
    def symbol_rate_hz(self) -> float:
        return self.symbol_rate_gbd * 1e9

    def rate_table(self) -> RateTable:
        if self.rate_table_rates is None:
            return RateTable.default()
        return RateTable(np.asarray(self.rate_table_rates),
                         np.asarray(self.rate_table_thresholds))

    def with_seed(self, seed: int) -> "LinkConfig":
        return replace(self, seed=seed)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def c_band_216g(seed: int = 1) -> LinkConfig:
    """C-band PS-PAM12 over 11-km DSF: cutoffs 76/75 GHz, LO 72 GHz."""
    plan = BandPlan(76e9, 76e9, 75e9, 72e9)
    tx = TxConfig(
        mixer=MixerModel(72e9, bandwidth_hz=150e9),
        mzm=MzmModel(2.8, bandwidth_hz=110e9, bandwidth_atten_db=4.5),
        laser=LaserModel(1550.0, 20.0),
        amplifier_chain=(AmplifierModel(7.0, 130e9), AmplifierModel(16.0, 100e9)),
    )
    # DSF: zero dispersion near the carrier, ~+0.5 ps/nm/km residual at 1550
    chan = ChannelConfig(
        fiber=FiberSpec(11.0, zero_dispersion_wavelength_nm=1541.7,
                        dispersion_slope_ps_nm2_km=0.06,
                        attenuation_db_km=0.25, label="DSF-11km"),
        wavelength_nm=1550.0,
        amplifier=OpticalAmpSpec(gain_db=3.0, noise_spectral_density=3e-17,
                                 label="EDFA"),
        obpf_bandwidth_hz=300e9,
        obpf_cd_trim_km=11.0,
    )
    return LinkConfig(plan=plan, tx=tx, rx=RxConfig(), channel=chan, band="C",
                      modulation="ps_pam12", target_entropy_bits=3.2, seed=seed)


def o_band_216g(seed: int = 1) -> LinkConfig:
    """O-band uniform PAM8 over 2-km four-core fibre: 82/82 GHz, LO 76 GHz."""
    plan = BandPlan(82e9, 82e9, 82e9, 76e9)
    tx = TxConfig(
        mixer=MixerModel(76e9, bandwidth_hz=150e9),
        mzm=MzmModel(2.5, bandwidth_hz=110e9, bandwidth_atten_db=4.5),
        laser=LaserModel(1310.0, 20.0),
        upper_path_amplifier=AmplifierModel(7.0, 130e9),
        amplifier_chain=(AmplifierModel(7.0, 130e9), AmplifierModel(16.0, 100e9)),
    )
    chan = ChannelConfig(
        fiber=FiberSpec(2.0, zero_dispersion_wavelength_nm=1280.0,
                        dispersion_slope_ps_nm2_km=0.092,
                        attenuation_db_km=0.4, label="4CF-core-1"),
        wavelength_nm=1310.0,
        amplifier=OpticalAmpSpec(gain_db=3.0, noise_spectral_density=2e-17,
                                 label="PDFA"),
        obpf_bandwidth_hz=300e9,
    )
    return LinkConfig(plan=plan, tx=tx, rx=RxConfig(), channel=chan, band="O",
                      modulation="uniform_pam8", pam_order=8, seed=seed)


PRESETS = {
    "C-band-216G": c_band_216g,
    "O-band-216G": o_band_216g,
}


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


def config_to_dict(config: LinkConfig) -> dict:
    out = _jsonable(config)
    out["schema_version"] = 1
    return out


def _from_json(value, hint, key: str):
    """``value`` as the field type ``hint``, or a ``ParameterError`` naming
    ``key``. Objects and lists are built item by item; an int field takes no
    float or bool, a float field an int but no bool, a bool field only a
    bool, and ``T | None`` also null."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None:
            return None
        hint = next(h for h in typing.get_args(hint) if h is not type(None))
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, key)
    if hint is np.ndarray or typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ParameterError(f"config key {key!r} must be a list")
        item = float if hint is np.ndarray else typing.get_args(hint)[0]
        items = tuple(_from_json(v, item, f"{key}[{i}]") for i, v in enumerate(value))
        return np.asarray(items, dtype=float) if hint is np.ndarray else items
    accepted = {float: (int, float)}.get(hint, hint)
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ParameterError(f"config key {key!r} must be {hint.__name__}, got {value!r}")
    return value


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ParameterError(f"config key {path!r} must be an object")
    hints = typing.get_type_hints(cls)
    for key in data:
        if key not in hints:
            dotted = f"{path}.{key}" if path else key
            raise ParameterError(f"unknown config key {dotted!r}")
    return cls(**{name: _from_json(value, hints[name], f"{path}.{name}" if path else name)
                  for name, value in data.items()})


def config_from_dict(data: dict) -> LinkConfig:
    """Build a config from its ``config_to_dict`` form. Unknown keys, at any
    nesting level, and any ``schema_version`` other than 1 are rejected."""
    data = dict(data)
    version = data.pop("schema_version", None)
    if version != 1:
        raise ParameterError(f"unsupported config schema_version {version!r}; expected 1")
    return _build(LinkConfig, data, "")


def save_config(config: LinkConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True))


def load_config(path_or_preset: str | Path) -> LinkConfig:
    """Load a JSON config file; bare preset names resolve to built-ins."""
    name = str(path_or_preset)
    if name in PRESETS:
        return PRESETS[name]()
    p = Path(path_or_preset)
    if not p.exists():
        raise ParameterError(
            f"config {name!r} is neither a file nor one of {sorted(PRESETS)}"
        )
    return config_from_dict(json.loads(p.read_text()))
