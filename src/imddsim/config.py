"""Experiment configuration: the full link description, JSON persistence,
and the two built-in presets.

Each field is one decision a run can vary, checked where it is built: a
bad value raises a ``ParameterError`` naming its dotted key (``dsp.ffe_taps``)
before any stage runs. Every float must also be finite, which ``LinkConfig``
checks once over the whole tree, and the signal band must fit the band
plan's reconstructible range (LO plus AWG bandwidth). What the chain fixes
is no field: PCG64 streams, ``rxdsp``'s samples per symbol and sync
preamble, an untruncated RRC pulse, interpolated code-rate lookup, the
mixer LO (the band plan's), ``frontend``'s analog HPF transition, a
balanced and aligned combiner, the quadrature MZM bias, a lossless
modulator (``tx.laser_power_dbm`` sets the optical level), a photodiode
of unit responsivity (its thermal density sets the SNR), and the device
roll-off orders (Bessel orders and the mixer's second-order roll-off).

Presets encode the two experiment frequency plans: C-band crosses over at
76 GHz with the analog HPF at 75 GHz and the LO at 72 GHz; O-band runs
82/82/76 GHz with an extra 130-GHz amplifier in the upper path. Symbol rate
defaults to 216 GBd with RRC roll-off 0.01 on both.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import FiberSpec, OpticalAmpSpec
from .errors import ParameterError
from .frontend import AmplifierModel, MzmModel
from .rxdsp import RateTable
from .shaping import PamAlphabet, check_entropy_target
from .txdsp import BandPlan, VolterraStructure

#: Version of the ``config_to_dict`` layout; files of any other version are
#: rejected rather than read with a guessed meaning.
SCHEMA_VERSION = 7
MODULATIONS = ("ps_pam12", "uniform_pamN")


def _check(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise ParameterError(message, key)


def _check_positive(obj, *keys: str) -> None:
    for key in keys:
        _check(getattr(obj, key) > 0, key, "must be positive")


def _check_finite(obj, path: str = "") -> None:
    """Every float in ``obj``, at any depth of dataclasses and tuples, is
    finite; JSON's ``Infinity`` and ``NaN`` stop here, named by dotted key."""
    if isinstance(obj, float):
        _check(math.isfinite(obj), path, "must be finite")
    elif isinstance(obj, tuple):
        for i, value in enumerate(obj):
            _check_finite(value, f"{path}[{i}]")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _check_finite(getattr(obj, f.name), f"{path}.{f.name}" if path else f.name)


def _check_bits(obj, key: str) -> None:
    bits = getattr(obj, key)
    _check(bits is None or bits >= 1, key, "must be >= 1 (or None for no quantizer)")


@dataclass(frozen=True)
class DspConfig:
    rrc_rolloff: float = 0.01
    ffe_taps: int = 101
    ffe_train_fraction: float = 0.2
    volterra_enabled: bool = False
    volterra: VolterraStructure = VolterraStructure()
    preemphasis_max_boost_db: float = 12.0  # 0 dB turns pre-emphasis off

    def __post_init__(self):
        _check(0.0 <= self.rrc_rolloff <= 1.0, "rrc_rolloff", "must lie in [0, 1]")
        _check(self.ffe_taps >= 1 and self.ffe_taps % 2 == 1, "ffe_taps",
               "must be odd (centered equalizer)")
        _check(0.0 < self.ffe_train_fraction < 1.0, "ffe_train_fraction",
               "must lie in (0, 1)")
        _check(self.preemphasis_max_boost_db >= 0, "preemphasis_max_boost_db",
               "must be >= 0 dB")


@dataclass(frozen=True)
class TxConfig:
    mzm: MzmModel
    laser_power_dbm: float = 20.0
    mixer_bandwidth_hz: float = 150e9
    analog_rate_hz: float = 512e9
    awg_resolution_bits: int | None = None
    upper_path_amplifier: AmplifierModel | None = None
    amplifier_chain: tuple[AmplifierModel, ...] = ()
    drive_peak_fraction_vpi: float = 0.25

    def __post_init__(self):
        _check_positive(self, "mixer_bandwidth_hz", "analog_rate_hz",
                        "drive_peak_fraction_vpi")
        _check_bits(self, "awg_resolution_bits")


@dataclass(frozen=True)
class RxConfig:
    pd_bandwidth_hz: float = 100e9
    pd_thermal_noise_density: float = 0.0
    dso_rate_hz: float = 256e9
    dso_bandwidth_hz: float = 113e9
    dso_resolution_bits: int | None = None

    def __post_init__(self):
        _check_positive(self, "pd_bandwidth_hz", "dso_rate_hz", "dso_bandwidth_hz")
        _check(self.pd_thermal_noise_density >= 0, "pd_thermal_noise_density",
               "must be >= 0")
        _check_bits(self, "dso_resolution_bits")


@dataclass(frozen=True)
class ChannelConfig:
    fiber: FiberSpec
    wavelength_nm: float
    amplifier: OpticalAmpSpec = OpticalAmpSpec()
    obpf_bandwidth_hz: float | None = None
    obpf_cd_trim_km: float = 0.0

    def __post_init__(self):
        _check_positive(self, "wavelength_nm")
        _check(self.obpf_bandwidth_hz is None or self.obpf_bandwidth_hz > 0,
               "obpf_bandwidth_hz", "must be positive (or None for no OBPF)")
        _check(self.obpf_cd_trim_km >= 0, "obpf_cd_trim_km", "must be >= 0 km")


@dataclass(frozen=True)
class LinkConfig:
    """Complete description of one end-to-end run. Every float in it, at
    any depth, must be finite."""

    plan: BandPlan
    tx: TxConfig
    rx: RxConfig
    channel: ChannelConfig
    symbol_rate_gbd: float = 216.0
    modulation: str = "ps_pam12"  # one of MODULATIONS
    pam_order: int = 12
    target_entropy_bits: float = 3.2
    sequence_length_symbols: int = 65536
    seed: int = 1
    dsp: DspConfig = DspConfig()
    rate_table_rates: tuple[float, ...] | None = None
    rate_table_thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_finite(self)
        _check(self.modulation in MODULATIONS, "modulation",
               f"must be one of {MODULATIONS}, got {self.modulation!r}")
        if self.modulation == "ps_pam12":
            _check(self.pam_order == 12, "pam_order", "must be 12 for ps_pam12")
            check_entropy_target(self.target_entropy_bits, PamAlphabet.pam12(),
                                 key="target_entropy_bits")
        _check(self.pam_order >= 2, "pam_order", "must be >= 2")
        _check_positive(self, "symbol_rate_gbd", "sequence_length_symbols")
        _check(self.seed >= 0, "seed", "must be >= 0")
        _check((self.rate_table_rates is None) == (self.rate_table_thresholds is None),
               "rate_table_thresholds", "and rate_table_rates must be set together")
        _check(self.tx.analog_rate_hz >= self.plan.awg_rate_hz, "tx.analog_rate_hz",
               "must be >= plan.awg_rate_hz (the AWG output is upsampled)")
        top = (1 + self.dsp.rrc_rolloff) * self.symbol_rate_hz / 2
        band = self.plan.lo_frequency_hz + self.plan.awg_bandwidth_hz
        _check(top <= band, "symbol_rate_gbd",
               f"puts the signal edge at {top / 1e9:.1f} GHz, which exceeds the "
               f"reconstructible band (LO + AWG bandwidth = {band / 1e9:.1f} GHz)")

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
    """C-band PS-PAM12 over 11-km DSF: crossover 76 GHz, analog HPF 75 GHz,
    LO 72 GHz."""
    plan = BandPlan(76e9, 75e9, 72e9)
    tx = TxConfig(
        mzm=MzmModel(2.8, bandwidth_hz=110e9, bandwidth_atten_db=4.5),
        amplifier_chain=(AmplifierModel(7.0, 130e9), AmplifierModel(16.0, 100e9)),
    )
    # DSF: zero dispersion near the carrier, ~+0.5 ps/nm/km residual at 1550
    chan = ChannelConfig(
        fiber=FiberSpec(11.0, zero_dispersion_wavelength_nm=1541.7,
                        dispersion_slope_ps_nm2_km=0.06,
                        attenuation_db_km=0.25),
        wavelength_nm=1550.0,
        amplifier=OpticalAmpSpec(gain_db=3.0, noise_spectral_density=3e-17),
        obpf_bandwidth_hz=300e9,
        obpf_cd_trim_km=11.0,
    )
    return LinkConfig(plan=plan, tx=tx, rx=RxConfig(), channel=chan,
                      modulation="ps_pam12", target_entropy_bits=3.2, seed=seed)


def o_band_216g(seed: int = 1) -> LinkConfig:
    """O-band uniform PAM8 over 2-km four-core fibre: crossover and analog
    HPF 82 GHz, LO 76 GHz."""
    plan = BandPlan(82e9, 82e9, 76e9)
    tx = TxConfig(
        mzm=MzmModel(2.5, bandwidth_hz=110e9, bandwidth_atten_db=4.5),
        upper_path_amplifier=AmplifierModel(7.0, 130e9),
        amplifier_chain=(AmplifierModel(7.0, 130e9), AmplifierModel(16.0, 100e9)),
    )
    chan = ChannelConfig(
        fiber=FiberSpec(2.0, zero_dispersion_wavelength_nm=1280.0,
                        dispersion_slope_ps_nm2_km=0.092,
                        attenuation_db_km=0.4),
        wavelength_nm=1310.0,
        amplifier=OpticalAmpSpec(gain_db=3.0, noise_spectral_density=2e-17),
        obpf_bandwidth_hz=300e9,
    )
    return LinkConfig(plan=plan, tx=tx, rx=RxConfig(), channel=chan,
                      modulation="uniform_pamN", pam_order=8, seed=seed)


PRESETS = {
    "C-band-216G": c_band_216g,
    "O-band-216G": o_band_216g,
}


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

def _jsonable(value):
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
    out["schema_version"] = SCHEMA_VERSION
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
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ParameterError(f"config key {key!r} must be a list")
        item = typing.get_args(hint)[0]
        return tuple(_from_json(v, item, f"{key}[{i}]") for i, v in enumerate(value))
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
    values = {name: _from_json(value, hints[name], f"{path}.{name}" if path else name)
              for name, value in data.items()}
    try:
        return cls(**values)
    except ParameterError as exc:
        if not path:
            raise
        # the object's own check: name the field by its path in the config
        dotted = f"{path}.{exc.key}" if exc.key else path
        raise ParameterError(exc.reason, dotted) from exc


def config_from_dict(data: dict) -> LinkConfig:
    """Build a config from its ``config_to_dict`` form. Unknown keys, at any
    nesting level, and any ``schema_version`` other than ``SCHEMA_VERSION``
    are rejected (README lists the keys versions 2 to 7 removed or merged)."""
    data = dict(data)
    version = data.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ParameterError(f"unsupported config schema_version {version!r}; "
                             f"expected {SCHEMA_VERSION}")
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
