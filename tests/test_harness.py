import itertools
import json
import os
import platform
import re
import subprocess
import sys
import traceback
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TRANSPARENT_SEEDS, fast_link_config, traced_peak, transparency_failures
import imddsim
from imddsim import channel, frontend, harness, rxdsp, sigcore, txdsp
from imddsim.channel import FiberSpec, OpticalAmpSpec
from imddsim.config import (
    PRESETS,
    ChannelConfig,
    DspConfig,
    LinkConfig,
    TxConfig,
    c_band_216g,
    config_from_dict,
    config_to_dict,
    load_config,
    o_band_216g,
    save_config,
)
from imddsim.errors import ParameterError, StageError
from imddsim.harness import (
    SweepResult,
    SweepRow,
    build_manifest,
    emit_outputs,
    resolve_sequence_length,
    run_link,
    smallest_feasible_length,
    sweep_cores,
    sweep_entropy,
    sweep_symbol_rate,
    sweep_to_csv,
)
from imddsim.frontend import AmplifierModel, MzmModel
from imddsim.sigcore import SampledWaveform
from imddsim.txdsp import VolterraKernel, VolterraStructure

#: The stages that transform the optical field.
OPTICAL_TRANSFORM_STAGES = ("mzm_modulate", "propagate", "optical_amplify", "obpf",
                            "photodetect")


class TestPresets:
    def test_c_band_frequency_plan(self):
        cfg = c_band_216g()
        assert cfg.plan.crossover_hz == 76e9
        assert cfg.plan.analog_hpf_cutoff_hz == 75e9
        assert cfg.plan.lo_frequency_hz == 72e9
        assert cfg.plan.awg_rate_hz == 256e9
        assert cfg.plan.awg_bandwidth_hz == 80e9
        assert cfg.tx.mzm.v_pi_volts == 2.8
        assert cfg.symbol_rate_gbd == 216.0

    def test_o_band_frequency_plan(self):
        cfg = o_band_216g()
        assert cfg.plan.crossover_hz == 82e9
        assert cfg.plan.analog_hpf_cutoff_hz == 82e9
        assert cfg.plan.lo_frequency_hz == 76e9
        assert cfg.tx.mzm.v_pi_volts == 2.5
        assert (cfg.modulation, cfg.pam_order) == ("uniform_pamN", 8)
        assert cfg.tx.upper_path_amplifier is not None

    @pytest.mark.parametrize("make", [c_band_216g, o_band_216g])
    def test_json_round_trip(self, tmp_path, make):
        cfg = make(seed=9)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert config_to_dict(loaded) == config_to_dict(cfg)

    def test_load_by_preset_name(self):
        for name in PRESETS:
            assert load_config(name).symbol_rate_gbd == 216.0

    def test_unknown_config_rejected(self):
        with pytest.raises(ParameterError):
            load_config("no-such-preset")


class TestDspConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("ffe_train_fraction", 0.0),
        ("ffe_train_fraction", 1.0),
        ("ffe_train_fraction", 1.5),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            DspConfig(**{field: value})

    def test_rejected_when_loaded_from_json(self, tmp_path):
        data = config_to_dict(c_band_216g())
        data["dsp"]["ffe_train_fraction"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError, match="ffe_train_fraction"):
            load_config(path)


def _dict_nodes(node, path=""):
    """Every object in a config_to_dict tree, with its dotted key path."""
    yield path, node
    for key, value in node.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _dict_nodes(value, sub)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from _dict_nodes(item, f"{sub}[{i}]")


# (object path, field or fields) -> values; every combination builds a valid
# config. The pam_order of ps_pam12 is fixed, so an order comes with its
# uniform modulation.
_OVERRIDES = {
    ((), "seed"): st.integers(0, 2**31 - 1),
    ((), "symbol_rate_gbd"): st.floats(150.0, 260.0),
    ((), "sequence_length_symbols"): st.integers(1, 10**6),
    ((), ("modulation", "pam_order")): st.tuples(st.just("uniform_pamN"),
                                                 st.integers(2, 16)),
    (("plan",), "crossover_hz"): st.floats(77e9, 150e9),
    (("dsp",), "ffe_taps"): st.integers(0, 99).map(lambda t: 2 * t + 1),
    (("dsp",), "preemphasis_max_boost_db"): st.floats(0.0, 30.0),
    (("dsp", "volterra"), "memory_1"): st.integers(0, 20).map(lambda t: 2 * t + 1),
    (("dsp", "volterra"), "max_spread_2"): st.none() | st.integers(0, 5),
    (("tx",), "drive_peak_fraction_vpi"): st.floats(0.01, 1.0),
    (("tx",), "awg_resolution_bits"): st.none() | st.integers(4, 12),
    (("tx",), "mixer_bandwidth_hz"): st.floats(50e9, 1e15),
    (("tx",), "laser_power_dbm"): st.floats(-10.0, 30.0),
    (("tx", "mzm"), "v_pi_volts"): st.floats(1.0, 5.0),
    # above about 3 080 dB the modulator has no finite cutoff and is rejected
    (("tx", "mzm"), "bandwidth_atten_db"): st.floats(0.0, 3000.0, exclude_min=True),
    (("tx", "amplifier_chain", 0), "gain_db"): st.floats(-10.0, 30.0),
    (("tx", "amplifier_chain", 1), "compression_in_1db"): st.none() | st.floats(0.01, 2.0),
    (("rx",), "dso_resolution_bits"): st.none() | st.integers(4, 12),
    (("channel",), "obpf_bandwidth_hz"): st.none() | st.floats(50e9, 500e9),
    (("channel", "fiber"), "length_km"): st.floats(0.0, 100.0),
}


# Per schema version: (object path, key, value, what the error names) for
# a file of that version, and for a current file holding a key that the
# next version removed or merged.
_OLD_SCHEMA_KEYS = {
    1: [((), "schema_version", 1, "schema_version 1"),
        ((), "band", "C", "'band'"),
        (("plan",), "digital_hpf_cutoff_hz", 76e9, "'plan.digital_hpf_cutoff_hz'"),
        (("dsp",), "samples_per_symbol", 2, "'dsp.samples_per_symbol'")],
    2: [((), "schema_version", 2, "schema_version 2"),
        (("tx",), "mixer", {"lo_frequency_hz": 72e9, "bandwidth_hz": 150e9},
         "'tx.mixer'"),
        (("tx",), "laser", {"wavelength_nm": 1550.0, "power_dbm": 20.0}, "'tx.laser'"),
        (("tx", "mzm"), "bias_voltage", None, "'tx.mzm.bias_voltage'"),
        (("tx", "mzm"), "insertion_loss_db", 0.0, "'tx.mzm.insertion_loss_db'"),
        (("tx", "amplifier_chain", 0), "bandwidth_order", 4,
         "'tx.amplifier_chain[0].bandwidth_order'"),
        (("dsp",), "ccdm_block_symbols", 65536, "'dsp.ccdm_block_symbols'")],
    3: [((), "schema_version", 3, "schema_version 3"),
        (("channel", "fiber"), "label", "DSF-11km", "'channel.fiber.label'"),
        (("channel", "amplifier"), "label", "EDFA", "'channel.amplifier.label'")],
    4: [((), "schema_version", 4, "schema_version 4"),
        (("dsp",), "ffe_step_size", 1e-3, "'dsp.ffe_step_size'"),
        (("dsp",), "ffe_train_passes", 4, "'dsp.ffe_train_passes'")],
    5: [((), "schema_version", 5, "schema_version 5"),
        (("dsp",), "preemphasis_enabled", True, "'dsp.preemphasis_enabled'")],
    6: [((), "schema_version", 6, "schema_version 6"),
        (("tx",), "combiner_imbalance_db", 0.0, "'tx.combiner_imbalance_db'"),
        (("tx",), "combiner_skew_s", 0.0, "'tx.combiner_skew_s'"),
        (("tx",), "analog_hpf_transition_hz", 2e9, "'tx.analog_hpf_transition_hz'"),
        (("rx",), "pd_responsivity", 1.0, "'rx.pd_responsivity'"),
        (("dsp",), "preamble_symbols", 512, "'dsp.preamble_symbols'")],
}


def _old_file_rejected(version: int):
    """The test that each ``_OLD_SCHEMA_KEYS[version]`` edit of a current
    file fails to load, naming what it changed."""
    @pytest.mark.parametrize("path, key, value, named", _OLD_SCHEMA_KEYS[version])
    def test(self, tmp_path, path, key, value, named):
        raw = config_to_dict(c_band_216g())
        node = raw
        for part in path:
            node = node[part]
        node[key] = value
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ParameterError, match=re.escape(named)):
            load_config(cfg_path)
    return test


class TestConfigSchema:
    @given(make=st.sampled_from([c_band_216g, o_band_216g]),
           fields=st.sets(st.sampled_from(list(_OVERRIDES))), data=st.data())
    @settings(deadline=None)
    def test_round_trip(self, make, fields, data):
        raw = config_to_dict(make())
        for path, field in fields:
            node = raw
            for key in path:
                node = node[key]
            value = data.draw(_OVERRIDES[(path, field)])
            if isinstance(field, tuple):
                node.update(zip(field, value))
            else:
                node[field] = value
        cfg = config_from_dict(raw)
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @given(make=st.sampled_from([c_band_216g, o_band_216g]), data=st.data())
    @settings(deadline=None)
    def test_unknown_key_rejected_at_every_level(self, make, data):
        raw = config_to_dict(make())
        path, node = data.draw(st.sampled_from(list(_dict_nodes(raw))))
        key = data.draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
                        .filter(lambda k: k not in node))
        node[key] = 1
        dotted = f"{path}.{key}" if path else key
        with pytest.raises(ParameterError, match=re.escape(repr(dotted))):
            config_from_dict(raw)

    @pytest.mark.parametrize("path, key, dotted", [
        ((), "symbol_rate_gdb", "symbol_rate_gdb"),
        (("dsp",), "ffe_tapz", "dsp.ffe_tapz"),
        (("tx", "amplifier_chain", 1), "gain", "tx.amplifier_chain[1].gain"),
    ])
    def test_misspelled_key_from_json(self, tmp_path, path, key, dotted):
        raw = config_to_dict(c_band_216g())
        node = raw
        for part in path:
            node = node[part]
        node[key] = 300
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ParameterError, match=re.escape(repr(dotted))):
            load_config(cfg_path)

    @pytest.mark.parametrize("path, key, value", [
        ((), "symbol_rate_gbd", "216"),
        (("dsp",), "ffe_taps", 63.5),
        (("dsp",), "volterra_enabled", "no"),
        (("rx",), "dso_rate_hz", "256e9"),
    ])
    def test_value_type_checked(self, path, key, value):
        raw = config_to_dict(c_band_216g())
        node = raw
        for part in path:
            node = node[part]
        node[key] = value
        dotted = ".".join(path + (key,))
        with pytest.raises(ParameterError, match=re.escape(repr(dotted))):
            config_from_dict(raw)

    test_version_1_file_rejected = _old_file_rejected(1)
    test_version_2_file_rejected = _old_file_rejected(2)
    test_version_3_file_rejected = _old_file_rejected(3)
    test_version_4_file_rejected = _old_file_rejected(4)
    test_version_5_file_rejected = _old_file_rejected(5)
    test_version_6_file_rejected = _old_file_rejected(6)

    @pytest.mark.parametrize("version", [None, 0, 1, 2, 3, 99, "4"])
    def test_schema_version_must_be_current(self, version):
        raw = config_to_dict(c_band_216g())
        if version is None:
            del raw["schema_version"]
        else:
            raw["schema_version"] = version
        with pytest.raises(ParameterError, match="schema_version"):
            config_from_dict(raw)


# (dotted key -> value) edits of the fast link, and the key each must name
_BAD_VALUES = [
    ({"dsp.rrc_rolloff": -0.1}, "dsp.rrc_rolloff"),
    # the signal edge, 212 GHz, beyond the 72-GHz LO plus 120-GHz AWG band
    ({"symbol_rate_gbd": 420.0}, "symbol_rate_gbd"),
    ({"dsp.ffe_taps": 100}, "dsp.ffe_taps"),
    ({"dsp.preemphasis_max_boost_db": -5.0}, "dsp.preemphasis_max_boost_db"),
    ({"dsp.volterra.memory_2": 6}, "dsp.volterra.memory_2"),
    ({"rx.pd_bandwidth_hz": 0.0}, "rx.pd_bandwidth_hz"),
    ({"rx.dso_resolution_bits": 0}, "rx.dso_resolution_bits"),
    ({"rx.dso_rate_hz": -1.0}, "rx.dso_rate_hz"),
    ({"tx.drive_peak_fraction_vpi": 0.0}, "tx.drive_peak_fraction_vpi"),
    ({"tx.awg_resolution_bits": 0}, "tx.awg_resolution_bits"),
    ({"tx.analog_rate_hz": 128e9}, "tx.analog_rate_hz"),
    ({"tx.mixer_bandwidth_hz": 0.0}, "tx.mixer_bandwidth_hz"),
    ({"tx.mzm.v_pi_volts": 0.0}, "tx.mzm.v_pi_volts"),
    ({"tx.mzm.bandwidth_hz": -1.0}, "tx.mzm.bandwidth_hz"),
    ({"tx.mzm.bandwidth_atten_db": 0.0}, "tx.mzm.bandwidth_atten_db"),
    ({"tx.mzm.bandwidth_atten_db": -1.0}, "tx.mzm.bandwidth_atten_db"),
    ({"tx.upper_path_amplifier": {"gain_db": 7.0, "bandwidth_hz": 0.0}},
     "tx.upper_path_amplifier.bandwidth_hz"),
    ({"tx.upper_path_amplifier": {"gain_db": 7.0, "bandwidth_hz": 130e9,
                                  "compression_in_1db": 0.0}},
     "tx.upper_path_amplifier.compression_in_1db"),
    ({"plan.awg_rate_hz": 0.0}, "plan.awg_rate_hz"),
    ({"modulation": "uniform_pamN", "pam_order": 1}, "pam_order"),
    ({"modulation": "ps_pam12", "pam_order": 8}, "pam_order"),
    ({"target_entropy_bits": 5.0}, "target_entropy_bits"),
    ({"target_entropy_bits": 0.9}, "target_entropy_bits"),
    ({"channel.obpf_bandwidth_hz": -5.0}, "channel.obpf_bandwidth_hz"),
    ({"channel.obpf_bandwidth_hz": 0.0}, "channel.obpf_bandwidth_hz"),
    ({"channel.wavelength_nm": 0.0}, "channel.wavelength_nm"),
    ({"channel.obpf_cd_trim_km": -3.0}, "channel.obpf_cd_trim_km"),
    ({"channel.fiber.length_km": -1.0}, "channel.fiber.length_km"),
    ({"channel.fiber.dispersion_slope_ps_nm2_km": -0.1},
     "channel.fiber.dispersion_slope_ps_nm2_km"),
    # a negative loss would be applied as gain
    ({"channel.fiber.length_km": 2.0, "channel.fiber.attenuation_db_km": -10.0},
     "channel.fiber.attenuation_db_km"),
    ({"channel.fiber.attenuation_db_km": float("inf")},
     "channel.fiber.attenuation_db_km"),
    ({"channel.fiber.length_km": float("nan")}, "channel.fiber.length_km"),
    ({"channel.fiber.dispersion_slope_ps_nm2_km": float("inf")},
     "channel.fiber.dispersion_slope_ps_nm2_km"),
    ({"channel.amplifier.noise_spectral_density": -1e-17},
     "channel.amplifier.noise_spectral_density"),
    # JSON reads Infinity and NaN; every float must be finite
    ({"rx.dso_rate_hz": float("inf")}, "rx.dso_rate_hz"),
    ({"tx.analog_rate_hz": float("inf")}, "tx.analog_rate_hz"),
    ({"channel.amplifier.gain_db": float("inf")}, "channel.amplifier.gain_db"),
    ({"rx.pd_thermal_noise_density": float("inf")}, "rx.pd_thermal_noise_density"),
    ({"rate_table_rates": [0.6, float("nan")], "rate_table_thresholds": [0.62, 0.9]},
     "rate_table_rates[1]"),
]


def _replace_dotted(obj, key: str, value):
    head, _, rest = key.partition(".")
    if rest:
        value = _replace_dotted(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "updates, dotted", _BAD_VALUES,
        ids=[",".join(f"{k}={v}" for k, v in u.items()) for u, _ in _BAD_VALUES],
    )
    def test_bad_value_names_key(self, updates, dotted):
        raw = config_to_dict(fast_link_config())
        for key, value in updates.items():
            *path, name = key.split(".")
            node = raw
            for part in path:
                node = node[part]
            node[name] = value
        with pytest.raises(ParameterError, match=re.escape(dotted)):
            config_from_dict(raw)

    def test_mzm_attenuation_beyond_float_range_rejected(self, tmp_path):
        # 10^(A/10) overflows a float above about 3 083 dB, which left the
        # modulator with no cutoff; the model now fails when it is built
        raw = config_to_dict(c_band_216g())
        cfg_path = tmp_path / "mzm.json"
        raw["tx"]["mzm"]["bandwidth_atten_db"] = 3000.0
        cfg_path.write_text(json.dumps(raw))
        assert load_config(cfg_path).tx.mzm.bandwidth_atten_db == 3000.0
        raw["tx"]["mzm"]["bandwidth_atten_db"] = 4000.0
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ParameterError, match=re.escape("tx.mzm.bandwidth_atten_db")):
            load_config(cfg_path)

    @pytest.mark.parametrize("key, value", [
        ("rx.dso_rate_hz", float("inf")),
        ("tx.laser_power_dbm", float("nan")),
        ("tx.laser_power_dbm", float("-inf")),
        # +inf passes the section's own positivity check; the link's finite pass catches it
        ("tx.mixer_bandwidth_hz", float("inf")),
        ("channel.amplifier.gain_db", float("inf")),
        ("dsp.preemphasis_max_boost_db", float("inf")),
    ])
    def test_non_finite_rejected_when_built_in_python(self, key, value):
        with pytest.raises(ParameterError, match=re.escape(f"{key} must be finite")):
            _replace_dotted(fast_link_config(), key, value)

    def test_negative_seed_rejected(self, tmp_path):
        # the seed feeds numpy's SeedSequence, which takes no negative value
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            c_band_216g(seed=-1)
        raw = config_to_dict(c_band_216g())
        raw["seed"] = -1
        cfg_path = tmp_path / "seed.json"
        cfg_path.write_text(json.dumps(raw))
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            load_config(cfg_path)


class TestFeasibleLength:
    def test_216_gbd_step_is_27(self):
        assert smallest_feasible_length(216e9, (256e9, 512e9)) == 27

    def test_power_of_two_rate(self):
        assert smallest_feasible_length(256e9, (256e9, 512e9)) == 1


def _is_5_smooth(k: int) -> bool:
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


class TestResolveLength:
    @pytest.mark.parametrize("make", [c_band_216g, o_band_216g])
    def test_presets(self, make):
        # 27 * 2430; records 77 760 / 131 220 / 155 520, all 5-smooth
        assert resolve_sequence_length(make()) == 65610

    def test_entropy_sweep_length(self):
        cfg = replace(c_band_216g(), sequence_length_symbols=16384)
        assert resolve_sequence_length(cfg) == 16200

    @pytest.mark.parametrize("part, key, rate", [
        ("rx", "dso_rate_hz", 256e9 + 1),
        ("tx", "analog_rate_hz", 512e9 + 1e3),
    ])
    def test_off_grid_rate_rejected(self, part, key, rate):
        # these rates alone would force records of 216e9 and 216e6 symbols
        base = c_band_216g()
        cfg = replace(base, **{part: replace(getattr(base, part), **{key: rate})})
        with pytest.raises(ParameterError, match=re.escape(f"{part}.{key}={rate:.12g}")):
            resolve_sequence_length(cfg)

    @given(requested=st.integers(1, 300_000),
           gbd=st.sampled_from([208.0, 216.0, 224.0]))
    @example(requested=26 * 27, gbd=216.0)  # 25 and 27 tie; 27 wins
    @settings(max_examples=200, deadline=None)
    def test_nearest_smooth_feasible_count(self, requested, gbd):
        cfg = replace(c_band_216g(), symbol_rate_gbd=gbd,
                      sequence_length_symbols=requested)
        rates = (cfg.plan.awg_rate_hz, cfg.tx.analog_rate_hz, cfg.rx.dso_rate_hz)
        step = smallest_feasible_length(cfg.symbol_rate_hz, rates)
        n = resolve_sequence_length(cfg)
        baud = int(cfg.symbol_rate_hz)
        assert all(n * int(r) % baud == 0 for r in rates)
        assert n % step == 0 and _is_5_smooth(n // step)
        # the 5-smooth neighbours of k are no closer; a tie goes to the larger
        k, err = n // step, abs(n - requested)
        above = next(j for j in itertools.count(k + 1) if _is_5_smooth(j))
        assert abs(above * step - requested) > err
        below = next((j for j in range(k - 1, 0, -1) if _is_5_smooth(j)), None)
        if below is not None:
            assert abs(below * step - requested) >= err


def _o_band_dpd(seed: int) -> LinkConfig:
    cfg = o_band_216g(seed)
    return replace(cfg, dsp=replace(cfg.dsp, volterra_enabled=True))


class TestRunLink:
    def test_ideal_link_is_transparent(self, fast_config):
        failures = [msg for seed in TRANSPARENT_SEEDS
                    for msg in transparency_failures(run_link(fast_config.with_seed(seed)))]
        assert failures == []

    def test_determinism(self, fast_config):
        assert run_link(fast_config) == run_link(fast_config)

    # (modulation, seed, pre-emphasis, BER, GMI, NGMI, achievable, net) of the
    # fast link with noise density 2e-17: the fixed-seed physics of the chain.
    # Pre-emphasis is the default 12-dB boost cap, or off at a 0-dB cap
    @pytest.mark.parametrize("modulation, seed, preemphasis, golden", [
        ("ps_pam12", 3, False, (0.017195767195767195, 2.9248709753331226,
                                0.931217509881252, 631.7721306719545,
                                614.4921306719544)),
        ("ps_pam12", 4, False, (0.015167548500881834, 2.9737120239058576,
                                0.9434277720244357, 642.3217971636652,
                                625.0417971636653)),
        ("uniform_pam8", 5, False, (0.02069370958259847, 2.760190773524619,
                                    0.920063591174873, 596.2012070813178,
                                    583.2412070813177)),
        ("uniform_pam8", 6, True, (0.009288653733098177, 2.8863120874265413,
                                   0.9621040291421804, 623.443410884133,
                                   610.4834108841329)),
    ])
    def test_fast_link_golden(self, modulation, seed, preemphasis, golden):
        cfg = fast_link_config(seed=seed, modulation=modulation, noise_density=2e-17)
        boost_db = 12.0 if preemphasis else 0.0
        cfg = replace(cfg, dsp=replace(cfg.dsp, preemphasis_max_boost_db=boost_db))
        rep = run_link(cfg)
        assert rep.ber == golden[0]
        got = (rep.gmi_bits, rep.ngmi, rep.achievable_bitrate_gbps, rep.net_bitrate_gbps)
        assert got == pytest.approx(golden[1:], rel=1e-9)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_short_c_band_record_matches_preset(self, seed):
        # 4 096 symbols (819 training) land within 0.02 of the 65 536-symbol
        # preset's NGMI only because two effects cancel: the short record's
        # lower crest factor drives the MZM harder under the peak-scaled
        # drive, which gains NGMI, while the FFE trains on fewer symbols,
        # which loses it. At equal RMS drive the short record reads lower.
        short = run_link(replace(c_band_216g(seed), sequence_length_symbols=4096))
        assert abs(short.ngmi - run_link(c_band_216g(seed)).ngmi) <= 0.02

    @staticmethod
    def _fft_calls(monkeypatch, config) -> list[tuple[str, str | None]]:
        """(transform, optical stage on the stack or None) of each FFT a run
        makes, in call order."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                stack = [frame.name for frame in traceback.extract_stack()]
                stage = next((name for name in reversed(stack)
                              if name in OPTICAL_TRANSFORM_STAGES), None)
                calls.append((fn.__name__, stage))
                return fn(*args, **kwargs)
            return wrapper

        for module in (np.fft, scipy.fft):
            for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
        run_link(config)
        return calls

    @pytest.mark.parametrize("obpf_hz", [None, 400e9], ids=["no_obpf", "obpf"])
    @pytest.mark.parametrize("density", [0.0, 2e-17], ids=["no_ase", "ase"])
    @pytest.mark.parametrize("length_km", [0.0, 2.0], ids=["0km", "2km"])
    def test_fft_budget(self, monkeypatch, fast_config, length_km, density, obpf_hz):
        # Linear stages multiply the record spectrum and every filter is a
        # closed-form response, so a run transforms only where a pointwise
        # stage meets a linear one (RRC input, drive peak, MZM drive, fiber
        # input, photocurrent, sync template, correlation, equalizer input).
        # A round trip between two linear stages would add two. The
        # modulator reads its filtered drive by one irfft and hands on the
        # field as the rfft of its real-valued cosine, which the fiber, the
        # ASE and the OBPF act on with no transform, at any length; the
        # photodiode forms |E|^2 from it by two irffts before its bandwidth
        # filter reads the photocurrent by one rfft. Every transform acts on
        # a real record, so each is a one-sided rfft or irfft, and the run
        # makes the same 10 whatever its channel.
        channel = ChannelConfig(FiberSpec(length_km), 1310.0, OpticalAmpSpec(0.0, density),
                                obpf_bandwidth_hz=obpf_hz)
        calls = self._fft_calls(monkeypatch, replace(fast_config, channel=channel))
        optical = [(name, stage) for name, stage in calls if stage is not None]
        assert optical == [("irfft", "mzm_modulate"), ("rfft", "mzm_modulate"),
                           ("irfft", "photodetect"), ("irfft", "photodetect"),
                           ("rfft", "photodetect")], calls
        assert {name for name, _ in calls} <= {"rfft", "irfft"}, calls
        assert len(calls) == 10, calls

    def test_fft_budget_dpd(self, monkeypatch, fast_config):
        # the training link and the main link are one chain: the fit and the
        # pre-distorter transform nothing, so a DPD run makes the link's 10
        # one-sided transforms twice, at the same optical stages
        cfg = replace(fast_config, dsp=replace(fast_config.dsp, volterra_enabled=True))
        calls = self._fft_calls(monkeypatch, cfg)
        assert {name for name, _ in calls} <= {"rfft", "irfft"}, calls
        assert len(calls) == 20, calls
        assert calls[:10] == calls[10:], calls

    @pytest.mark.parametrize("make, max_calls, max_bins, chains", [
        (c_band_216g, 9, 532_179, 1),
        (o_band_216g, 11, 652_466, 1),
        (_o_band_dpd, 22, 2 * 652_466, 2),
    ], ids=["C-band", "O-band", "O-band+dpd"])
    def test_bessel_budget(self, monkeypatch, make, max_calls, max_bins, chains):
        # each chain forms its converters' response once, on the AWG
        # record's bins, for the pre-emphasis model and both converters; the
        # model evaluates each other device once, on k + m bins; the amplifier
        # and MZM stages evaluate their responses again, and the photodiode
        # and the scope filter the bins the scope's resample keeps. The DPD's
        # training link is a second chain with the same budget
        calls, converters = [], []
        original = sigcore.bessel_response
        original_dac = frontend.dac_response

        def counted(freqs_hz, cutoff_hz, order):
            stack = [frame.name for frame in traceback.extract_stack()]
            calls.append((cutoff_hz, np.size(freqs_hz), "_chain_magnitudes" in stack))
            return original(freqs_hz, cutoff_hz, order)

        def counted_dac(freq_hz, rate_hz, bandwidth_hz):
            converters.append((bandwidth_hz, np.size(freq_hz)))
            return original_dac(freq_hz, rate_hz, bandwidth_hz)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("imddsim") and \
                    getattr(module, "bessel_response", None) is original:
                monkeypatch.setattr(module, "bessel_response", counted)
        monkeypatch.setattr(frontend, "dac_response", counted_dac)
        cfg = make(7)
        run_link(cfg)
        tx = cfg.tx
        # the m = 38 881 one-sided bins of the 77 760-sample AWG records
        assert converters == [(cfg.plan.awg_bandwidth_hz, 38_881)] * chains
        devices = [tx.mzm.cutoff_hz, *(amp.bandwidth_hz for amp in tx.amplifier_chain)]
        if tx.upper_path_amplifier is not None:
            devices.append(tx.upper_path_amplifier.bandwidth_hz)
        model = sorted(cutoff for cutoff, _, in_model in calls if in_model)
        assert model == sorted(devices * chains), calls
        assert len(calls) <= max_calls, calls
        assert sum(size for _, size, _ in calls) <= max_bins, calls

    def test_analog_rate_at_the_awg_rate(self):
        # with no upsampling the pre-emphasis grid's k + m bins run past the
        # analog Nyquist; the closed-form responses are evaluated there too
        cfg = replace(c_band_216g(3), sequence_length_symbols=4096)
        cfg = replace(cfg, tx=replace(cfg.tx, analog_rate_hz=cfg.plan.awg_rate_hz))
        assert cfg.dsp.preemphasis_max_boost_db > 0
        assert run_link(cfg).ngmi == pytest.approx(0.9864593359552427, abs=1e-9)

    def test_c_band_memory_bound(self):
        # the C-band front end holds the converters' one response, 0.62 MB,
        # from the pre-emphasis model to the second converter, and its obpf
        # trims the dispersion; the peak, about 5.51 MB, is set by obpf and
        # propagate within 2 kB of each other, each holding two field records
        # and one block's all-pass, built in place by the one _allpass
        # (propagate's complex temporary of 1j * phase made it 5.58 MB)
        cfg = c_band_216g(7)
        assert traced_peak(lambda: run_link(cfg)) < 5.8e6

    def test_o_band_memory_bound(self):
        # every record dies at its last use and the run holds only the frame,
        # one byte per symbol, through the link: the peak, about 5.51 MB, is
        # set by propagate, which holds the field's spectrum, its loss
        # product and one block's all-pass, with obpf at 5.31 MB and the
        # front end at 5.05 MB (its upper-path amplifier); with the frame's
        # int64 indices, 0.46 MB more, each of these was 0.46 MB higher
        cfg = o_band_216g(7)
        assert traced_peak(lambda: run_link(cfg)) < 5.8e6

    def test_dpd_training_memory_bound(self):
        # the pre-distorter is trained before the main frame is shaped, both
        # links hold only their one-byte frame and hand their records on, and
        # the fit builds no feature matrix: the peak is about 5.52 MB, set by
        # the main link's propagate, with the training link's at 5.51 MB,
        # each link's obpf at 5.33 MB and front end at 5.07 MB, and the fit
        # at 4.1 MB; with int64 frame indices it was 6.05 MB
        cfg = o_band_216g(7)
        cfg = replace(cfg, dsp=replace(cfg.dsp, volterra_enabled=True))
        assert traced_peak(lambda: run_link(cfg)) < 5.8e6

    @pytest.mark.parametrize("stage, name", [
        ("frontend", "band_split"),
        ("channel", "propagate"),
        ("rxdsp", "digitize"),
    ])
    def test_non_finite_value_mid_chain_is_stage_tagged(self, monkeypatch, fast_config,
                                                        stage, name):
        # only the stages that can overflow scan what they make, so a NaN
        # written into a record between them (past every constructor) is
        # caught by the next scan and still ends the run with a
        # stage-tagged error
        real = getattr(harness, name)

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            wave = out[0] if isinstance(out, tuple) else out
            wave.spectrum[3] = np.nan
            return out

        monkeypatch.setattr(harness, name, poisoned)
        with pytest.raises(StageError, match="must be finite") as err:
            run_link(fast_config)
        assert err.value.stage == stage
        assert isinstance(err.value.cause, ParameterError)

    def test_seed_changes_report(self, fast_config):
        a = run_link(fast_config)
        b = run_link(fast_config.with_seed(fast_config.seed + 1))
        assert a != b

    def test_moderate_noise_envelope(self):
        cfg = fast_link_config(noise_density=3e-17)
        rep = run_link(cfg)
        assert 0.0 < rep.ngmi < 1.0
        assert rep.net_bitrate_gbps < rep.achievable_bitrate_gbps

    def test_uniform_pam8_uses_3rb(self):
        cfg = fast_link_config(modulation="uniform_pam8", noise_density=1e-17)
        rep = run_link(cfg)
        assert rep.label_bits == 3
        assert rep.entropy_bits == pytest.approx(3.0)
        assert rep.net_bitrate_gbps == pytest.approx(
            3.0 * rep.required_code_rate * 216.0
        )

    @pytest.mark.parametrize("dpd, stage", [(False, "shaping"), (True, "dpd_training")],
                             ids=["no_dpd", "dpd"])
    def test_stage_error_tagging(self, monkeypatch, fast_config, dpd, stage):
        # with DPD the frame is first shaped in the training link, whose
        # failures all read dpd_training, whatever stage of it failed
        def fail(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(harness, "pas_assemble", fail)
        cfg = replace(fast_config, dsp=replace(fast_config.dsp, volterra_enabled=dpd))
        with pytest.raises(StageError) as err:
            run_link(cfg)
        assert err.value.stage == stage
        assert isinstance(err.value.cause, FloatingPointError)

    @pytest.mark.parametrize("name, modulation", [
        ("gmi_ngmi", "ps_pam12"),
        ("net_bitrate_ps", "ps_pam12"),
        ("net_bitrate_ps", "uniform_pam8"),
    ])
    def test_metrology_failure_tagged(self, monkeypatch, name, modulation):
        def fail(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(rxdsp, name, fail)
        with pytest.raises(StageError) as err:
            run_link(fast_link_config(modulation=modulation))
        assert err.value.stage == "metrology"
        assert isinstance(err.value.cause, FloatingPointError)

    def test_uniform_pamn_path(self):
        cfg = fast_link_config(modulation="uniform_pamN", pam_order=4,
                               noise_density=1e-17)
        rep = run_link(cfg)
        assert rep.label_bits == 2
        assert rep.entropy_bits == pytest.approx(2.0)
        assert rep.net_bitrate_gbps == pytest.approx(
            2.0 * rep.required_code_rate * 216.0
        )

    def test_uniform_pam6_priced_at_its_entropy(self):
        # PAM6 carries log2 6 = 2.585 bits on 3-bit labels: a transparent link
        # reaches H * B, not the 3 * B of the PAM8 formula
        rep = run_link(fast_link_config(seed=3, modulation="uniform_pamN", pam_order=6))
        assert rep.label_bits == 3
        assert rep.ngmi == pytest.approx(1.0, abs=1e-9)
        assert rep.achievable_bitrate_gbps == pytest.approx(np.log2(6) * 216.0)
        assert rep.net_bitrate_gbps <= rep.achievable_bitrate_gbps

    def test_volterra_dpd_path_runs(self):
        cfg = fast_link_config(
            noise_density=1e-18, n_symbols=4096,
            dsp=replace(fast_link_config().dsp, volterra_enabled=True,
                        volterra=VolterraStructure(7, 0, 5, max_spread_3=0)),
            tx=replace(fast_link_config().tx, drive_peak_fraction_vpi=0.5),
        )
        rep = run_link(cfg)
        base = run_link(replace(cfg, dsp=replace(cfg.dsp, volterra_enabled=False)))
        assert rep.gmi_bits >= base.gmi_bits - 0.05


def _short(make, seed: int) -> LinkConfig:
    """A preset at the feasible record length nearest 4 096 symbols."""
    cfg = replace(make(seed), sequence_length_symbols=4096)
    return replace(cfg, sequence_length_symbols=resolve_sequence_length(cfg))


class TestChainRelations:
    """Relations between two runs of the whole chain: changes of the input
    that must leave the result where it is, whatever its value."""

    @pytest.mark.parametrize("scale", [0.1, 4.0, 1000.0])
    @pytest.mark.parametrize("make", [c_band_216g, o_band_216g], ids=["C-band", "O-band"])
    def test_power_and_noise_scale_together(self, make, scale):
        # with no thermal noise, scaling the laser power and the ASE density
        # by one factor scales every detected term (signal, signal x ASE and
        # ASE x ASE beats) by it, and the receiver is scale-free
        cfg = _short(make, 7)
        assert cfg.rx.pd_thermal_noise_density == 0
        amp = cfg.channel.amplifier
        scaled = replace(
            cfg, tx=replace(cfg.tx, laser_power_dbm=cfg.tx.laser_power_dbm
                            + 10 * np.log10(scale)),
            channel=replace(cfg.channel, amplifier=replace(
                amp, noise_spectral_density=amp.noise_spectral_density * scale)))
        assert abs(run_link(scaled).ngmi - run_link(cfg).ngmi) < 1e-11

    @pytest.mark.parametrize("make", [c_band_216g, o_band_216g], ids=["C-band", "O-band"])
    def test_identity_predistorter_is_none(self, make):
        cfg = _short(make, 7)
        kernel = VolterraKernel.identity(cfg.dsp.volterra)
        _, eq_identity = harness._link(cfg, harness._spawn_rngs(cfg), kernel)
        _, eq = harness._link(cfg, harness._spawn_rngs(cfg))
        assert eq_identity.tobytes() == eq.tobytes()

    @pytest.mark.parametrize("factor", [1e-6, 10.0])
    @pytest.mark.parametrize("index", [0, 1])
    def test_electrical_gains_are_common_factors(self, index, factor):
        # no amplifier compresses, and the drive is scaled to its peak, so an
        # amplifier's gain cancels
        cfg = _short(c_band_216g, 3)
        chain = list(cfg.tx.amplifier_chain)
        assert all(amp.compression_in_1db is None for amp in chain)
        chain[index] = replace(chain[index],
                               gain_db=chain[index].gain_db + 20 * np.log10(factor))
        changed = replace(cfg, tx=replace(cfg.tx, amplifier_chain=tuple(chain)))
        assert abs(run_link(changed).ngmi - run_link(cfg).ngmi) < 1e-11

    @pytest.mark.parametrize("zero_nm, slope", [(1500.0, 0.06), (1541.7, 0.09),
                                                (1280.0, 0.092), (1560.0, 0.03)])
    @pytest.mark.parametrize("make", [c_band_216g, o_band_216g], ids=["C-band", "O-band"])
    def test_cd_trim_cancels_the_fiber_dispersion(self, make, zero_nm, slope):
        # with the trim as long as the fiber, the OBPF undoes its dispersion,
        # whatever the dispersion is; with the ASE on it would not, as the
        # trim disperses the noise added before it into a new realization
        cfg = _short(make, 7)
        chan = replace(cfg.channel, obpf_cd_trim_km=cfg.channel.fiber.length_km,
                       amplifier=replace(cfg.channel.amplifier, noise_spectral_density=0.0))
        cfg = replace(cfg, channel=chan)
        changed = replace(cfg, channel=replace(chan, fiber=replace(
            chan.fiber, zero_dispersion_wavelength_nm=zero_nm,
            dispersion_slope_ps_nm2_km=slope)))
        _, eq = harness._link(cfg, harness._spawn_rngs(cfg))
        _, eq_changed = harness._link(changed, harness._spawn_rngs(changed))
        assert np.max(np.abs(eq_changed - eq)) <= 1e-9 * np.max(np.abs(eq))


#: Prints the repr of the C-band (seed 7), O-band (seed 11) and O-band+DPD
#: (seed 7) reports, one a line.
_PRESET_REPORTS = """
from dataclasses import replace
from imddsim import c_band_216g, o_band_216g, run_link
dpd = o_band_216g(7)
dpd = replace(dpd, dsp=replace(dpd.dsp, volterra_enabled=True))
for cfg in (c_band_216g(7), o_band_216g(11), dpd):
    print(repr(run_link(cfg)))
"""


class TestStagesLeaveHeldInputs:
    """A stage drops its own reference to a record it has read and multiplies
    in place only arrays it made itself, so a record its caller still holds
    comes back unchanged, samples and spectrum alike."""

    @staticmethod
    def held_inputs():
        rng = np.random.default_rng(21)
        n = 2592  # 27 * 96: integer records at 432, 256 and 512 GS/s

        def elec(rate, size):
            return SampledWaveform(rate, rng.normal(size=size))

        return {
            "wide": elec(432e9, n),
            "awg": elec(256e9, 1536),
            "awg2": elec(256e9, 1536),
            "analog": elec(512e9, 3072),
            "field": SampledWaveform.from_spectrum(
                512e9, rng.normal(size=3072) + 1j * rng.normal(size=3072), 3072,
                "optical_field"),
        }

    @pytest.mark.filterwarnings("ignore:.*above the LO")
    @pytest.mark.parametrize("stage", [
        "band_split", "stitch_bands", "transmit", "dac", "mixer_upconvert", "amplify",
        "mzm_modulate", "propagate", "optical_amplify", "obpf", "obpf_passband",
        "photodetect", "digitize", "synchronize",
    ])
    def test_input_unchanged(self, stage):
        w = self.held_inputs()
        # the spectrum is the one array a waveform holds; the samples are
        # read from it, so comparing both checks the inverse transform too
        before = {k: (v.samples.tobytes(), v.spectrum.tobytes()) for k, v in w.items()}
        plan = txdsp.BandPlan(76e9, 75e9, 72e9)
        fiber = FiberSpec(2.0, zero_dispersion_wavelength_nm=1280.0)
        calls = {
            "band_split": lambda: txdsp.band_split(w["wide"], plan),
            "stitch_bands": lambda: frontend.stitch_bands(
                w["awg"], w["awg2"], plan, 512e9, 150e9,
                frontend.dac_response(w["awg"].freqs(), w["awg"].sample_rate_hz, 80e9),
                upper_amplifier=AmplifierModel(7.0, 130e9)),
            "transmit": lambda: frontend.transmit(
                w["awg"], w["awg2"], plan, TxConfig(
                    MzmModel(2.8), upper_path_amplifier=AmplifierModel(7.0, 130e9),
                    amplifier_chain=(AmplifierModel(16.0, 100e9),)), 12.0),
            "dac": lambda: frontend.dac(
                w["awg"], 512e9,
                frontend.dac_response(w["awg"].freqs(), w["awg"].sample_rate_hz, 80e9)),
            "mixer_upconvert": lambda: frontend.mixer_upconvert(w["analog"], 72e9, 150e9, 0.3),
            "amplify": lambda: frontend.amplify(w["analog"], AmplifierModel(7.0, 130e9)),
            "mzm_modulate": lambda: frontend.mzm_modulate(w["analog"], 10.0, MzmModel(2.8)),
            "propagate": lambda: channel.propagate(w["field"], fiber, 1310.0),
            "optical_amplify": lambda: channel.optical_amplify(
                w["field"], OpticalAmpSpec(3.0, 2e-17), np.random.default_rng(1)),
            "obpf": lambda: channel.obpf(w["field"], 300e9, fiber, 1310.0, 2.0),
            "obpf_passband": lambda: channel.obpf(w["field"], 300e9, fiber, 1310.0),
            "photodetect": lambda: rxdsp.photodetect(w["field"], 1e-22,
                                                     np.random.default_rng(2)),
            "digitize": lambda: rxdsp.digitize(w["analog"], 256e9, 100e9,
                                               pd_bandwidth_hz=90e9),
            "synchronize": lambda: rxdsp.synchronize(w["wide"], w["wide"].real[:1024:2]),
        }
        calls[stage]()
        after = {k: (v.samples.tobytes(), v.spectrum.tobytes()) for k, v in w.items()}
        assert after == before


class TestThreadInvariance:
    def test_reports_do_not_depend_on_blas_threads(self):
        # a run is a pure function of (config, seed): the full-precision
        # reports match whatever number of threads OpenBLAS is given
        src = str(Path(imddsim.__file__).resolve().parent.parent)
        outputs = {}
        for threads in sorted({1, 2, os.cpu_count() or 1}):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads))
            outputs[threads] = subprocess.run(
                [sys.executable, "-c", _PRESET_REPORTS], check=True,
                capture_output=True, text=True, env=env).stdout
        reports = outputs[1].splitlines()
        assert len(reports) == 3 and all(r.startswith("MetricsReport(") for r in reports)
        assert "np.float64" not in outputs[1]
        for threads, out in outputs.items():
            assert out == outputs[1], f"{threads} threads:\n{out}\n1 thread:\n{outputs[1]}"


#: Runs the C-band preset at 16 384 symbols three times and prints the
#: minor page faults of the third pass.
_THIRD_PASS_FAULTS = """
import resource
from dataclasses import replace
from imddsim import c_band_216g, run_link
cfg = replace(c_band_216g(7), sequence_length_symbols=16384)
for _ in range(2):
    run_link(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_link(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestMallocThresholds:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_warm_pass_reuses_the_heap(self):
        # with glibc's dynamic thresholds each stage's freed heap top went
        # back to the kernel and was faulted in again: 2 501 faults a pass
        src = str(Path(imddsim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _THIRD_PASS_FAULTS], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert int(out) < 100

    def test_no_op_without_glibc(self, monkeypatch):
        def no_confstr(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        def no_libc(*args):
            raise AssertionError("loaded the C library off glibc")

        monkeypatch.setattr(harness.os, "confstr", no_confstr)
        monkeypatch.setattr(harness.ctypes, "CDLL", no_libc)
        assert harness._pin_malloc_thresholds.__wrapped__() is None


class TestSweeps:
    def test_single_point_entropy_sweep_uniform_limit(self, fast_config):
        # uniform PAM12 stresses the outer levels; back the drive off so the
        # modulator is deep in its linear region for this noiseless check
        cfg = replace(fast_config,
                      tx=replace(fast_config.tx, drive_peak_fraction_vpi=0.05))
        result = sweep_entropy(cfg, [3.585])
        assert len(result.rows) == 1
        rep = result.rows[0].report
        # uniform PAM12 keeps a rare-pattern ISI tail; 1e-6 is far below any
        # physical claim while still pinning the degenerate-sweep identity
        assert rep.ngmi == pytest.approx(1.0, abs=1e-6)
        assert rep.required_code_rate == pytest.approx(1.0, abs=1e-6)
        assert rep.entropy_bits == pytest.approx(np.log2(12))
        assert rep.net_bitrate_gbps == pytest.approx(np.log2(12) * 216.0)

    def test_rows_sorted_and_seeded(self, fast_config):
        result = sweep_entropy(fast_config, [3.4, 3.0, 3.2])
        assert [r.parameter for r in result.rows] == [3.0, 3.2, 3.4]
        seeds = {r.report.seed for r in result.rows}
        assert len(seeds) == 3

    def test_duplicate_entropies_get_distinct_seeds(self, fast_config):
        result = sweep_entropy(fast_config, [3.2, 3.2])
        seeds = [r.report.seed for r in result.rows]
        assert seeds[0] != seeds[1]

    def test_unattainable_entropy_is_a_row_error(self, fast_config):
        result = sweep_entropy(fast_config, [3.2, 5.0])
        bad = {r.parameter: r for r in result.rows}[5.0]
        assert bad.report is None
        assert "target_entropy_bits" in bad.error

    def test_entropy_sweep_requires_ps(self):
        cfg = fast_link_config(modulation="uniform_pam8")
        with pytest.raises(ParameterError):
            sweep_entropy(cfg, [3.0])

    def test_empty_sweep_rejected(self):
        cfg = fast_link_config()
        for sweep in (lambda: sweep_cores(cfg, 0), lambda: sweep_cores(cfg, -2),
                      lambda: sweep_entropy(cfg, []), lambda: sweep_symbol_rate(cfg, [])):
            with pytest.raises(ParameterError, match="at least one value"):
                sweep()

    def test_baud_single_point_matches_run_link(self):
        cfg = fast_link_config(modulation="uniform_pam8", noise_density=1e-17)
        result = sweep_symbol_rate(cfg, [216.0])
        assert result.rows[0].report == run_link(cfg)

    def test_baud_rows_satisfy_3rb(self):
        cfg = fast_link_config(modulation="uniform_pam8", noise_density=1e-17)
        result = sweep_symbol_rate(cfg, [208.0, 216.0])
        for row in result.rows:
            rep = row.report
            assert rep.net_bitrate_gbps == pytest.approx(
                3.0 * rep.required_code_rate * rep.symbol_rate_gbd
            )

    def test_ngmi_non_increasing_in_symbol_rate(self):
        # band-limited receiver (30 GHz PD and scope): higher baud, more ISI,
        # lower NGMI. Each seed runs at every rate and the trend is taken on
        # the per-rate mean: an 8-GBd step moves the mean NGMI by 0.007-0.016
        # here, while one seed's NGMI scatters by 0.01-0.03. At 60 GHz and
        # 2e-18 the FFE leaves no error at any rate (NGMI 1.0 throughout)
        cfg = fast_link_config(modulation="uniform_pam8", noise_density=1e-17)
        cfg = replace(cfg, rx=replace(cfg.rx, pd_bandwidth_hz=30e9,
                                      dso_bandwidth_hz=30e9))
        seeds = range(1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            means = [np.mean([run_link(replace(cfg, symbol_rate_gbd=rate, seed=s)).ngmi
                              for s in seeds])
                     for rate in (208.0, 216.0, 224.0)]
        assert means[0] > means[1] > means[2]

    def test_infeasible_rate_recorded_not_raised(self):
        cfg = fast_link_config(modulation="uniform_pam8", noise_density=1e-17)
        result = sweep_symbol_rate(cfg, [216.0, 420.0])
        by_param = {r.parameter: r for r in result.rows}
        assert by_param[216.0].report is not None
        assert by_param[420.0].report is None
        assert "reconstructible" in by_param[420.0].error

    def test_multicore_spread(self):
        # the cores are identical and uncoupled, so their NGMIs differ by seed
        # noise alone. Over seeds 1-100 this link's NGMI has std 0.022 and a
        # low tail (min 0.81 against median 0.90); the range of three NGMIs
        # resampled from those 100 values exceeds 0.115 once in 1000
        cfg = fast_link_config(noise_density=2e-17, n_symbols=8192)
        result = sweep_cores(cfg, 3)
        ngmis = [r.report.ngmi for r in result.rows]
        assert len(ngmis) == 3
        assert max(ngmis) - min(ngmis) < 0.12
        labels = {r.report.seed for r in result.rows}
        assert len(labels) == 3

    def test_extra_loss_core_is_worst(self):
        cfg = fast_link_config(noise_density=2e-17, n_symbols=8192)
        lossy_amp = replace(cfg.channel.amplifier, gain_db=-3.0)
        lossy = replace(cfg, seed=cfg.seed + 10,
                        channel=replace(cfg.channel, amplifier=lossy_amp))
        reports = [run_link(c) for c in (cfg, cfg.with_seed(cfg.seed + 1), lossy)]
        assert min(r.ngmi for r in reports) == reports[2].ngmi

    def test_failing_core_is_a_row_error(self, monkeypatch):
        cfg = fast_link_config(noise_density=2e-17)
        real_run = harness.run_link

        def run(config):
            if config.seed == cfg.seed + 1:
                raise StageError("rxdsp", RuntimeError("core 2 lost sync"))
            return real_run(config)

        monkeypatch.setattr(harness, "run_link", run)
        result = sweep_cores(cfg, 3)
        assert [r.parameter for r in result.rows] == [1.0, 2.0, 3.0]
        assert [r.report is None for r in result.rows] == [False, True, False]
        assert "core 2 lost sync" in result.rows[1].error
        seeds = [r.report.seed for r in result.rows if r.report]
        assert seeds == [cfg.seed, cfg.seed + 2]


class TestEmitOutputs:
    def make_result(self, n=5):
        cfg = fast_link_config(noise_density=2e-17)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return sweep_entropy(cfg, list(np.linspace(3.0, 3.5, n))), cfg

    def test_empty_table(self, tmp_path):
        result = SweepResult("entropy_bits", ())
        cfg = fast_link_config()
        written = emit_outputs(result, tmp_path, cfg)
        csv = (tmp_path / "sweep.csv").read_text()
        assert csv.count("\n") == 1  # header only
        assert not (tmp_path / "plot.svg").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_csv_and_svg(self, tmp_path):
        result, cfg = self.make_result(5)
        emit_outputs(result, tmp_path, cfg)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 6
        tree = ET.parse(tmp_path / "plot.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_reemit_byte_identical(self, tmp_path):
        result, cfg = self.make_result(3)
        emit_outputs(result, tmp_path / "a", cfg)
        emit_outputs(result, tmp_path / "b", cfg)
        assert (tmp_path / "a/sweep.csv").read_bytes() == (
            tmp_path / "b/sweep.csv"
        ).read_bytes()

    def test_manifest_outputs_relative_to_directory(self, tmp_path):
        result, cfg = self.make_result(3)
        outputs = []
        for out in (tmp_path / "a", tmp_path / "a-much-longer-directory" / "b"):
            emit_outputs(result, out, cfg)
            outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
        assert outputs[0] == outputs[1] == ["sweep.csv", "plot.svg"]

    def test_error_rows_serialized(self):
        row = SweepRow(3.0, None, error="boom")
        csv = sweep_to_csv(SweepResult("entropy_bits", (row,)))
        assert "boom" in csv.splitlines()[1]

    def test_csv_rows_satisfy_bitrate_formula(self, tmp_path):
        result, cfg = self.make_result(3)
        emit_outputs(result, tmp_path, cfg)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        cols = {name: i for i, name in enumerate(lines[0].split(","))}
        for line in lines[1:]:
            parts = line.split(",")
            h = float(parts[cols["entropy_bits"]])
            m = int(parts[cols["label_bits"]])
            b = float(parts[cols["symbol_rate_gbd"]])
            r = float(parts[cols["required_code_rate"]])
            net = float(parts[cols["net_bitrate_gbps"]])
            ach = float(parts[cols["achievable_bitrate_gbps"]])
            assert net <= ach + 1e-9
            assert net == pytest.approx((h - (1 - r) * m) * b, rel=1e-6)


class TestManifest:
    def test_digest_tracks_config_and_seed(self, fast_config):
        a = build_manifest(fast_config, ())
        b = build_manifest(fast_config, ())
        c = build_manifest(fast_config.with_seed(99), ())
        assert a.input_digest == b.input_digest
        assert a.input_digest != c.input_digest
        assert "numpy.PCG64" in a.rng

    def test_manifest_json_parses(self, fast_config, tmp_path):
        man = build_manifest(fast_config, ("x.csv",))
        data = json.loads(man.to_json())
        assert data["seed"] == fast_config.seed
        assert data["config"]["symbol_rate_gbd"] == 216.0

