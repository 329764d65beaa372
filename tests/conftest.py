import tracemalloc

import numpy as np
import pytest

from imddsim.channel import FiberSpec, OpticalAmpSpec
from imddsim.config import (
    ChannelConfig,
    DspConfig,
    LinkConfig,
    RxConfig,
    TxConfig,
)
from imddsim.frontend import MzmModel
from imddsim.sigcore import _energy
from imddsim.txdsp import BandPlan

# rate table extended to 1.0 so a transparent link reports net = gross
IDEAL_RATES = tuple(np.round(np.arange(0.60, 0.951, 0.05), 2)) + (1.0,)
IDEAL_THRESHOLDS = tuple(np.round(np.arange(0.62, 0.971, 0.05), 2)) + (1.0,)


def fast_link_config(seed=1, modulation="ps_pam12", noise_density=0.0,
                     n_symbols=4096, **overrides) -> LinkConfig:
    """Small, quick-to-run link: wide-open devices, zero-length fiber.

    ``modulation="uniform_pam8"`` is shorthand for uniform_pamN of order 8."""
    pam_order = 12 if modulation == "ps_pam12" else 8
    if modulation == "uniform_pam8":
        modulation = "uniform_pamN"
    plan = BandPlan(76e9, 75e9, 72e9, awg_bandwidth_hz=120e9)
    tx = TxConfig(
        mzm=MzmModel(2.8, bandwidth_hz=1e15),
        mixer_bandwidth_hz=1e15,
        amplifier_chain=(),
        drive_peak_fraction_vpi=0.12,
    )
    rx = RxConfig(pd_bandwidth_hz=1e15, dso_bandwidth_hz=1e15)
    chan = ChannelConfig(
        fiber=FiberSpec(0.0),
        wavelength_nm=1550.0,
        amplifier=OpticalAmpSpec(0.0, noise_density),
    )
    dsp = DspConfig(ffe_taps=63, ffe_train_fraction=0.3, preemphasis_max_boost_db=0.0)
    kwargs = dict(
        plan=plan, tx=tx, rx=rx, channel=chan,
        modulation=modulation, pam_order=pam_order,
        target_entropy_bits=3.2, sequence_length_symbols=n_symbols, seed=seed,
        dsp=dsp, rate_table_rates=IDEAL_RATES,
        rate_table_thresholds=IDEAL_THRESHOLDS,
    )
    kwargs.update(overrides)
    return LinkConfig(**kwargs)


# Seeds on which the noiseless fast link must be transparent. The 0.12 Vpi
# drive leaves ISI of rms 0.025 after the 63-tap FFE, so a seed can read
# NGMI 1 - 1e-11 with zero bit errors; exact NGMI == 1 holds only by luck.
TRANSPARENT_SEEDS = range(1, 9)


def transparency_failures(report) -> list[str]:
    """Why a noiseless run is not transparent (empty when it is): zero
    errors, NGMI and code rate within 1e-9 of 1, and net = achievable =
    H * 216 Gb/s."""
    gross = report.entropy_bits * 216.0
    checks = {
        "ber": report.ber == 0.0,
        "ngmi": 0.0 <= 1.0 - report.ngmi <= 1e-9,
        "rate": report.required_code_rate == pytest.approx(1.0, abs=1e-9),
        "net <= achievable": report.net_bitrate_gbps <= report.achievable_bitrate_gbps,
        "net": report.net_bitrate_gbps == pytest.approx(gross, rel=1e-9),
        "achievable": report.achievable_bitrate_gbps == pytest.approx(gross, rel=1e-9),
    }
    return [f"seed {report.seed}: {name}" for name, ok in checks.items() if not ok]


@pytest.fixture
def fast_config():
    return fast_link_config()


def bin_centered_frequency(freq_hz: float, n: int, sample_rate_hz: float) -> float:
    """Snap a frequency to the nearest n-point FFT bin at the given rate."""
    return round(freq_hz * n / sample_rate_hz) * sample_rate_hz / n


def tone_amplitude(wave, freq_hz: float) -> float:
    """Amplitude of the tone nearest freq_hz via single-bin DFT (real
    signals): 2|X[k]|/n, or |X[k]|/n at DC and at the Nyquist bin of an even
    n, the bins a real tone does not share with its mirror image. Above
    Nyquist, a real waveform's one-sided spectrum gives |X[k]| = |X[n - k]|."""
    n = wave.n
    k = int(round(freq_hz * n / wave.sample_rate_hz)) % n
    spectrum = wave.spectrum
    value = spectrum[k] if k < spectrum.size else spectrum[n - k]
    return (1.0 if k == 0 or 2 * k == n else 2.0) * np.abs(value) / n


def occupied_bandwidth(wave, fraction: float) -> float:
    """Smallest f such that |f'| <= f holds `fraction` of the energy."""
    freqs = np.abs(wave.freqs())
    order = np.argsort(freqs)
    cum = np.cumsum(_energy(wave, wave.spectrum)[order])
    total = cum[-1]
    if total == 0:
        return 0.0
    idx = int(np.searchsorted(cum, fraction * total))
    return float(freqs[order][min(idx, freqs.size - 1)])


def traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
