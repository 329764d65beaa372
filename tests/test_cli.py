import json
import xml.etree.ElementTree as ET

import pytest

from conftest import fast_link_config
from imddsim import harness
from imddsim.cli import main
from imddsim.config import save_config
from imddsim.harness import SweepResult, SweepRow, sweep_to_csv
from imddsim.rxdsp import MetricsReport


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "link.json"
    save_config(fast_link_config(noise_density=2e-17), path)
    return path


class TestRunCommand:
    def test_run_writes_outputs(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        assert (out / "run.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert manifest["outputs"] == ["run.csv"]
        assert "NGMI=" in capsys.readouterr().out

    def test_seed_override(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--seed", "5",
                     "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_path), "--seed", "5",
                     "--out", str(out_b)]) == 0
        assert (out_a / "run.csv").read_text() == (out_b / "run.csv").read_text()

    def test_negative_seed_fails(self, config_path, tmp_path, capsys):
        rc = main(["run", "--config", str(config_path), "--seed", "-1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_unknown_config_fails(self, tmp_path, capsys):
        rc = main(["run", "--config", "missing.json", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_stage_tagged_diagnostics(self, monkeypatch, config_path, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(harness, "pas_assemble", fail)
        rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "[shaping]" in capsys.readouterr().err


class TestSweepCommands:
    def test_sweep_entropy(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep-entropy", "--config", str(config_path),
                   "--entropies", "3.1,3.3", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("entropy_bits,")
        assert (out / "plot.svg").exists()
        assert (out / "manifest.json").exists()

    def test_sweep_baud(self, tmp_path):
        cfg = fast_link_config(modulation="uniform_pam8", noise_density=2e-17)
        path = tmp_path / "pam8.json"
        save_config(cfg, path)
        out = tmp_path / "baud"
        rc = main(["sweep-baud", "--config", str(path),
                   "--rates", "212,216", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("symbol_rate_gbd,")
        assert len(lines) == 3

    def test_sweep_baud_out_of_band_rate_is_a_row_error(self, tmp_path, capsys):
        cfg = fast_link_config(modulation="uniform_pam8", noise_density=2e-17)
        path = tmp_path / "pam8.json"
        save_config(cfg, path)
        out = tmp_path / "baud"
        rc = main(["sweep-baud", "--config", str(path),
                   "--rates", "420,216", "--out", str(out)])
        assert rc == 0
        ok, bad = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert ok.startswith("216,") and ok.endswith(",")
        assert bad.startswith("420,") and "reconstructible band" in bad
        assert "row 420 failed: symbol_rate_gbd" in capsys.readouterr().err

    def test_cores(self, config_path, tmp_path):
        out = tmp_path / "cores"
        rc = main(["cores", "--config", str(config_path), "--n", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("core,")
        assert len(lines) == 3

    @pytest.mark.parametrize("args", [
        ["cores", "--n", "0"],
        ["cores", "--n", "-2"],
        ["sweep-entropy", "--entropies", ","],
    ])
    def test_empty_sweep_fails_without_output(self, config_path, tmp_path, capsys, args):
        out = tmp_path / "empty"
        rc = main([args[0], "--config", str(config_path), *args[1:], "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "at least one value" in captured.err
        assert "wrote" not in captured.out
        assert not out.exists()


class TestReportCommand:
    def test_rerender_from_csv(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep-entropy", "--config", str(config_path),
              "--entropies", "3.1,3.3", "--out", str(out)])
        (out / "plot.svg").unlink()
        rc = main(["report", str(out)])
        assert rc == 0
        tree = ET.parse(out / "plot.svg")
        assert tree.getroot().tag.endswith("svg")

    def test_failed_row_round_trip(self, tmp_path):
        ok = MetricsReport(ber=1e-3, gmi_bits=3.0, ngmi=0.95, required_code_rate=0.9,
                           achievable_bitrate_gbps=640.0, net_bitrate_gbps=620.0,
                           symbol_rate_gbd=216.0, entropy_bits=3.2, label_bits=4,
                           seed=1)
        rows = (SweepRow(3.0, ok), SweepRow(3.4, None, "stage 'rxdsp' failed: boom"))
        text = sweep_to_csv(SweepResult("entropy_bits", rows))
        (tmp_path / "sweep.csv").write_text(text)
        assert main(["report", str(tmp_path)]) == 0
        # one plotted row: an achievable and a net marker
        assert (tmp_path / "plot.svg").read_text().count("<circle") == 2

    def test_malformed_csv(self, tmp_path, capsys):
        (tmp_path / "sweep.csv").write_text("entropy_bits,ber\n3.0,abc\n")
        assert main(["report", str(tmp_path)]) == 1
        assert "not a sweep table" in capsys.readouterr().err

    def test_empty_csv(self, tmp_path, capsys):
        (tmp_path / "sweep.csv").write_text("")
        assert main(["report", str(tmp_path)]) == 1
        assert "no successful rows to plot" in capsys.readouterr().err

    def test_unreadable_csv(self, tmp_path, capsys):
        (tmp_path / "sweep.csv").mkdir()
        assert main(["report", str(tmp_path)]) == 1
        assert "error [report]:" in capsys.readouterr().err

    def test_missing_csv(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path)])
        assert rc == 1
        assert "not found" in capsys.readouterr().err
