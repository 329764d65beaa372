import subprocess
import sys
from pathlib import Path

from conftest import fast_link_config
from imddsim import save_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_heap_profile_smoke(tmp_path):
    config = tmp_path / "fast.json"
    save_config(fast_link_config(), config)
    out = subprocess.run([sys.executable, str(SCRIPTS / "heap_profile.py"), str(config), "--dpd"],
                         check=True, capture_output=True, text=True, timeout=120).stdout
    header, *rows = (line.split() for line in out.splitlines())
    assert header == ["pass", "stage", "VmHWM", "RssAnon", "arena", "in_use"]
    stages = ["(start)", "dpd_training/shaping", "dpd_training/frontend",
              "dpd_training/channel", "dpd_training/rxdsp", "dpd_training", "shaping",
              "txdsp", "frontend", "channel", "rxdsp", "metrology"]
    assert [row[:2] for row in rows] == [[p, s] for p in ("first", "warm") for s in stages]
    for row in rows:
        assert len(row) == 6
        assert all(cell == "-" or float(cell) > 0 for cell in row[2:])
        if sys.platform == "linux":
            assert float(row[2]) >= float(row[3]) > 0  # peak >= current anonymous RSS
