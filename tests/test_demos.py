"""Smoke test: the narrative demos still run against the current API.

demos/04_separation_pipeline.py is left out on purpose: it trains a model
past +10 dB SI-SNR improvement, which takes minutes, and the same training
path is already gated by acceptance criterion 6.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepscan

REPO = Path(__file__).resolve().parents[1]
DEMOS = ["01_scan_duality.py", "02_parallel_scan.py", "03_memory_scaling.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    # run against the same sepscan this test process imported
    src = str(Path(sepscan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=REPO,
                       env={**os.environ, "PYTHONPATH": path},
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
