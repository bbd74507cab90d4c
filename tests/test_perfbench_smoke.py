"""Short traced benchmark runs: every expected layer wrapper fires and no op fails.

A traced run exits non-zero when a wrapper in ``perfbench/tracing.py`` never
fires, for example after the program stops calling a function by the name
the wrapper replaces.  The runs write only under ``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["body_lp", "market_tree", "risk_desk", "cli_batch"])
def test_traced_run_fires_every_wrapper_and_passes_its_checks(workload):
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "0.3",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, result.stderr
