"""The scripts under `scripts/` run to completion on small bounds."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "command",
    [
        ["reproduce_tables.py"],
        ["sweep_corpus.py", "--max-nu", "4"],
        ["signature_evidence.py", "--max-nu", "4"],
    ],
)
def test_script_runs(command):
    script, *args = command
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
