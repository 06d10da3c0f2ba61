"""The scripts under scripts/ import and parse their arguments."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


@pytest.mark.parametrize("script", ["run_blobs10.py", "run_noniid.py"])
def test_script_help_exits_0(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
