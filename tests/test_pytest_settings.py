"""The suite's own pytest settings (``pyproject.toml``).

Tier-1 turns every warning into an error. A failing ``@given`` test
makes hypothesis' failure reporter import libcst, which imports the
deprecated ``mypy_extensions.TypedDict``; as an error, that warning
became a pytest INTERNALERROR that aborted the whole run (exit 3) and
ran no later test. The settings ignore exactly that one warning.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

PROPERTY_TEST = """\
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_fails_normally(tmp_path):
    root = Path(__file__).resolve().parents[1]
    shutil.copy(root / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_property.py").write_text(PROPERTY_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
