"""The strict typing gate (runs only where mypy is installed).

CI runs mypy on the fully-annotated packages; locally this test skips
when mypy is absent so the tier-1 suite has no new dependencies.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GATED = [
    "src/repro/graph",
    "src/repro/utils",
    "src/repro/partition/config.py",
    "src/repro/analysis",
    "src/repro/obs",
]

pytestmark = pytest.mark.skipif(
    shutil.which("mypy") is None, reason="mypy not installed"
)


def test_gated_packages_pass_strict_mypy():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", *GATED],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
