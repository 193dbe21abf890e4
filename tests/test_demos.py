"""The demo scripts and the README's Python quickstart run to completion
against the sources in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_exist():
    assert DEMOS


def _script(path, tmp_path):
    """The demo itself, or the README's fenced ``python`` blocks as one script."""
    if path.suffix == ".py":
        return path
    blocks = re.findall(r"^```python\n(.*?)^```$", path.read_text(), re.M | re.S)
    assert blocks, f"{path.name} has no python block"
    script = tmp_path / "quickstart.py"
    script.write_text("\n".join(blocks))
    return script


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(_script(demo, tmp_path))],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
