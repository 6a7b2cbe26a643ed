"""Every script in ``demos/`` and the README's "Library use" snippet run to
completion, each in a fresh interpreter that imports the package from ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _library_use_snippet() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _run(args: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # Demos that write files put them in a temporary directory; keep it here.
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir()), "demo left files behind"


def test_readme_library_use_runs(tmp_path):
    proc = _run(["-c", _library_use_snippet()], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
