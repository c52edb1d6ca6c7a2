"""Each demo the README lists runs to completion.

The demos import ckoord from the same source tree as the suite, and run in
a scratch directory so that nothing they might write lands in the repo.  A
demo with a pinned digest must print exactly the output it pins.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ckoord

ROOT = Path(__file__).resolve().parents[1]
README_DEMOS = re.findall(r"^python3 (demos/\w+\.py)", (ROOT / "README.md").read_text(), re.M)
# sha256 of the stdout; the rolling-stats demo draws from a seeded
# random.Random, so what it prints is fixed
PINNED_STDOUT = {
    "demos/rolling_stats.py": "b0df73b739329779531451fcd4169b4f9ed07bac7c8d6042bc8ca9329a7cc9fa",
}


def test_readme_lists_every_demo():
    assert sorted(README_DEMOS) == sorted(str(p.relative_to(ROOT)) for p in ROOT.glob("demos/*.py"))
    assert len(README_DEMOS) == 4


@pytest.mark.parametrize("script", README_DEMOS)
def test_demo_exits_zero(tmp_path, script):
    src = str(Path(ckoord.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    if script in PINNED_STDOUT:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED_STDOUT[script]
