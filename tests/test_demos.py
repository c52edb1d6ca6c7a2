"""Each demo the README lists runs to completion.

The demos import ckoord from the same source tree as the suite, and run in
a scratch directory so that nothing they might write lands in the repo.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ckoord

ROOT = Path(__file__).resolve().parents[1]
README_DEMOS = re.findall(r"^python3 (demos/\w+\.py)", (ROOT / "README.md").read_text(), re.M)


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
