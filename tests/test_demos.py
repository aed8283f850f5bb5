"""The demos replayed against recorded output.

Each demo runs in a fresh directory holding a copy of demos/groups/, with
this checkout's src/ on PYTHONPATH.  Its stdout is compared with
tests/golden/demo-NN.out, and the charts demo 04 writes with demos/out/.
Nothing is written into the checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
CHARTS = {"04_projective_picture": ["affine-3-3-3.svg",
                                     "hyperbolic-3-3-4.svg"]}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo, tmp_path):
    shutil.copytree(ROOT / "demos" / "groups", tmp_path / "demos" / "groups")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    golden = ROOT / "tests" / "golden" / ("demo-%s.out" % demo.stem[:2])
    assert run.stdout == golden.read_text()
    out = tmp_path / "demos" / "out"
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == CHARTS.get(demo.stem, [])
    for name in written:
        assert ((out / name).read_bytes()
                == (ROOT / "demos" / "out" / name).read_bytes()), name
