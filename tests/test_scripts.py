"""The demo scripts README advertises run to completion."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.mark.parametrize("script,args", [
    ("overfit_demo.py", ["--steps", "5", "--out-dir", "{tmp}"]),
    ("augment_demo.py", ["--k", "2"]),
])
def test_demo_script_exits_zero(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")])))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)]
        + [a.format(tmp=tmp_path) for a in args],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
