"""The scripts README advertises run to completion."""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")])))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)] + args,
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script,args", [
    ("overfit_demo.py", ["--steps", "5", "--out-dir", "{tmp}"]),
    ("augment_demo.py", ["--k", "2"]),
])
def test_demo_script_exits_zero(script, args, tmp_path):
    run_script(script, [a.format(tmp=tmp_path) for a in args])


def test_bitwise_digest_prints_one_json_line():
    """Nine digests on one line; the resumed run's files equal the fresh one's."""
    (line,) = run_script("bitwise_digest.py", ["--steps", "2"]).splitlines()
    digests = json.loads(line)
    assert len(digests) == 9 and digests.pop("steps") == 2
    assert all(len(v) == 64 for v in digests.values())
    for name in ("model.ckpt", "metrics.jsonl"):
        assert digests[f"resumed.{name}"] == digests[f"fresh.{name}"]
