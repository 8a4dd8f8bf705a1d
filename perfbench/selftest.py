"""Self-tests of the benchmark harness. Run from the checkout root:

    python3 perfbench/selftest.py

Checks self time on a hand-built span tree, that the decode check catches
a wrong decode, that a missing program name is reported rather than fatal,
that unrecorded ops pass the wrappers without a trace, that the traced
run's accounting check sees recorded ops that take twice as long,
a tiny-size smoke run of every workload (untraced and traced, the same seed
twice so that the output digests are compared), and that the benchmark
refuses to run without the program. Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from spans import NAME, Tracer, self_times  # noqa: E402


def check_self_time() -> None:
    # root 0-10; a 1-4 holds a1 2-3; b 3-6 overlaps a; c 8-12 runs past root.
    spans = [["root", 0.0, 10.0, None, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["a1", 2.0, 3.0, 1, 0],
             ["b", 3.0, 6.0, 0, 0],
             ["c", 8.0, 12.0, 0, 0]]
    got = dict(zip((s[NAME] for s in spans), self_times(spans)))
    want = {"root": 10.0 - 5.0 - 2.0, "a": 2.0, "a1": 1.0, "b": 3.0, "c": 4.0}
    assert got == want, got


def check_decode_check() -> None:
    from qanet.span import SpanPrediction, dp_span_inference
    from workload import best_span_by_enumeration, decodes_match

    rng = np.random.default_rng(5)
    p1, p2 = rng.random(60), rng.random(60)
    p1[3], p2[50] = 5.0, 5.0  # the best pair overall is longer than the cap
    right = dp_span_inference(p1, p2, max_len=30)
    assert best_span_by_enumeration(p1, p2, 30) == (right.start, right.end)
    calls = [(p1, p2, 30, right)]
    assert decodes_match(calls, [right])
    # A decode that ignores the width cap picks (3, 50); the check must see it.
    wrong = SpanPrediction(start=3, end=50, score=25.0)
    assert not decodes_match(calls, [wrong])
    assert not decodes_match(calls, [right, right])


def check_missing_name() -> None:
    tracer = Tracer()
    module = types.ModuleType("gone")
    tracer.wrap(module, "no_such_function", "x")
    assert tracer.missing == ["gone.no_such_function"]


def check_unrecorded_op() -> None:
    tracer = Tracer()
    module = types.ModuleType("m")
    module.f = lambda x: x + 1
    tracer.wrap(module, "f", "layer")
    with tracer.operation(0, record=False):
        assert module.f(1) == 2
        tracer.count("k")
    assert tracer.spans == [] and not tracer.counts
    with tracer.operation(1):
        assert module.f(1) == 2
        tracer.count("k")
    assert [s[NAME] for s in tracer.spans] == ["op", "layer"]
    assert tracer.counts == {"k": 1.0}


def check_accounting() -> None:
    from workload import accounted_share, recorded

    cycle = 4
    kinds = [recorded(i, cycle) for i in range(2 * cycle)]
    for p in range(cycle):  # every input once each way per pair of cycles
        assert kinds[p] != kinds[p + cycle]
    inputs = [1.0, 0.2, 0.7, 0.4]  # seconds per input, by cycle position
    ops = [(inputs[i % cycle], 1, r, i % cycle) for i, r in enumerate(kinds)]
    ops.append((5.0, 1, recorded(len(ops), cycle), "seen one way only"))
    exact = {i: op[0] for i, op in enumerate(ops) if op[2]}
    assert abs(accounted_share(ops, exact) - 1.0) < 1e-12
    # A tracer that ran each recorded op twice must be seen.
    doubled = {i: 2 * t for i, t in exact.items()}
    assert abs(accounted_share(ops, doubled) - 2.0) < 1e-12


def run_benchmark(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_smoke_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in ("train_desk", "predict_paper", "augment_http"):
        for trace in (0, 1, 0):
            done = run_benchmark(["--workload", workload, "--seed", "7",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--size", "tiny"])
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            names = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
            assert result["correct"] and result["failed"] == 0, (workload, result)
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == names, (workload, trace)
            print(f"ok smoke {workload} trace={trace} ops={result['attempted']}")


def check_refuses_without_program() -> None:
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train_desk",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0 and not done.stdout.strip(), done
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for check in (check_self_time, check_decode_check, check_missing_name,
                  check_unrecorded_op, check_accounting,
                  check_refuses_without_program, check_smoke_runs):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
