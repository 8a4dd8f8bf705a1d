"""Run one benchmark workload and print its metrics as one JSON line.

Run from the root of a checkout that holds ``src/qanet`` and
``BENCHMARK.json``:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 30 --trace 0

This process writes the seeded inputs, starts the stub translator for
augment_http, and then runs ``workload.py`` in a fresh interpreter with BLAS
pinned to one thread, so that input generation and the stub never count
towards the measured process. The last stdout line is the result: with
``--trace 0`` every end-to-end metric of BENCHMARK.json, with ``--trace 1``
every per-layer metric. The line before it holds the run's facts: op and
sample counts, the tail percentile, and the machine.

Everything written goes to ``.perfbench_out/`` in the checkout; the inputs
of a run are deleted when it ends, traces and output digests are kept.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_desk", "predict_paper", "augment_http")
# Whole-run limit, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
    env.update(PINNED)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def start_stub(env: dict) -> tuple[subprocess.Popen, str]:
    stub = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "stub.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    port = stub.stdout.readline().strip()
    if not port.isdigit():
        stop(stub)
        raise RuntimeError("stub translator did not report a port")
    return stub, f"http://127.0.0.1:{port}"


def stop(proc: subprocess.Popen | None) -> None:
    if proc is None:
        return
    if proc.stdin:
        proc.stdin.close()
    if proc.poll() is None:
        proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def result_line(bench: dict, result: dict, trace: int) -> dict:
    """The contract's result object, with metrics named by BENCHMARK.json."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    values = result["values"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input shapes; tiny is for the self-test only")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qanet", "__init__.py")):
        print("error: run from a checkout root holding src/qanet", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    env = child_env(root)
    os.environ.update(PINNED)
    sys.path.insert(0, os.path.join(root, "src"))
    import fixtures

    state = os.path.join(root, ".perfbench_out")
    run_dir = os.path.join(state, f"run-{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    stub = child = None
    try:
        spec = fixtures.generate(args.workload, args.size, args.seed, run_dir)
        spec["size"] = args.size
        spec_path = os.path.join(run_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        stub_url = ""
        if args.workload == "augment_http":
            stub, stub_url = start_stub(env)
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py"),
             "--workload", args.workload, "--spec", spec_path,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", run_dir, "--state", state,
             "--stub-url", stub_url],
            stdout=subprocess.PIPE, env=env, text=True)
        out, _ = child.communicate(timeout=RUN_LIMIT_S - (time.monotonic() - started))
        if child.returncode != 0:
            print(f"error: workload exited with {child.returncode}", file=sys.stderr)
            return 1
        lines = out.strip().splitlines()
        line = result_line(bench, json.loads(lines[-1]), args.trace)
    except subprocess.TimeoutExpired:
        print("error: workload ran past the time limit", file=sys.stderr)
        return 1
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        stop(stub)
        shutil.rmtree(run_dir, ignore_errors=True)
    for fact in lines[:-1]:
        print(fact)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
