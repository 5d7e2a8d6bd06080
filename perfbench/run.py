#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the program from ../src with perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
repository root), runs one workload in its own process, and prints:

  * a '# envelope {...}' line: source revision, build type, compiler, nproc,
    CPU model, date, workload, seed and run length;
  * the harness's human-readable report ('#' lines);
  * as the last line, one JSON object with exactly the keys correct,
    attempted, failed and metrics. --trace 0 gives the end-to-end metrics of
    BENCHMARK.json, --trace 1 the per-layer ones.

Exit status: 0 when the run is correct; 1 when the correctness verdict
failed (the result line is still printed); anything else, with no result
line, when the build, the run or the result's shape failed.
"""

import argparse
import datetime
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["inproc_steady", "socket_steady", "inproc_saturate", "watch_steady"]
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns the build directory."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise RuntimeError(f"building {target} failed")
    return out


def source_digest():
    """Digest of every file the benchmark builds from (the checkout may not be git)."""
    h = hashlib.sha256()
    files = sorted(
        [p for p in (ROOT / "src").rglob("*") if p.is_file()]
        + [p for p in (ROOT / "bench").glob("loadgen.*") if p.is_file()]
        + [p for p in HERE.rglob("*") if p.is_file() and "__pycache__" not in p.parts])
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cmake_cache(out, key):
    try:
        for line in (out / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def envelope(out, args):
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "compiler": version,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Raises unless `result` has the expected keys and the metric set of BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            raise ValueError(f"metric {name} is malformed")


def selftest():
    out = build("perfbench_helpers_test")
    return subprocess.run([str(out / "perfbench_helpers_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness helper tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "runtime" / "shard_pool.h").is_file() or \
            not (ROOT / "bench" / "loadgen.cc").is_file():
        log(f"no program sources beside {HERE.name}/ (expected src/ and bench/loadgen.cc)")
        return 3
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.trace, args.seconds) or args.seconds < 1:
        parser.error("--workload, --seed, --seconds (>= 1) and --trace are required")

    out = build("perfbench")
    traces = out / "traces"
    traces.mkdir(exist_ok=True)
    print("# envelope " + json.dumps(envelope(out, args)), flush=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--trace-dir", str(traces)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 5
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        log(f"run failed with status {run.returncode}")
        return 6
    result = json.loads(lines[-1])
    try:
        check_result(result, args.trace == 1)
    except ValueError as e:
        log(f"malformed result: {e}")
        return 7
    for line in lines[:-1]:
        print(line)
    print(lines[-1], flush=True)
    if run.returncode != 0 or not result["correct"]:
        log("correctness verdict failed")
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError) as e:
        log(str(e))
        sys.exit(8)
