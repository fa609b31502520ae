#!/usr/bin/env python3
"""Builds and runs one measurement of the performa benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench` (release) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload, and
prints a `{"host": ...}` record followed by the benchmark's own output,
whose last line is the JSON result. Traced runs also write their spans
to `<target dir>/perfbench-traces/<workload>-<seed>.ndjson`.
See perfbench/METHODOLOGY.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = ROOT / "perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return {"git_sha": out.stdout.strip()}
    digest = hashlib.sha256()
    for top in ["Cargo.lock", "crates", "shims", "perfbench"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file() and "target" not in p.parts)
        for p in files:
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return {"git_sha": None, "source_sha256": digest.hexdigest()}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (ROOT / "crates").is_dir():
        sys.exit("perfbench: run from the repository root (no crates/ here)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    env.pop("PERFORMA_THREADS", None)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    load_before = os.getloadavg()
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--refs", str(BENCH / "refs.tsv")]
    if args.trace == "1":
        cmd += ["--trace-out",
                str(target / "perfbench-traces" / f"{args.workload}-{args.seed}.ndjson")]
    run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: {args.workload} exited with {run.returncode}")

    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    if (ROOT / "BENCHMARK.json").exists():
        missing = declared_metrics(args.trace == "1") - set(result["metrics"])
        if missing:
            sys.exit(f"perfbench: metrics not measured: {sorted(missing)}")

    host = {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "load_before": [round(x, 2) for x in load_before],
        "load_after": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        **source_id(),
    }
    print(json.dumps({"host": host}))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
