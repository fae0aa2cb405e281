#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py \\
        --workload paper_figs|design_sweep|service_replay \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the simulator library with
the repository's own CMake project and the benchmark binary
tdm_perfbench (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default
.bench_build), runs the workload for S seconds, checks every output,
and prints every metric by name with its unit. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run alternates untraced and traced repetitions and reports the
per-layer ones. perfbench/README.md explains the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import perfstats  # noqa: E402

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BuildError(Exception):
    pass


def build(build_dir):
    """Build libtdm (repository CMake) and tdm_perfbench; return the
    binary's path. Output goes to build_dir/build.log."""
    tdm_dir = os.path.join(build_dir, "tdm")
    pb_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(tdm_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", tdm_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tdm_dir, "--target", "tdm",
                  "-j", jobs])
    if not os.path.exists(os.path.join(pb_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", pb_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DTDM_BUILD_DIR=" + tdm_dir])
    steps.append(["cmake", "--build", pb_dir, "-j", jobs])
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BuildError(f"{cmd[0]}: {e}")
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                raise BuildError(f"build step failed: {' '.join(cmd)}\n{tail}")
    return os.path.join(pb_dir, "tdm_perfbench")


def run_binary(binary, args, workdir):
    """Run tdm_perfbench; return (raw result, spans)."""
    spans_path = os.path.join(workdir, "spans.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    if args.trace:
        cmd += ["--trace", "--spans", spans_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"tdm_perfbench exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    spans = []
    if args.trace:
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
    return raw, spans


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=perfstats.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no simulator sources next to perfbench/; "
              "run it from a full checkout", file=sys.stderr)
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, "work",
                           f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        raw, spans = run_binary(binary, args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = perfstats.Checks(raw["attempted"], raw["failed"],
                              raw["failures"])
    expected = load_expected()
    digest = raw["notes"].get("digest", "")
    if args.seed == expected["seed"] or \
            args.workload in expected["seed_independent"]:
        want = expected["digests"][args.workload]
        checks.check(digest == want,
                     f"output digest {digest} != pinned {want}")

    if args.trace:
        metrics = perfstats.per_layer_metrics(raw, spans)
        units = perfstats.PER_LAYER
    else:
        metrics = perfstats.end_to_end_metrics(raw, checks)
        units = perfstats.END_TO_END

    series = raw["series"]
    split = perfstats.source_split(raw)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  digest {digest}")
    print("split per repetition: " +
          " ".join(f"{k}={v:g}" for k, v in split.items()))
    print(f"samples: {len(series.get('campaign_s', []))} timed "
          f"repetitions, {len(series.get('setup_s', []))} set-ups, "
          f"{len(series.get('submit_ms', []))} latencies")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")
    for msg in checks.messages:
        print(f"FAILED: {msg}")
    print(json.dumps(perfstats.result_line(checks, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
