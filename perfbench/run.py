#!/usr/bin/env python3
"""Build the elag toolchain from this checkout and run one benchmark
workload.

    python3 perfbench/run.py --workload sim_sweep --seed 1 \
        --seconds 27 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the first run configures and compiles, later runs only check
that the build is up to date. Build output goes to stderr, so the last
line of stdout is always the benchmark's JSON result. Any further
arguments (for example --corrupt=expected, see perfbench/selftest.py)
are passed to the benchmark program unchanged.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        die("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_checked(["cmake", "--build", build_dir, "--target", "perfbench",
                 "elagd", "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sim_sweep", "compile_corpus", "serve_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no elag sources next to %s; nothing to build" % HERE)
    if shutil.which("cmake") is None:
        die("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.abspath(target)
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_root, exist_ok=True)
    build(build_dir)

    # The measured program sees no ELAG_* overrides: default dispatch
    # engine, no trace channels, no span tracer armed.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ELAG_")}
    work_dir = tempfile.mkdtemp(prefix="run-", dir=build_root)
    trace_out = os.path.join(build_root, "spans-%s-%d.json"
                             % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds,
           "--trace=%d" % args.trace,
           "--elagd=" + os.path.join(build_dir, "elag", "tools", "elagd"),
           "--data-dir=" + HERE,
           # Relative, so Unix socket paths stay short wherever the
           # checkout lives.
           "--work-dir=" + os.path.relpath(work_dir),
           "--trace-out=" + trace_out] + extra
    # Own process group, so a timeout can stop the benchmark program
    # and any elagd it started together.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
