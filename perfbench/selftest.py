#!/usr/bin/env python3
"""Check that the benchmark's output checks can fail.

    python3 perfbench/selftest.py

Runs, from the root of the checkout:
  * sim_sweep and compile_corpus with one expected print() value
    altered (--corrupt=expected), and serve_mix with one byte of one
    served document flipped (--corrupt=served): each must exit non-zero
    and report "correct": false;
  * the benchmark from a directory holding only BENCHMARK.json and
    perfbench/: it must exit non-zero without printing a result.
Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    ok = True
    for workload, corrupt in [("sim_sweep", "expected"),
                              ("compile_corpus", "expected"),
                              ("serve_mix", "served")]:
        proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--corrupt=" + corrupt], ROOT)
        result = last_json(proc.stdout)
        good = (proc.returncode != 0 and result is not None
                and result.get("correct") is False)
        ok = ok and good
        print("%-14s --corrupt=%-8s exit %d, correct=%s: %s"
              % (workload, corrupt, proc.returncode,
                 None if result is None else result.get("correct"),
                 "ok" if good else "NOT DETECTED"))

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                os.path.join(ROOT,
                                                             ".bench_build")))
    os.makedirs(build_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=build_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        good = proc.returncode != 0 and last_json(proc.stdout) is None
        ok = ok and good
        print("without sources: exit %d, result printed: %s: %s"
              % (proc.returncode, last_json(proc.stdout) is not None,
                 "ok" if good else "WRONG"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
