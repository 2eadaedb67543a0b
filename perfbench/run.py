#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload construct_heavy --seed 1 \
        --seconds 40 --trace 0

Run from the repository root. Builds the library, the query server and
the benchmark runner from source into .bench_build/perfbench (once;
later runs rebuild incrementally), runs the workload, and prints its
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run. served_mixed starts privbasis_server on an
ephemeral loopback port with a fresh state directory and stops it
afterwards. Exits non-zero, printing no result, when the build, the
server or the runner fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("construct_heavy", "served_mixed")

RUNNER_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    runner = build_dir / "perfbench_runner"
    before = runner.stat().st_mtime_ns if runner.exists() else None
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return False
    if runner.stat().st_mtime_ns != before:
        # A fresh build leaves its outputs as dirty pages; flush them now so
        # their writeback does not land in the measurement.
        os.sync()
    return True


def start_server(build_dir, state_dir):
    threads = str(os.cpu_count() or 1)
    cmd = [str(build_dir / "privbasis_server"), "--port", "0",
           "--threads", threads, "--state-dir", str(state_dir),
           "--fsync", "never", "--batch-window-us", "2000",
           "--max-batch", "8", "--slo-ms", "0", "--max-queue", "64"]
    # One scan thread per query: the server already runs one query per
    # core, so per-query parallelism would only oversubscribe the cores.
    env = dict(os.environ, PRIVBASIS_THREADS="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("listening on http://"):
            port = int(line.strip().rsplit(":", 1)[1])
            return proc, port
    stop_server(proc)
    return None, 0


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def run_workload(cmd):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("runner timed out")
        return None
    if done.returncode != 0:
        log("runner exited with %d" % done.returncode)
        return None
    return done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    build_dir = Path.cwd() / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not build(bench_dir, build_dir):
        log("build failed")
        return 1

    out_dir = build_dir / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(build_dir / "perfbench_runner"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]

    if args.workload != "served_mixed":
        stdout = run_workload(cmd)
    else:
        state_dir = build_dir / ("state-%d" % os.getpid())
        shutil.rmtree(state_dir, ignore_errors=True)
        server, port = start_server(build_dir, state_dir)
        if server is None:
            log("server did not start")
            shutil.rmtree(state_dir, ignore_errors=True)
            return 1
        try:
            stdout = run_workload(cmd + [
                "--port", str(port), "--server-pid", str(server.pid),
                "--state-dir", str(state_dir)])
        finally:
            stop_server(server)
            shutil.rmtree(state_dir, ignore_errors=True)

    if not stdout or not stdout.strip().splitlines()[-1].startswith("{"):
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
