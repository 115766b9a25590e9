#!/usr/bin/env python3
"""Build the program from source and make one measured benchmark run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds this
directory's CMake package (the harness plus the program it drives) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. The harness then runs with a fresh scratch directory
under .bench_scratch/, which is removed afterwards together with every
process the run started. The harness's stdout passes through unchanged:
its last line is the result object. On any failure the script exits
non-zero without printing a result.

    python3 perfbench/run.py --self-test

builds and runs the harness's own unit tests instead.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_study", "intake", "stream")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configure once, then build `targets`; returns the build directory."""
    for required in ("src/CMakeLists.txt", "bench/CMakeLists.txt", "CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail(f"no program sources here ({required} is missing)", 2)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def source_rev():
    """git revision when this is a git checkout, plus a digest of the sources."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            rev = done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return f"git={rev} tree={digest.hexdigest()[:16]}"


def stop_group(proc):
    """SIGKILL whatever is left of the run's process group and wait it out."""
    pgid = proc.pid
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_tests")]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required", 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    build_dir = build(["perfbench"])
    scratch = os.path.join(ROOT, ".bench_scratch", f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch", scratch, "--out", os.path.join(ROOT, ".bench_out"),
               "--rev", source_rev()]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)

    def forward_signal(signum, _frame):
        stop_group(proc)
        shutil.rmtree(scratch, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, forward_signal)
    signal.signal(signal.SIGINT, forward_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        stop_group(proc)
        out, _ = proc.communicate()
        code = None
    finally:
        stop_group(proc)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    text = out.decode(errors="replace")
    if code != 0:
        sys.stderr.write(text)
        fail(f"{args.workload} run failed ({'timed out' if code is None else f'exit {code}'})")
    sys.stdout.write(text)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
