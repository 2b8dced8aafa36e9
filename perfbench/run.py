#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <jit_fp|serve_jvm|serve_jvm_retrain> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) that depends on the crates under crates/ by path; it
is built in release mode into $CARGO_TARGET_DIR (default .bench_build) and
then run with the same arguments. A `# host:` line describing the machine
(CPU count, CPU model, rustc version, source commit, workload seed) is
printed before the benchmark's own output, whose last line is the JSON
result. The exit code is the benchmark's: 0 only when every output check
passed.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
RUN_TIMEOUT_S = 175


def command_output(args):
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    head = command_output(["git", "rev-parse", "HEAD"])
    if head:
        return "git:" + head
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for directory, subdirs, names in os.walk(path):
            subdirs[:] = sorted(d for d in subdirs if d not in ("out", "target"))
            files.extend(os.path.join(directory, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def seed_argument(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seed":
            return value
    return None


def main():
    argv = sys.argv[1:]
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1

    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"]) or "unknown",
        "commit": source_commit(),
        "seed": seed_argument(argv),
    }
    env["PERFBENCH_HOST"] = json.dumps(host)
    # One malloc arena: with glibc's default of one per thread, the
    # server's threads leave a peak RSS that varies by several MiB from
    # run to run with how allocations happened to spread, which would
    # swamp the growth of the retrain corpus that peak_rss_mb is there
    # to show.
    env["MALLOC_ARENA_MAX"] = "1"
    print("# host: " + json.dumps(host), flush=True)
    try:
        done = subprocess.run([os.path.join(target, "release", "perfbench")] + argv, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run did not finish within %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
