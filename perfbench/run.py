#!/usr/bin/env python3
"""Host-time benchmark for HardSnap campaigns (see perfbench/README.md).

    python3 perfbench/run.py --workload fuzz-sim --seed 1 --seconds 10 --trace 0

Builds the program (src/, tools/hardsnapd) and the benchmark binaries from
the checkout this file sits in, into .bench_build/ at the checkout root,
then replaces itself with the benchmark binary for the workload:
hsperf for --trace 0 (end-to-end metrics), hsperf_traced for --trace 1
(per-layer metrics). The last line of standard output is the result
object; build output and progress go to standard error.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fuzz-sim", "symex-fpga", "fuzz-remote")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "run")
# Everything compiled into the binaries; the digest proves which sources
# the binary that reports the numbers was built from.
DIGEST_INPUTS = ("src", "tools", os.path.join("perfbench", "cpp"),
                 os.path.join("perfbench", "CMakeLists.txt"))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    files = []
    for entry in DIGEST_INPUTS:
        if os.path.isfile(entry):
            files.append(entry)
        for dirpath, dirnames, filenames in os.walk(entry):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def write_if_changed(path, text):
    try:
        with open(path) as f:
            if f.read() == text:
                return
    except OSError:
        pass
    with open(path, "w") as f:
        f.write(text)


def build(targets, digest):
    generated = os.path.join(BUILD_DIR, "generated")
    os.makedirs(generated, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    write_if_changed(os.path.join(generated, "source_digest.h"),
                     '#define HSPERF_SOURCE_DIGEST "%s"\n' % digest)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                   + targets, stdout=sys.stderr, check=True, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    os.chdir(ROOT)
    for required in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                     "tools/hardsnapd.cpp"):
        if not os.path.isfile(required):
            fail("no HardSnap sources in %s (missing %s)" % (ROOT, required))

    digest = source_digest()
    binary = "hsperf_traced" if args.trace else "hsperf"
    try:
        build([binary, "hardsnapd"], digest)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    os.makedirs(WORK_DIR, exist_ok=True)

    path = os.path.join(BUILD_DIR, binary)
    hardsnapd = os.path.join(BUILD_DIR, "hardsnap_tools", "hardsnapd")
    argv = [path,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--firmware-dir", os.path.join("perfbench", "firmware"),
            "--work-dir", WORK_DIR,
            "--hardsnapd", hardsnapd,
            "--source-digest", digest]
    print("perfbench: %s from sources %s" % (" ".join(argv), digest),
          file=sys.stderr, flush=True)
    sys.stdout.flush()
    os.execv(path, argv)


if __name__ == "__main__":
    main()
