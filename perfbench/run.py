#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
perfbench binary and the library it links (sources under src/) into
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr, so the binary's last stdout line — one JSON object — is the
last line of this script's stdout. Exits non-zero, printing no result, when
the build fails (for example when the library sources are missing).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # A configure that failed leaves a cache but no build files.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return False
    return True


def selftest():
    """The binary's own self-test, then its workload and metric lists
    against BENCHMARK.json."""
    failed = subprocess.run([BINARY, "--selftest"]).returncode != 0
    listed = json.loads(subprocess.run([BINARY, "--list"], check=True,
                                       stdout=subprocess.PIPE,
                                       text=True).stdout)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for key in ("workloads", "end_to_end", "per_layer"):
        if key == "workloads":
            want = [w["name"] for w in declared[key]]
        else:
            want = [{"name": m["name"], "unit": m["unit"]}
                    for m in declared[key]]
        ok = listed[key] == want
        print("%s BENCHMARK.json %s match the binary" %
              ("ok  " if ok else "FAIL", key))
        failed = failed or not ok
    return 1 if failed else 0


def main(argv):
    if not build():
        return 1
    if argv == ["--selftest"]:
        return selftest()
    args = list(argv)
    name = args[args.index("--workload") + 1] if "--workload" in args[:-1] \
        else "run"
    args += ["--trace-file", os.path.join(BUILD, "spans-%s.json" % name)]
    return subprocess.run([BINARY] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
