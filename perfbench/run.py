#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--save FILE] [--baseline FILE]
    python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark program is built from
source with CMake into $CARGO_TARGET_DIR (default .bench_build); spans
and sockets go to .bench_out.  The last line of standard output is the
JSON result.

--save FILE keeps the run's output; --baseline FILE compares this run
with a saved one, and refuses (exit 3) when the host header differs in
anything but the commit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
HOST_FIELDS = ("nproc", "jit", "clmul", "build")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", out, "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, target)


def commit_id():
    """The git commit, or a digest of the sources outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def parse_output(text):
    """(host fields, result object) of one run's standard output."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or not lines[0].startswith("host: "):
        fail("output has no host header")
    host = dict(kv.split("=", 1) for kv in lines[0][len("host: "):].split())
    return host, json.loads(lines[-1])


def compare(baseline_path, text):
    with open(baseline_path) as f:
        base_host, base = parse_output(f.read())
    host, cur = parse_output(text)
    differ = [k for k in HOST_FIELDS if base_host.get(k) != host.get(k)]
    if differ:
        fail("refusing to compare: host header differs in %s (%s vs %s)" % (
            ", ".join(differ),
            " ".join("%s=%s" % (k, base_host.get(k)) for k in differ),
            " ".join("%s=%s" % (k, host.get(k)) for k in differ)), code=3)
    print("compare: baseline commit %s, this run commit %s" % (
        base_host.get("commit"), host.get("commit")), file=sys.stderr)
    for name, m in cur["metrics"].items():
        b = base["metrics"].get(name)
        if b is None:
            continue
        ratio = m["value"] / b["value"] if b["value"] else float("nan")
        print("compare: %-44s %14.6g -> %14.6g %-9s (x%.4f)" % (
            name, b["value"], m["value"], m["unit"], ratio), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--baseline")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree next to perfbench/: run from a repository checkout")
    os.chdir(ROOT)
    if args.self_test:
        # The tests open a unix socket in their working directory.
        sys.exit(subprocess.run([build("perfbench-tests")],
                                cwd=build_dir()).returncode)

    exe = build("gfp-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(), "--out-dir", ".bench_out"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        sys.exit(r.returncode)
    if args.save:
        with open(args.save, "w") as f:
            f.write(r.stdout)
    if args.baseline:
        compare(args.baseline, r.stdout)


if __name__ == "__main__":
    main()
