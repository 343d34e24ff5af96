#!/usr/bin/env python3
"""perfbench entry point: build from source, then measure one workload.

    python3 perfbench/run.py --workload cache-d1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke    # every workload briefly, output checked
    python3 perfbench/run.py --test     # unit tests, then --smoke

Run from the repository root (any directory works; paths are resolved from
this file). The build goes to $CARGO_TARGET_DIR if set, else .bench_build/.
The last line of stdout is the result JSON; build logs go to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["perfbench", "perfbench_test", "tierbase_server", "tierbase_proxy",
           "tierbase_coordinator"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed (are the TierBase sources next to perfbench/?)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"] + TARGETS,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    cache = open(os.path.join(out, "CMakeCache.txt")).read()
    if "CMAKE_BUILD_TYPE:STRING=Debug" in cache:
        fail("refusing to measure a Debug build")
    for line in cache.splitlines():
        if line.startswith("TIERBASE_SANITIZE:") and line.split("=", 1)[1] not in ("OFF", ""):
            fail("refusing to measure a sanitizer build")
    return out


def commit_id():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "include", "examples", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def run_workload(out, workload, seed, seconds, trace, smoke=False, capture=False):
    base = os.path.join(ROOT, ".bench_work")
    # Work dirs are named <workload>-<pid>; drop those of runs that died.
    for name in os.listdir(base) if os.path.isdir(base) else []:
        pid = name.rsplit("-", 1)[-1]
        if pid.isdigit() and not os.path.exists(f"/proc/{pid}"):
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)
    work = os.path.join(base, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(out, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--bin-dir", os.path.join(out, "tierbase"), "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PERFBENCH_COMMIT=commit_id())
    try:
        if capture:
            return subprocess.run(cmd, env=env, capture_output=True, text=True)
        return subprocess.run(cmd, env=env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(out):
    """Runs every workload briefly, traced and untraced; checks the output."""
    s = spec()
    ok = True
    for w in s["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run_workload(out, w["name"], 1, 1, trace, smoke=True, capture=True)
            lines = r.stdout.strip().splitlines()
            problem = None
            try:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problem = "wrong top-level keys"
                elif r.returncode != 0 or not result["correct"] or result["failed"]:
                    problem = f"exit {r.returncode}, failed={result['failed']}"
                elif result["attempted"] < 1:
                    problem = "nothing attempted"
                else:
                    want = {m["name"]: m["unit"] for m in s[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    if got != want:
                        problem = f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
                    elif not all(isinstance(v["value"], (int, float))
                                 for v in result["metrics"].values()):
                        problem = "non-numeric value"
            except (IndexError, ValueError) as e:
                problem = f"no result line ({e}); stderr: {r.stderr.strip()[-300:]}"
            print(f"smoke {w['name']:12s} trace={trace}: {problem or 'ok'}")
            ok = ok and problem is None
    return ok


def main():
    # SIGTERM unwinds like an error, so the work dir is still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--test", action="store_true")
    a = p.parse_args()
    out = build()
    if a.test:
        r = subprocess.run([os.path.join(out, "perfbench_test")])
        if r.returncode != 0:
            sys.exit(1)
        sys.exit(0 if smoke(out) else 1)
    if a.smoke:
        sys.exit(0 if smoke(out) else 1)
    if not a.workload:
        fail("--workload is required")
    sys.stdout.flush()
    sys.exit(run_workload(out, a.workload, a.seed, a.seconds, a.trace).returncode)


if __name__ == "__main__":
    main()
