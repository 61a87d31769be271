#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (the library sources under src/ plus the benchmark harness) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The workload runs in a work directory under
the build root that is removed afterwards. The last stdout line is the
result JSON of the run; every metric name and unit in it is checked
against BENCHMARK.json.

--smoke runs every workload at one second in both trace modes on the
default seed and checks zero failures, the kept references and every metric
name and unit: the benchmark's own test.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "flashmark_perfbench"
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "util", "rng.cpp")):
        raise RuntimeError("no library sources under src/ to build")
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", bdir, "-j", "3"], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(bdir, BINARY)


def check_result(spec, line, trace):
    """Problems of one result line against the BENCHMARK.json contract."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last stdout line is not JSON"]
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(res))
        return problems
    want = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in want}
    got = res["metrics"]
    if sorted(got) != sorted(want):
        problems.append("metric names differ from BENCHMARK.json: missing %s,"
                        " extra %s" % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append("%s has unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), want[name]))
    if not trace:
        for name, m in got.items():
            if not m.get("value"):
                problems.append("end-to-end metric %s is 0" % name)
    return problems


def run_workload(binary, spec, workload, seed, seconds, trace,
                 write_reference=False):
    """Run one workload; returns (exit code, stdout lines, result dict)."""
    work = os.path.join(build_root(), "work",
                        "%s-%d-%d" % (workload, os.getpid(), int(trace)))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--reference-dir", os.path.join(HERE, "reference")]
    if write_reference:
        cmd.append("--write-reference")
    # Own process group: on a timeout the study workloads' forked shard
    # workers are stopped together with the benchmark process.
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, [], None
    shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("{"):
        return proc.returncode or 1, lines, None
    problems = check_result(spec, lines[-1], trace)
    for p in problems:
        log("%s: %s" % (workload, p))
    code = proc.returncode if not problems else (proc.returncode or 1)
    return code, lines, json.loads(lines[-1]) if not problems else None


def smoke(binary, spec):
    """The benchmark's own test: every workload, both modes, in seconds."""
    ok = True
    seconds = 1
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (False, True):
            code, lines, res = run_workload(binary, spec, name, DEFAULT_SEED,
                                            seconds, trace)
            checks = {
                "exit 0": code == 0,
                "result line": res is not None,
                "correct": bool(res and res["correct"]),
                "zero failed": bool(res and res["failed"] == 0),
                "reference matched": any(
                    l.startswith("# reference matched") for l in lines),
            }
            bad = [k for k, v in checks.items() if not v]
            log("smoke %-16s trace=%d: %s" % (name, trace,
                                             "ok" if not bad else
                                             "FAILED " + ", ".join(bad)))
            if bad:
                for l in lines[-6:]:
                    log("  " + l)
            ok = ok and not bad
        for secs in (seconds, spec["run_seconds"]):
            prefix = "%s.seed%d-%gs." % (name, DEFAULT_SEED, secs)
            if not any(f.startswith(prefix)
                       for f in os.listdir(os.path.join(HERE, "reference"))):
                log("smoke %s: no reference kept for %ds" % (name, secs))
                ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite the default-seed reference of this run")
    args = ap.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        ap.error("--workload must be one of %s" % names)
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 1
    if args.smoke:
        return 0 if smoke(binary, spec) else 1
    seconds = args.seconds or spec["run_seconds"]
    code, lines, res = run_workload(binary, spec, args.workload, args.seed,
                                    seconds, bool(args.trace),
                                    args.write_reference)
    if res is None:
        for l in lines:
            log(l)
        return code or 1
    for l in lines:
        print(l)
    return code


if __name__ == "__main__":
    sys.exit(main())
