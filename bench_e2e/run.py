#!/usr/bin/env python3
"""End-to-end checkpoint/restart benchmark for rocpio (see README.md).

Builds bench_e2e from the checkout's sources on first use, runs one
workload (or all of them) in its own process under a deadline, and prints
the result.  Run from the root of a checkout:

    python3 bench_e2e/run.py --workload panda_bulk --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --workload all --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
Everything before that line is for people: the host and build, every
metric with its unit and sample count, and any error text.

A run that throws, fails verification or outlives its deadline is counted
as failed operations and exits with code 1; a build that fails exits with
code 2 and prints no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["panda_bulk", "panda_irregular", "trochdf_overlap",
             "restart_remap"]
DEFAULT_DEADLINE_S = 160


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "bench_e2e",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e")


# --- host and build record -------------------------------------------------

def _read(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def _llc():
    best = (0, "unknown")
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return best[1]
    for entry in entries:
        level = _read(os.path.join(base, entry, "level"), "0")
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), "L%s %s" % (level, _read(
                os.path.join(base, entry, "size"))))
    return best[1]


def _fs_type(path):
    path = os.path.realpath(path)
    best = ("", "unknown")
    for line in _read("/proc/mounts", "").splitlines():
        parts = line.split()
        if len(parts) >= 3 and (path == parts[1] or path.startswith(
                parts[1].rstrip("/") + "/")) and len(parts[1]) >= len(best[0]):
            best = (parts[1], parts[2])
    return best[1]


def _source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return "commit " + proc.stdout.strip()
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources sha256 " + digest.hexdigest()[:16]


def host_record(seed, build_type, options):
    mem_kb = next((line.split()[1] for line in
                   _read("/proc/meminfo", "").splitlines()
                   if line.startswith("MemTotal:")), "0")
    vm = {k: _read("/proc/sys/vm/" + k) for k in (
        "dirty_ratio", "dirty_background_ratio", "dirty_bytes",
        "dirty_background_bytes", "dirty_expire_centisecs")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "llc": _llc(),
        "ram_gib": round(int(mem_kb) / 1048576, 1),
        "fs_type": _fs_type(ROOT),
        "vm": vm,
        "build_type": build_type,
        "options": options,
        "source": _source_id(),
        "seed": seed,
    }


def _cpu_ticks():
    """(busy, steal) jiffies of all CPUs from /proc/stat."""
    fields = _read("/proc/stat", "cpu 0").splitlines()[0].split()[1:]
    ticks = [int(x) for x in fields] + [0] * 8
    idle = ticks[3] + ticks[4]
    return sum(ticks[:8]) - idle - ticks[7], ticks[7]


# --- one workload in its own process ---------------------------------------

def run_workload(binary, workload, seed, seconds, trace, deadline,
                 plant=None):
    """Runs one workload under `deadline` seconds; returns the binary's
    result dict, with attempted/failed/errors accounting for a kill."""
    run_root = os.path.join(ROOT, ".bench_run",
                            "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_root, ignore_errors=True)
    os.makedirs(run_root)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--root", run_root]
    if plant:
        cmd += ["--plant", plant]
    busy0, steal0 = _cpu_ticks()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    expired = False
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        expired = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    busy1, steal1 = _cpu_ticks()
    # Time the hypervisor ran something else while this host's CPUs were
    # busy: the main source of run-to-run spread on a shared host.
    steal_pct = 100.0 * (steal1 - steal0) / max(1, busy1 - busy0 +
                                                 steal1 - steal0)

    result, progress = None, {"attempted": 0, "failed": 0}
    stage = "start"
    for line in out.splitlines():
        if line.startswith("{"):
            result = json.loads(line)
        elif line.startswith("progress "):
            stage = line.split()[1]
            for field in line.split()[2:]:
                key, value = field.split("=")
                progress[key] = int(value)
    errors = [line for line in err.splitlines() if "bench_e2e:" in line]
    if result is not None and not expired and proc.returncode == 0:
        result["steal_pct"] = steal_pct
        return result
    # Killed, crashed or exited early: the operation in flight failed.
    base = result or {"metrics": [], "build_type": "unknown",
                      "options": "unknown"}
    reason = ("deadline of %g s expired" % deadline if expired else
              "exited with code %d" % proc.returncode)
    reason += " after stage '%s'" % stage
    base.update({
        "attempted": max(progress["attempted"], base.get("attempted", 0)) + 1,
        "failed": max(progress["failed"], base.get("failed", 0)) + 1,
        "errors": base.get("errors", []) + errors + [reason],
        "metrics": base["metrics"] if not expired else [],
        "steal_pct": steal_pct,
    })
    return base


def benchmark_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(workload, result, wanted):
    """Prints the human table; returns (correct, metrics) for the line."""
    by_name = {m["name"]: m for m in result["metrics"]}
    print("== %s: attempted %d, failed %d (ops_failed_ratio %.4g), "
          "cpu steal %.1f%%" % (
              workload, result["attempted"], result["failed"],
              result["failed"] / max(1, result["attempted"]),
              result["steal_pct"]))
    for m in result["metrics"]:
        value = "null" if m["value"] is None else "%.6g" % m["value"]
        line = "  %-34s %14s %-6s (n=%d)" % (m["name"], value, m["unit"],
                                              m["samples"])
        if m.get("maps_to"):
            line += "  -> " + m["maps_to"]
        print(line)
    for e in result.get("errors", []):
        print("  error: " + e)
    metrics = {}
    complete = True
    for name in wanted:
        m = by_name.get(name)
        if m is None or m["value"] is None:
            complete = False
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return result["failed"] == 0 and complete, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--deadline", type=float, default=DEFAULT_DEADLINE_S,
                    help="seconds before a workload process is killed")
    ap.add_argument("--plant", choices=["corrupt", "hang"],
                    help="plant a fault (the benchmark's own tests)")
    args = ap.parse_args()

    wanted = benchmark_metrics(args.trace)
    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        sys.stderr.write("bench_e2e: %s\n" % e)
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        started = time.monotonic()
        result = run_workload(binary, workload, args.seed, args.seconds,
                              args.trace == 1, args.deadline, args.plant)
        if workload == workloads[0]:
            print("host: " + json.dumps(host_record(
                args.seed, result["build_type"], result["options"])))
        ok, wl_metrics = report(workload, result, wanted)
        print("  (%s took %.1f s)" % (workload, time.monotonic() - started))
        correct = correct and ok
        attempted += result["attempted"]
        failed += result["failed"]
        if len(workloads) == 1:
            metrics = wl_metrics
        else:
            metrics.update({"%s/%s" % (workload, k): v
                            for k, v in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
