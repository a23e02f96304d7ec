#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload in BENCHMARK.json at toy sizes (--toy, one-second
windows), untraced and traced, and checks that the last line of each
report parses, that every check passed with no failed operation, and that
the report holds exactly the metrics BENCHMARK.json names for its run kind,
with their units. In a traced run every per-layer metric of a layer the
workload exercises (EXERCISED) must be nonzero, and the run must leave its
Chrome trace behind.

It then copies only BENCHMARK.json and perfbench/ into an empty directory
under the build directory and checks that the command fails there without
printing a result, as it must where there is no program to build.
Exit status: 0 when every check holds.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402  (the command under test)

# Per-layer metrics each workload must report as nonzero; the rest of the
# catalogue reads 0 there, or (net.send_errors, net.endpoints_degraded)
# must.
SIM_LAYERS = ("sim.runner_self_share", "sim.phase_p50_ms",
              "sim.pool_busy_share", "ba.step_share", "ba.step_us_per_message",
              "alloc.blocks_per_message", "alloc.bytes_per_message",
              "arena.high_water_mb", "mem.rss_bytes_per_message")
EXERCISED = {
    "sim-alg5-n6400": SIM_LAYERS + (
        "signatures_per_decision", "codec.decode_ns_per_message",
        "crypto.verify_ns_per_link", "crypto.sign_ns",
        "crypto.chain_cache_hit_rate"),
    "sim-phase-king-pooled": SIM_LAYERS + ("sim.pool_speedup",),
    "daemon-mixed": (
        "decision_p90_ms", "proofs_verified_per_s", "signatures_per_decision",
        "crypto.chain_cache_hit_rate", "svc.endpoint_cpu_ms_per_decision",
        "svc.reactor_cpu_ms_per_decision", "svc.frames_per_decision",
        "svc.wire_bytes_per_decision", "svc.wire_overhead_ratio",
        "svc.verify_stripe_hit_rate", "svc.metrics_scrape_ms",
        "svc.prove_p50_ms", "proof.store_light_hit_rate",
        "proof.verify_cold_us", "proof.verify_warm_us",
        "proof.bytes_per_proof"),
}
MUST_BE_ZERO = ("net.send_errors", "net.endpoints_degraded")


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", trace, "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_report(bench, workload, trace, out):
    errors = []
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return ["exit %d, stderr: %s" % (out.returncode, out.stderr[-800:])]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return ["last line is not JSON: %r" % lines[-1][:200]]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted %r" % result.get("attempted"))
    if result.get("failed") != 0:
        errors.append("failed %r" % result.get("failed"))
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace == "1" else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("metric names differ: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append("%s unit %r, expected %r" % (name, entry.get("unit"),
                                                       unit))
        if not isinstance(entry.get("value"), (int, float)):
            errors.append("%s value %r" % (name, entry.get("value")))
        elif trace == "0" and entry["value"] == 0:
            errors.append("end-to-end metric %s is 0" % name)
        elif trace == "1" and name in EXERCISED[workload] and \
                entry["value"] == 0:
            errors.append("exercised per-layer metric %s is 0" % name)
        elif trace == "1" and name in MUST_BE_ZERO and entry["value"] != 0:
            errors.append("%s is %r, not 0" % (name, entry["value"]))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            errors = check_report(bench, workload, trace,
                                  run(ROOT, workload, trace))
            if trace == "1":
                path = os.path.join(bench_run.build_dir(), "traces",
                                    "%s-seed7.json" % workload)
                if not os.path.isfile(path):
                    errors.append("no trace at %s" % path)
                else:
                    with open(path) as f:
                        if not json.load(f).get("traceEvents"):
                            errors.append("trace holds no spans")
            print("%-24s trace=%s: %s" % (workload, trace,
                                          "; ".join(errors) or "ok"),
                  flush=True)
            failures += bool(errors)

    build_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-bare-", dir=build_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "daemon-mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        bare_ok = out.returncode != 0 and not out.stdout.strip()
        print("%-24s %s" % ("bare directory", "ok" if bare_ok else
                            "exit %d, stdout %r" % (out.returncode,
                                                    out.stdout[:200])))
        failures += not bare_ok
    finally:
        shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
