"""Self-test of the harness benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at its warm-up budget, with and without tracing,
and checks that each named metric is printed with its unit, that the
correctness checks pass, and that ``BENCHMARK.json`` names the
workloads and per-layer metrics that ``perfbench/workloads.py``
configures and predicts.  It also checks
that the benchmark refuses to run (non-zero exit, no result line) in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import PREDICTIONS, WORKLOADS, manifest, units  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_result(proc: subprocess.CompletedProcess, units: dict, label: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        failed_checks = [
            line for line in proc.stdout.splitlines() if "CHECK FAILED" in line
        ]
        problems.append(f"{label}: correctness checks failed {failed_checks}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"{label}: failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        problems.append(
            f"{label}: metrics differ: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}"
        )
    for name, unit in units.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r} != {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {name} value {entry.get('value')!r}")
    return problems


def check_trace_accounting(proc: subprocess.CompletedProcess, label: str) -> list[str]:
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    share = metrics["trace.unattributed_share"]["value"]
    problems = []
    if not 0.0 <= share < 0.2:
        problems.append(f"{label}: unattributed share {share}")
    if metrics["trace.overhead"]["value"] <= 0:
        problems.append(f"{label}: trace overhead not measured")
    if metrics["core.test_ms_p50"]["value"] <= 0:
        problems.append(f"{label}: no test spans recorded")
    return problems


def check_manifest() -> list[str]:
    """``BENCHMARK.json`` names the workloads and per-layer metrics that
    ``workloads.py`` configures and predicts."""
    spec = manifest()
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if {m["name"] for m in spec["per_layer"]} != set(PREDICTIONS):
        problems.append("BENCHMARK.json per_layer differs from workloads.py")
    return problems


def check_bare_directory(root: str) -> list[str]:
    """Without the harness sources the benchmark must fail, not report."""
    bare = os.path.join(root, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(root, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = run_bench(
            bare, "--workload", "fig2-expr-d5", "--seed", "1",
            "--seconds", "1", "--trace", "0",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory: exit code 0")
    if '"metrics"' in proc.stdout:
        problems.append("bare directory: a result was printed")
    return problems


def main() -> int:
    root = os.getcwd()
    problems = check_manifest() + check_bare_directory(root)
    metric_units = {0: units("end_to_end"), 1: units("per_layer")}
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            proc = run_bench(
                root, "--workload", name, "--seed", "1", "--seconds", "0.5",
                "--trace", str(trace), "--tests", str(workload.warmup_tests),
            )
            found = check_result(proc, metric_units[trace], label)
            if trace and not found:
                found = check_trace_accounting(proc, label)
            problems += found
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)
    for problem in problems:
        print(problem)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
