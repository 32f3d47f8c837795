"""Harness benchmark: end-to-end and per-layer metrics of one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-expr-d5 --seed 3 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics from a separate traced run
(plus the untraced counters they are read beside).  Human-readable
lines come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The measurement itself runs in child processes (``measure.py``): cold
starts for ``setup_s``, each followed by a reference start, one process
for the untraced runs (with reference slices, ``reference.py``, timed
between their batches of tests) and, with ``--trace 1``, one for the
traced runs.
Every child is waited for; a child that overruns the deadline is killed
with its process group.
Outputs stay inside the checkout (``.perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import NOMINAL_SLICE_S  # noqa: E402
from workloads import WORKLOADS, manifest  # noqa: E402

MEASURE = os.path.join(HERE, "measure.py")
EXPECTED = os.path.join(HERE, "expected.json")

#: Timed cold starts per run, each paired with a reference start.  One
#: more, untimed, pair runs first: it reads the sources into the file
#: cache and compiles them into the benchmark's own bytecode directory,
#: so every timed start loads the same, current bytecode.
SETUP_STARTS = 11

#: The reference start: a bare interpreter importing the standard-library
#: modules the harness loads and reading the installed entry points, as
#: registry discovery does.  It is the same kind of work as the harness's
#: own start, with no harness code in it.
REFERENCE_START = (
    "import dataclasses, hashlib, http.server, importlib.metadata, inspect, "
    "json, multiprocessing, random, re, sqlite3, tempfile, time, typing\n"
    "importlib.metadata.entry_points()\n"
    "print(time.monotonic())\n"
)

#: Nominal seconds of one reference start, near its median on the
#: machine the benchmark was built on (a 2-vCPU Intel Xeon VM).
#: ``setup_s`` is the harness's start scaled to a reference start of this
#: length: on a shared host both starts slow down together (the raw
#: medians of two runs ten minutes apart differed by up to 45%), and
#: their ratio varies far less.
REFERENCE_S = 0.09

#: Every child must finish by this many seconds after start.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env(src: str, pycache: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    # Bytecode goes to, and is read from, a directory that only the
    # benchmark writes (emptied at the start of each run), never the
    # ``__pycache__`` directories that other tools leave in the tree.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = pycache
    # No disk cache of capability vectors: each cold start probes, and
    # nothing is written outside the checkout.
    env.pop("CODDTEST_CAPVEC_DIR", None)
    return env


def run_child(argv: list[str], env: dict, cwd: str, deadline: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, MEASURE, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"measure.py {argv[0]} overran the deadline") from None
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(
            f"measure.py {argv[0]} exited {proc.returncode}:\n{err[-4000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def _kill_group(pid: int) -> None:
    """End anything the child left running in its session."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def cold_start(workload: str, seed: int, env: dict, cwd: str, deadline: float) -> dict:
    """A harness start, then a reference start right after it."""
    launched = time.monotonic()
    out = run_child(
        ["setup", "--workload", workload, "--seed", str(seed)], env, cwd, deadline
    )
    setup_s = out["ready"] - launched
    # Both starts are timed up to a clock reading taken in the child, not
    # up to when the parent notices the exit (that wait polls).
    launched = time.monotonic()
    ready = subprocess.run(
        [sys.executable, "-c", REFERENCE_START],
        env=env, cwd=cwd, check=True, capture_output=True, text=True,
        timeout=max(1.0, deadline - launched),
    ).stdout
    reference_s = float(ready) - launched
    return {
        "raw_s": setup_s,
        "reference_s": reference_s,
        "setup_s": REFERENCE_S * setup_s / reference_s,
        "probe_s": out["probe_s"],
    }


def cold_starts(workload: str, seed: int, env: dict, cwd: str, deadline: float) -> list[dict]:
    """One untimed pair (it compiles the bytecode), then SETUP_STARTS timed ones."""
    cold_start(workload, seed, env, cwd, deadline)
    return [cold_start(workload, seed, env, cwd, deadline) for _ in range(SETUP_STARTS)]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check(workload, seed: int, e2e: dict, budget_is_default: bool) -> list[str]:
    """Failed correctness checks (empty when all pass)."""
    problems = list(e2e["errors"])
    runs = e2e["runs"]
    if not runs:
        return problems + ["no completed run"]
    for run in runs:
        if workload.faults:
            if run["reports"] == 0 or run["distinct_faults"] == 0:
                problems.append(
                    f"seed {run['seed']}: faults on, but no injected fault was detected"
                )
        elif run["reports"] != 0:
            problems.append(
                f"seed {run['seed']}: faults off, but {run['reports']} bug "
                "reports / divergences"
            )
    if workload.faults and e2e.get("tests_to_first_bug", 0) == 0:
        problems.append("faults on, but the first-bug run found no bug")
    if budget_is_default and os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload.name, {})
        for run_seed, seen in deterministic_outputs(e2e, seed).items():
            for key, value in recorded.get(run_seed, {}).items():
                if seen.get(key) != value:
                    problems.append(
                        f"seed {run_seed}: {key} is {seen.get(key)!r}, "
                        f"recorded {value!r}"
                    )
    return problems


def deterministic_outputs(e2e: dict, seed: int) -> dict:
    """Per run seed, the outputs that must repeat exactly for a
    (workload, seed)."""
    out = {}
    for run in e2e["runs"]:
        seen = {
            "digest": run["digest"],
            "tests": run["tests"],
            "skipped": run["skipped"],
            "unique_plans": run["unique_plans"],
        }
        if "verdicts" in run:
            seen["distinct_faults"] = run["distinct_faults"]
            seen["verdicts"] = run["verdicts"]
            seen["triage_digest"] = run["triage_digest"]
        out[str(run["seed"])] = seen
    if "tests_to_first_bug" in e2e:
        out[str(seed)]["tests_to_first_bug"] = e2e["tests_to_first_bug"]
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(e2e: dict, setups: list[dict]) -> tuple[dict, dict]:
    """(metrics, run-to-run spread of each timing) from the untraced runs."""
    runs = e2e["runs"]
    first = runs[0]
    rates = scaled_rates(runs)
    setup_times = [s["setup_s"] for s in setups]
    values = {
        # Pooled, not a median: the runs are of different seeds, and
        # every one of them counts toward the workload's average cost.
        "tests_per_s": sum(r["tests"] for r in runs)
        / sum(r["tests"] / rate for r, rate in zip(runs, rates)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": e2e["peak_rss_mb"],
        "unique_plans_per_ktest": 1000.0 * first["unique_plans"] / first["tests"],
        "completed_test_share": first["tests"] / first["attempted"],
    }
    spreads = {"tests_per_s": spread(rates), "setup_s": spread(setup_times)}
    return values, spreads


def scaled_rates(runs: list[dict]) -> list[float]:
    """Each run's tests per second, scaled to a host on which one
    reference slice takes ``NOMINAL_SLICE_S`` (see ``reference.py``)."""
    return [
        r["tests"] / r["wall"] * r["reference_s"] / NOMINAL_SLICE_S for r in runs
    ]


def untraced_layers(workload, e2e: dict, setups: list[dict]) -> dict:
    """Per-layer metrics read from the untraced runs and cold starts."""
    runs = e2e["runs"]
    first = runs[0]
    cache = first["cache"]
    out = {
        "failed_test_share": first["skipped"] / first["attempted"],
        "tests_to_first_bug": float(e2e.get("tests_to_first_bug", 0)),
        "distinct_faults": float(first["distinct_faults"]),
        "clusters_per_min": statistics.median(
            r.get("clusters", 0) / (r["wall"] / 60.0) for r in runs
        ),
        "triage_s": statistics.median(r.get("triage_s", 0.0) for r in runs),
        "differential.divergences": float(
            first["reports"] if workload.config["oracle"] == "differential" else 0
        ),
        "backends.probe_s": statistics.median(s["probe_s"] for s in setups),
        "setup.raw_s": statistics.median(s["raw_s"] for s in setups),
        "setup.reference_s": statistics.median(s["reference_s"] for s in setups),
        "fleet.pool_overhead_s": statistics.median(
            r["pool_overhead_s"] for r in runs
        ),
        "fleet.dup_ratio": _ratio(
            first["duplicates"], first["duplicates"] + first["new_entries"]
        ),
        "triage.replay_reproduces_ratio": _ratio(
            first.get("reproduces", 0), first.get("clusters", 0)
        ),
        "obs.phase_coverage": statistics.median(r["phase_coverage"] for r in runs),
        "run.raw_tests_per_s": statistics.median(r["tests"] / r["wall"] for r in runs),
        "run.reference_slice_ms": 1000.0 * statistics.median(
            r["reference_s"] for r in runs
        ),
    }
    for memo in ("parse", "stmt", "eval", "plan"):
        hits = cache.get(f"{memo}_hits", 0)
        misses = cache.get(f"{memo}_misses", 0)
        out[f"perf.{memo}_hits"] = float(hits)
        out[f"perf.{memo}_misses"] = float(misses)
        out[f"perf.{memo}_hit_ratio"] = _ratio(hits, hits + misses)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = manifest()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tests", type=int, default=None,
        help="override the test budget of one run (self-test only; "
        "skips the recorded-output check)",
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"perfbench: no harness sources under {src}; run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        return 2
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    pycache = os.path.join(out_dir, "pycache")
    shutil.rmtree(pycache, ignore_errors=True)
    env = child_env(src, pycache)
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    common = ["--workload", workload.name, "--seed", str(args.seed), "--out", out_dir]
    if args.tests is not None:
        common += ["--tests", str(args.tests)]

    try:
        setups = cold_starts(workload.name, args.seed, env, root, deadline)
        # With --trace 1 the traced runs take half of the measuring time.
        e2e_seconds = args.seconds / 2 if args.trace else args.seconds
        e2e = run_child(
            ["e2e", *common, "--seconds", str(e2e_seconds)], env, root, deadline
        )
        traced = None
        if args.trace:
            traced = run_child(
                ["trace", *common, "--seconds", str(args.seconds / 2)],
                env, root, deadline,
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = check(workload, args.seed, e2e, args.tests is None)
    if traced is not None and "error" in traced:
        problems.append(traced["error"])
    attempted = sum(r["attempted"] for r in e2e["runs"])
    failed = workload.tests if e2e["errors"] else 0
    attempted += failed

    print(f"workload {workload.name} seed {args.seed}: {why[workload.name]}")
    if e2e["runs"]:
        print(
            "deterministic outputs:",
            json.dumps(deterministic_outputs(e2e, args.seed), sort_keys=True),
        )
        raw = [round(r["tests"] / r["wall"], 2) for r in e2e["runs"]]
        slices = [round(1000 * r["reference_s"], 3) for r in e2e["runs"]]
        scaled = [round(rate, 2) for rate in scaled_rates(e2e["runs"])]
        print(f"unscaled tests_per_s of each measured run: {raw}")
        print(f"mean reference slice (ms) of each measured run: {slices}")
        print(f"tests_per_s of each measured run: {scaled}")
        for key in ("raw_s", "reference_s", "setup_s"):
            print(f"{key} of each cold start: {[round(s[key], 4) for s in setups]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    units = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    values, spreads = {}, {}
    if e2e["runs"] and args.trace:
        values = untraced_layers(workload, e2e, setups)
        if "layers" in traced:
            values.update(traced["layers"])
            values["trace.overhead"] = traced["overhead"]
            print_self_times(traced)
    elif e2e["runs"]:
        values, spreads = end_to_end(e2e, setups)
    values = {name: values.get(name, 0.0) for name in units}
    for name, unit in units.items():
        note = (
            f"  (run-to-run spread {100 * spreads[name]:.1f}%)"
            if name in spreads
            else ""
        )
        print(f"{name:<32} {values[name]:14.6f} {unit}{note}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


def print_self_times(traced: dict) -> None:
    """Span self times as shares of the traced wall; they sum to it."""
    self_s = traced["self_s"]
    wall = traced["layers"]["trace.wall_s"]
    print(f"traced wall {wall:.4f} s; self time per span (bench.run = unattributed):")
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<24} {seconds:10.4f} s {100 * seconds / wall:6.2f}%")
    print(f"  {'sum':<24} {sum(self_s.values()):10.4f} s")


if __name__ == "__main__":
    sys.exit(main())
