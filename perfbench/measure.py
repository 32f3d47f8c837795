"""Measurement process of the harness benchmark (started by ``run.py``).

Modes, each printing one JSON object as its last stdout line:

``setup``
    A cold start: import the harness, build the fleet config (registry
    discovery) and the workload's adapter or backend pair (capability
    probe included), then report the monotonic clock reading at which
    the first test could start.
``e2e``
    Untraced measurement: one untimed warm-up run, then fixed-budget
    fleet runs of seeds derived from ``--seed`` until ``--seconds``
    elapse, with
    reference slices (``reference.py``) timed beside them.  Reports
    per-run throughput and reference time, deterministic outputs, cache
    counters and peak memory.
``trace``
    Per-layer measurement: pairs of untraced and traced runs of the
    workload's single-process form, the traced ones with timing
    wrappers installed around each layer's public functions.

Every run goes through the public API only: ``run_fleet(FleetConfig,
corpus=BugCorpus(reduce_fn=make_replay_reducer(cfg)))``, then
``load_corpus`` -> ``cluster_corpus`` -> ``replay_clusters`` ->
``render_triage``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import HostSpeed  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=sorted)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_seed(seed: int, index: int) -> int:
    """Seed of the *index*-th measured run of a benchmark seed.  Runs of
    one measurement take distinct seeds: a workload's cost differs from
    seed to seed (the hunt files more or fewer reports, each reduced),
    and repeating one seed would leave that difference unaveraged."""
    return seed + 100_000 * index


def fleet_config(workload: Workload, seed: int, **overrides):
    from repro.fleet import FleetConfig

    kwargs = workload.fleet_kwargs(seed)
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


def run_once(workload: Workload, cfg, out_dir: str, speed: HostSpeed | None = None) -> dict:
    """One fleet run (plus triage of its corpus for corpus workloads).

    With *speed*, every shard of the run times reference slices in
    between its batches of tests, in this process or in the worker
    processes (see :func:`sliced_shards`).  ``wall`` then excludes the
    slices, and ``reference_s`` is their mean time.
    """
    from repro.fleet import BugCorpus, make_replay_reducer, run_fleet
    from repro.triage import (
        cluster_corpus,
        load_corpus,
        render_triage,
        replay_clusters,
    )

    corpus = corpus_path = None
    if workload.corpus:
        corpus_path = os.path.join(
            out_dir, f"corpus-{workload.name}-{os.getpid()}.jsonl"
        )
        if os.path.exists(corpus_path):
            os.remove(corpus_path)
        corpus = BugCorpus(corpus_path, reduce_fn=make_replay_reducer(cfg))

    shards = {"slices": [], "worker_rss_kb": []}
    with contextlib.ExitStack() as stack:
        if speed is not None:
            shards = stack.enter_context(sliced_shards(speed, out_dir))
        start = time.perf_counter()
        result = run_fleet(cfg, corpus=corpus)
        elapsed = time.perf_counter() - start
    slices = shards["slices"]
    # The workers slice in parallel, each about as often.
    wall = elapsed - sum(slices) / cfg.workers

    merged = result.merged
    shard_walls = [s.wall_seconds for s in result.shards]
    phase_seconds = sum(
        rec["seconds"] for s in result.shards for rec in s.phase_stats.values()
    )
    out = {
        "wall": wall,
        "tests": merged.tests,
        "skipped": merged.skipped,
        "attempted": merged.tests + merged.skipped,
        "unique_plans": len(merged.unique_plans),
        "reports": len(merged.reports),
        "digest": _digest(merged.signature()),
        "cache": dict(merged.cache_stats),
        "distinct_faults": len(merged.detected_fault_ids),
        "pool_overhead_s": elapsed - max(shard_walls),
        "phase_coverage": phase_seconds / (wall * len(shard_walls)),
        "new_entries": len(result.new_fingerprints),
        "duplicates": result.duplicate_reports,
    }
    if speed is not None:
        out["reference_s"] = statistics.fmean(slices or [speed.slice()])
        out["worker_rss_mb"] = sum(shards["worker_rss_kb"]) / 1024.0
    if corpus_path is not None:
        t0 = time.perf_counter()
        entries = load_corpus(corpus_path)
        clusters = cluster_corpus(entries)
        verdicts = replay_clusters(clusters)
        text = render_triage(clusters, verdicts)
        out["triage_s"] = time.perf_counter() - t0
        out["clusters"] = len(clusters)
        statuses = {cid: v.status for cid, v in verdicts.items()}
        out["verdicts"] = _digest(statuses)
        out["reproduces"] = sum(
            1 for s in statuses.values() if s == "reproduces"
        )
        out["triage_digest"] = _digest(text)
        os.remove(corpus_path)
    return out


@contextlib.contextmanager
def sliced_shards(speed: HostSpeed, out_dir: str):
    """Time reference slices inside every shard of the fleet runs made
    in this block.  Yields a dict whose lists receive the slice times
    (``slices``) and each worker process's peak memory in KiB
    (``worker_rss_kb``).

    The fleet runs each shard through ``orchestrator._run_shard``, in
    this process or in a forked worker, and a shard calls its progress
    callback after every batch of tests.  The wrapper installed here
    adds ``speed.maybe_slice()`` to that callback, so slices interleave
    with the shard's own work on the core it runs on.  A worker writes
    its slice times and peak memory to ``out_dir`` before it returns its
    result.
    """
    from repro.fleet import orchestrator

    inner = orchestrator._run_shard
    parent = os.getpid()
    prefix = os.path.join(out_dir, f"slices-{parent}-")

    def run_shard(spec, should_stop=None, on_progress=None):
        def progress(stats):
            if on_progress is not None:
                on_progress(stats)
            speed.maybe_slice()

        if os.getpid() != parent:
            speed.take()  # what the parent had timed before the fork
        speed.restart()
        payload = inner(spec, should_stop=should_stop, on_progress=progress)
        if os.getpid() != parent:
            record = {
                "slices": speed.take(),
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
            with open(f"{prefix}{os.getpid()}.json", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        return payload

    speed.take()
    shards: dict = {"slices": [], "worker_rss_kb": []}
    orchestrator._run_shard = run_shard
    try:
        yield shards
    finally:
        orchestrator._run_shard = inner
        shards["slices"] += speed.take()
        for path in glob.glob(f"{prefix}*.json"):
            with open(path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            os.remove(path)
            for record in records:
                shards["slices"] += record["slices"]
            # One file per worker process (a reused pid appends).
            shards["worker_rss_kb"].append(max(r["rss_kb"] for r in records))


def tests_to_first_bug(workload: Workload, seed: int) -> int:
    """Tests attempted up to and including the first reporting one: the
    same fleet stopped by ``max_reports=1`` (deterministic)."""
    from repro.fleet import run_fleet

    result = run_fleet(fleet_config(workload, seed, max_reports=1))
    merged = result.merged
    if not merged.reports:
        return 0
    return merged.tests + merged.skipped


def peak_rss_mb(runs: list[dict]) -> float:
    """Peak resident memory of this process plus, for a worker pool, the
    largest sum over one run of its workers' own peaks (``ru_maxrss``
    is KiB; a forked worker's peak counts the pages it shares with this
    process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + max((r.get("worker_rss_mb", 0.0) for r in runs), default=0.0)


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def mode_setup(workload: Workload, seed: int) -> dict:
    from repro.backends import build_backend, pair_policy
    from repro.differential import build_pair_adapter
    from repro.fleet.orchestrator import ORACLE_FACTORIES

    cfg = fleet_config(workload, seed)
    probe_s = 0.0
    if cfg.backend_pair is not None:
        t0 = time.perf_counter()
        pair_policy(*cfg.backend_pair, dialect=cfg.dialect)
        probe_s = time.perf_counter() - t0
        build_pair_adapter(cfg.backend_pair, dialect=cfg.dialect, buggy=cfg.buggy)
    else:
        build_backend(cfg.adapter, dialect=cfg.dialect, buggy=cfg.buggy)
    ORACLE_FACTORIES[cfg.oracle](**cfg.oracle_kwargs)
    return {"ready": time.monotonic(), "probe_s": probe_s}


def mode_e2e(workload: Workload, seed: int, seconds: float, out_dir: str) -> dict:
    """Warm-up, then timed runs until *seconds* elapse, run *i* on
    ``run_seed(seed, i)``."""
    out: dict = {"runs": [], "errors": []}
    try:
        speed = HostSpeed()
        warm_up = fleet_config(workload, seed, n_tests=workload.warmup_tests)
        run_once(workload, warm_up, out_dir, speed)
        start = time.perf_counter()
        while not out["runs"] or time.perf_counter() - start < seconds:
            cfg = fleet_config(workload, run_seed(seed, len(out["runs"])))
            run = run_once(workload, cfg, out_dir, speed)
            run["seed"] = cfg.seed
            out["runs"].append(run)
        if workload.faults:
            out["tests_to_first_bug"] = tests_to_first_bug(workload, seed)
    except Exception as exc:  # a harness failure fails the whole run
        out["errors"].append(f"{type(exc).__name__}: {exc}")
    out["peak_rss_mb"] = peak_rss_mb(out["runs"])
    return out


def traced_config(workload: Workload, seed: int):
    """The workload's single-process form: a pool workload traces one
    worker's share of the budget in-process (spans recorded in forked
    workers would be lost)."""
    return fleet_config(
        workload, seed, workers=1, n_tests=workload.tests // workload.workers
    )


def mode_trace(workload: Workload, seed: int, seconds: float, out_dir: str) -> dict:
    from tracer import SpanRecorder, install

    cfg = traced_config(workload, seed)
    run_once(workload, fleet_config(workload, seed, workers=1,
                                    n_tests=workload.warmup_tests), out_dir)
    rec = SpanRecorder()
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        plain_run = run_once(workload, cfg, out_dir)
        plain.append(time.perf_counter() - t0)

        rec.reset()
        install(rec)
        try:
            root = rec.wrap("bench.run", run_once)
            traced_run = root(workload, cfg, out_dir)
        finally:
            rec.uninstall()
        summary = rec.summary()
        traced.append(summary["total_s"]["bench.run"])
        summaries.append(summary)
        if traced_run["digest"] != plain_run["digest"]:
            return {"error": "traced run changed the campaign signature"}
    rec.write(os.path.join(out_dir, f"spans-{workload.name}.jsonl"))
    return {
        "layers": layer_metrics(summaries),
        "overhead": statistics.median(traced) / statistics.median(plain),
        "self_s": _mean_by_name([s["self_s"] for s in summaries]),
    }


def _mean_by_name(dicts: list[dict]) -> Counter:
    """Per-key means (a missing key reads 0)."""
    total: Counter = Counter()
    for d in dicts:
        total.update(d)
    return Counter({k: v / len(dicts) for k, v in total.items()})


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics from the traced runs' span summaries (means
    over the traced runs; counts are the same in every run)."""
    self_s = _mean_by_name([s["self_s"] for s in summaries])
    total_s = _mean_by_name([s["total_s"] for s in summaries])
    calls = _mean_by_name([s["calls"] for s in summaries])
    counts = _mean_by_name([s["counts"] for s in summaries])
    test_ms = sorted(1000.0 * d for s in summaries for d in s["test_s"])
    wall = total_s["bench.run"]
    checks = counts["runner.reduce_checks"]
    return {
        "generator.state_s": self_s["generator.state"],
        "generator.states": calls["generator.state"],
        "core.test_self_s": self_s["core.test"],
        "core.fold_s": self_s["core.fold"],
        "core.test_ms_p50": _quantile(test_ms, 0.50),
        "core.test_ms_p99": _quantile(test_ms, 0.99),
        "oracle.compare_s": self_s["oracle.compare"],
        "adapters.minidb_self_s": self_s["adapters.minidb"],
        "adapters.minidb_calls": calls["adapters.minidb"],
        "adapters.prime_parse_s": total_s["adapters.prime_parse"],
        "adapters.sqlite3_s": self_s["adapters.sqlite3"],
        "adapters.sqlite3_calls": calls["adapters.sqlite3"],
        "perf.normalize_s": self_s["perf.normalize"],
        "perf.parse_memo_s": self_s["perf.parse_memo"],
        "minidb.parse_s": self_s["minidb.parse"],
        "minidb.plan_s": self_s["minidb.plan"],
        "minidb.plan_calls": calls["minidb.plan"],
        "minidb.exec_self_s": self_s["minidb.exec"],
        "minidb.exec_calls": calls["minidb.exec"],
        "minidb.rows_out": counts["minidb.rows_out"],
        "differential.tee_self_s": self_s["differential.tee"],
        "runner.reduce_s": total_s["runner.reduce"],
        "runner.reduce_checks": checks,
        "runner.reduce_useful_ratio": (
            counts["runner.reduce_useful"] / checks if checks else 0.0
        ),
        "fleet.corpus_add_s": total_s["fleet.corpus_add"],
        "guidance.policy_s": self_s["guidance.policy"],
        "triage.cluster_s": total_s["triage.cluster"],
        "triage.replay_s": total_s["triage.replay"],
        "triage.render_s": total_s["triage.render"],
        "trace.wall_s": wall,
        "trace.unattributed_share": self_s["bench.run"] / wall,
    }


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for no values)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * len(sorted_values)) - 1))
    return sorted_values[index]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "e2e", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", default=".")
    parser.add_argument("--tests", type=int, default=None,
                        help="override the workload's test budget")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.tests is not None:
        workload = _with_budget(workload, args.tests)
    if args.mode == "setup":
        result = mode_setup(workload, args.seed)
    elif args.mode == "e2e":
        result = mode_e2e(workload, args.seed, args.seconds, args.out)
    else:
        result = mode_trace(workload, args.seed, args.seconds, args.out)
    print(json.dumps(result))
    return 0


def _with_budget(workload: Workload, tests: int) -> Workload:
    from dataclasses import replace

    return replace(
        workload, tests=tests, warmup_tests=max(1, min(workload.warmup_tests, tests))
    )


if __name__ == "__main__":
    sys.exit(main())
