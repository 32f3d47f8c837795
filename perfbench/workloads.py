"""Workload definitions and the layer -> end-to-end prediction map.

Every workload drives the harness through its public fleet API with the
``sqlite`` MiniDB dialect, the evaluation cache and vectorized
evaluation on (the CLI defaults).  Load is closed-loop from one client
process: the next test starts when the previous one finishes.  A run
executes a fixed test budget, so every deterministic output is a pure
function of ``(workload, seed)``.

Each layer dominates one workload and is idle in another, so a change
to one layer has a workload that exercises it and one that bypasses it
(where the prediction is "no change").
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

#: Workload names and ``why`` text, metric names, units and direction.
MANIFEST = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def units(section: str) -> dict[str, str]:
    """Metric name -> unit of one ``BENCHMARK.json`` section."""
    return {m["name"]: m["unit"] for m in manifest()[section]}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``FleetConfig`` keyword arguments (seed and budget excluded).
    config: dict
    #: Fixed test budget of one measured fleet run.
    tests: int
    #: Tests of the untimed warm-up run.
    warmup_tests: int
    #: Attach a ddmin-reducing corpus and triage it after each run.
    corpus: bool = False

    def fleet_kwargs(self, seed: int) -> dict:
        return dict(self.config, seed=seed, n_tests=self.tests)

    @property
    def workers(self) -> int:
        return self.config.get("workers", 1)

    @property
    def faults(self) -> bool:
        """Faults on: bug reports expected.  Off: none allowed."""
        return self.config.get("buggy", False)


_COMMON = dict(dialect="sqlite", use_cache=True, use_vector=True)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig2-expr-d5",
            config=dict(
                _COMMON,
                oracle="coddtest",
                oracle_kwargs={"max_depth": 5, "expression_only": True},
                workers=1,
            ),
            tests=4000,
            warmup_tests=400,
        ),
        Workload(
            name="hunt-buggy-guided",
            config=dict(
                _COMMON,
                oracle="coddtest",
                oracle_kwargs={"max_depth": 3},
                buggy=True,
                guidance="plan-coverage",
                workers=1,
            ),
            tests=2500,
            warmup_tests=150,
            corpus=True,
        ),
        Workload(
            name="diff-sqlite3",
            config=dict(
                _COMMON,
                oracle="differential",
                backend_pair=("minidb", "sqlite3"),
                workers=1,
            ),
            tests=3000,
            warmup_tests=300,
        ),
        Workload(
            name="fleet-2w",
            config=dict(_COMMON, oracle="coddtest", workers=2),
            tests=6000,
            warmup_tests=400,
        ),
    )
}


# ---------------------------------------------------------------------------
# The layer -> end-to-end prediction map
# ---------------------------------------------------------------------------

ALL = tuple(WORKLOADS)
ONE_PROCESS = tuple(n for n, w in WORKLOADS.items() if w.workers == 1)
HUNT = ("hunt-buggy-guided",)
FIG2 = ("fig2-expr-d5",)
DIFF = ("diff-sqlite3",)

#: Per-layer metric -> (end-to-end metric it should move, workloads
#: where it should move it).  An empty workload tuple means
#: "predict no move".  Times are self times (span duration minus wrapped
#: child spans) or totals, as ``measure.layer_metrics`` reads them.
PREDICTIONS: dict[str, tuple[str, tuple[str, ...]]] = {
    # bug yield of the hunt workload (0 where faults are off)
    "failed_test_share": ("completed_test_share", ALL),
    "tests_to_first_bug": ("tests_per_s", HUNT),
    "distinct_faults": ("tests_per_s", HUNT),
    "clusters_per_min": ("tests_per_s", HUNT),
    "triage_s": ("tests_per_s", HUNT),
    # generator
    "generator.state_s": ("tests_per_s", DIFF),
    "generator.states": ("tests_per_s", DIFF),
    # core
    "core.test_self_s": ("tests_per_s", FIG2),
    "core.fold_s": ("tests_per_s", FIG2),
    "core.test_ms_p50": ("tests_per_s", ALL),
    "core.test_ms_p99": ("tests_per_s", ALL),
    "oracle.compare_s": ("tests_per_s", ()),
    # adapters
    "adapters.minidb_self_s": ("tests_per_s", FIG2 + HUNT),
    "adapters.minidb_calls": ("tests_per_s", FIG2 + HUNT),
    "adapters.prime_parse_s": ("tests_per_s", FIG2),
    "adapters.sqlite3_s": ("tests_per_s", DIFF),
    "adapters.sqlite3_calls": ("tests_per_s", DIFF),
    # perf (evaluation cache)
    "perf.normalize_s": ("tests_per_s", FIG2),
    "perf.parse_memo_s": ("tests_per_s", HUNT),
    "perf.parse_hit_ratio": ("tests_per_s", ALL),
    "perf.parse_hits": ("tests_per_s", ALL),
    "perf.parse_misses": ("tests_per_s", ALL),
    "perf.stmt_hit_ratio": ("tests_per_s", ALL),
    "perf.stmt_hits": ("tests_per_s", ALL),
    "perf.stmt_misses": ("tests_per_s", ALL),
    "perf.eval_hit_ratio": ("tests_per_s", ALL),
    "perf.eval_hits": ("tests_per_s", ALL),
    "perf.eval_misses": ("tests_per_s", ALL),
    "perf.plan_hit_ratio": ("tests_per_s", ALL),
    "perf.plan_hits": ("tests_per_s", ALL),
    "perf.plan_misses": ("tests_per_s", ALL),
    # minidb
    "minidb.parse_s": ("tests_per_s", HUNT),
    "minidb.plan_s": ("tests_per_s", ONE_PROCESS),
    "minidb.plan_calls": ("tests_per_s", ONE_PROCESS),
    "minidb.exec_self_s": ("tests_per_s", ONE_PROCESS),
    "minidb.exec_calls": ("tests_per_s", ONE_PROCESS),
    "minidb.rows_out": ("tests_per_s", ONE_PROCESS),
    # differential
    "differential.tee_self_s": ("tests_per_s", DIFF),
    "differential.divergences": ("tests_per_s", ()),
    # backends
    "backends.probe_s": ("setup_s", DIFF),
    # set-up: the unscaled cold start and the reference start it is
    # scaled by (the reference holds no harness code)
    "setup.raw_s": ("setup_s", ALL),
    "setup.reference_s": ("setup_s", ()),
    # the unscaled rate and the reference slice it is scaled by (the
    # slice holds no harness code)
    "run.raw_tests_per_s": ("tests_per_s", ALL),
    "run.reference_slice_ms": ("tests_per_s", ()),
    # runner
    "runner.reduce_s": ("clusters_per_min", HUNT),
    "runner.reduce_checks": ("clusters_per_min", HUNT),
    "runner.reduce_useful_ratio": ("clusters_per_min", HUNT),
    # fleet
    "fleet.corpus_add_s": ("clusters_per_min", HUNT),
    "fleet.dup_ratio": ("clusters_per_min", HUNT),
    "fleet.pool_overhead_s": ("tests_per_s", ("fleet-2w",)),
    # guidance
    "guidance.policy_s": ("tests_per_s", HUNT),
    # triage
    "triage.cluster_s": ("triage_s", HUNT),
    "triage.replay_s": ("triage_s", HUNT),
    "triage.render_s": ("triage_s", HUNT),
    "triage.replay_reproduces_ratio": ("triage_s", HUNT),
    # observability and the trace's own self-check
    "obs.phase_coverage": ("tests_per_s", ()),
    "trace.wall_s": ("tests_per_s", ()),
    "trace.unattributed_share": ("tests_per_s", ()),
    "trace.overhead": ("tests_per_s", ()),
}
