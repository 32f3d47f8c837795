"""Outside-in span tracing of the harness's public layer functions.

The tracer replaces module and class attributes with timing wrappers;
no program file changes.  Spans are kept in memory (name, request id,
start, end, parent, self time) and written out when the run ends.  The
request id is the index of the enclosing test (``Oracle.run_one``
call); spans outside any test carry ``None``.

Self time is a span's duration minus the durations of its direct child
spans, so the self times of all spans add up exactly to the root span's
duration; the root's own self time is the unattributed remainder.

A function that re-enters itself (``parser_normal`` walks the AST
recursively, ``execute_select`` runs subqueries) is timed once per
outermost call: nested calls pass straight through.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict


class SpanRecorder:
    """In-memory spans of one traced run, and the patches that record them."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[list] = []
        self.active: dict[str, bool] = {}
        self.counts: Counter = Counter()
        self.rid: int | None = None
        self.next_rid = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None, request: bool = False):
        """A timing wrapper of *fn* recording spans named *name*.

        *on_result(recorder, result)* runs after each outermost call;
        *request* marks the span as a test, which assigns a new request
        id to it and every span under it.
        """
        perf = time.perf_counter
        active = self.active
        stack = self.stack
        spans = self.spans
        rec = self

        def wrapper(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            active[name] = True
            if request:
                rec.rid = rec.next_rid
                rec.next_rid += 1
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] = False
                duration = end - start
                spans[frame[0]] = (
                    name, rec.rid, start, end, parent, duration - frame[1]
                )
                if stack:
                    stack[-1][1] += duration
                if request:
                    rec.rid = None
            if on_result is not None:
                on_result(rec, result)
            return result

        return wrapper

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **kw))

    def patch_function(
        self, module: str, attr: str, name: str, adapt=None, **kw
    ) -> None:
        """Wrap ``module.attr`` and every ``from module import attr``
        binding of it in the loaded ``repro`` modules.  *adapt*, when
        given, turns the original into the function that gets timed."""
        original = getattr(importlib.import_module(module), attr)
        timed = adapt(original) if adapt is not None else original
        wrapper = self.wrap(name, timed, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patch_binding(self, module: str, attr: str, name: str, **kw) -> None:
        """Wrap the single binding ``module.attr``."""
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._undo.append((mod, attr, original))
        setattr(mod, attr, self.wrap(name, original, **kw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.rid = None
        self.next_rid = 0

    def summary(self) -> dict:
        """Per span name: calls, self seconds and total seconds; the
        counters; and the duration of every test span (for percentiles)."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        test_s: list[float] = []
        for name, _rid, start, end, _parent, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
            if name == "core.test":
                test_s.append(end - start)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counts": dict(self.counts),
            "test_s": test_s,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, rid, start, end, parent, own in self.spans:
                fh.write(
                    json.dumps(
                        [name, rid, round(start, 7), round(end, 7), parent,
                         round(own, 7)],
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _count_rows(rec: SpanRecorder, result) -> None:
    rec.counts["minidb.rows_out"] += len(result.rows)


def install(rec: SpanRecorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    from repro.adapters.minidb_adapter import MiniDBAdapter
    from repro.adapters.sqlite3_adapter import Sqlite3Adapter
    from repro.differential.pair import DifferentialAdapter
    from repro.fleet.corpus import BugCorpus
    from repro.generator.state_gen import StateGenerator
    from repro.guidance.policy import GuidedPolicy
    from repro.oracles_base import Oracle
    from repro.perf.cache import EvalCache

    rec.patch_method(Oracle, "run_one", "core.test", request=True)
    rec.patch_function("repro.core.folding", "fold_expression", "core.fold")
    rec.patch_function("repro.oracles_base", "rows_equal", "oracle.compare")
    rec.patch_method(StateGenerator, "generate", "generator.state")
    rec.patch_method(MiniDBAdapter, "execute", "adapters.minidb")
    rec.patch_method(MiniDBAdapter, "prime_parse", "adapters.prime_parse")
    rec.patch_method(Sqlite3Adapter, "execute", "adapters.sqlite3")
    rec.patch_function("repro.perf.normalize", "parser_normal", "perf.normalize")
    rec.patch_method(EvalCache, "parse", "perf.parse_memo")
    rec.patch_function("repro.minidb.parser", "parse_statement", "minidb.parse")
    rec.patch_binding("repro.minidb.engine", "plan_select", "minidb.plan")
    rec.patch_function(
        "repro.minidb.executor", "execute_select", "minidb.exec",
        on_result=_count_rows,
    )
    rec.patch_method(DifferentialAdapter, "execute", "differential.tee")
    rec.patch_method(BugCorpus, "add", "fleet.corpus_add")
    rec.patch_method(GuidedPolicy, "begin_test", "guidance.policy")
    rec.patch_method(GuidedPolicy, "observe", "guidance.policy")
    rec.patch_function("repro.triage.loader", "load_corpus", "triage.load")
    rec.patch_function("repro.triage.cluster", "cluster_corpus", "triage.cluster")
    rec.patch_function("repro.triage.replay", "replay_clusters", "triage.replay")
    rec.patch_function("repro.triage.render", "render_triage", "triage.render")
    rec.patch_function(
        "repro.runner.reducer", "reduce_statements", "runner.reduce",
        adapt=lambda original: _counting_reducer(rec.counts, original),
    )


def _counting_reducer(counts: Counter, reduce_statements):
    """``reduce_statements`` that counts its ``still_fails`` checks: all
    of them, and the useful ones (the candidate still fails)."""

    def counted(statements, still_fails):
        def check(stmts):
            fails = still_fails(stmts)
            counts["runner.reduce_checks"] += 1
            counts["runner.reduce_useful"] += bool(fails)
            return fails

        return reduce_statements(statements, check)

    return counted
