"""A fixed reference workload that tracks how fast the host runs Python.

On a shared host the same pure-Python code runs up to about twice as
slow for seconds to minutes at a time.  CPU time tracks wall time and
the guest kernel reports no steal, so the slowdown is contention inside
the physical core, and no estimator over the harness's own timings
(minimum, low percentile) removes it: in a slow phase every slice of
work is slow.  What does cancel it is a fixed piece of work timed in
between stretches of harness work: both slow down together.

:class:`HostSpeed` times short slices of :class:`ReferenceWork` (compiling
regular expressions with the pure-Python ``re`` compiler, parsing and
evaluating expression trees, string and dict churn: the same kind of
work as the harness's generator, parser and evaluator, with no harness
code in it) and hands back their durations.  ``measure.py`` scales each
run's throughput by the mean slice time over :data:`NOMINAL_SLICE_S`.
"""

from __future__ import annotations

import gc
import random
import re
import re._compiler as re_compiler
import time

#: Nominal seconds of one reference slice, near its median on the
#: machine the benchmark was built on (a 2-vCPU Intel Xeon VM).
#: ``tests_per_s`` is the harness's rate on a host where one slice takes
#: this long.
NOMINAL_SLICE_S = 0.01

#: Seconds of harness work between two slices.
SLICE_EVERY_S = 0.125

_PATTERNS = (
    r"(?P<x>[a-z]+)\d{2,5}(foo|bar)*",
    r"^\s*(SELECT|INSERT)\s+(.*?)\s+FROM\s+(\w+)(\s+WHERE\s+(.+))?$",
    r"[A-Za-z_][A-Za-z0-9_]*|\d+(\.\d*)?|'([^']|'')*'|<=|>=|<>|!=|[-+*/%(),.;<>=]",
    r"(a|b|c)+?x{3}[^xyz]\B\w",
)

_TOKEN = re.compile(r"\s*(\d+|NULL|AND|OR|[abc]|[-+*<=()])")

_OPS = ("+", "-", "*", "<", "=", "AND", "OR")


class _Lit:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def ev(self, row):
        return self.value

    def sql(self) -> str:
        return "NULL" if self.value is None else str(self.value)


class _Col:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def ev(self, row):
        return row.get(self.name)

    def sql(self) -> str:
        return self.name


class _Bin:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right

    def ev(self, row):
        a = self.left.ev(row)
        b = self.right.ev(row)
        if a is None or b is None:
            return None
        op = self.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "<":
            return int(a < b)
        if op == "=":
            return int(a == b)
        if op == "AND":
            return int(bool(a) and bool(b))
        return int(bool(a) or bool(b))

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


def _parse(text: str):
    tokens = _TOKEN.findall(text)
    pos = 0

    def node():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = node()
            op = tokens[pos]
            pos += 1
            right = node()
            pos += 1
            return _Bin(op, left, right)
        if tok == "NULL":
            return _Lit(None)
        if tok in ("a", "b", "c"):
            return _Col(tok)
        return _Lit(int(tok))

    return node()


class ReferenceWork:
    """One fixed slice of reference work; its inputs never change."""

    def __init__(self) -> None:
        rng = random.Random(7)

        def gen(depth: int):
            if depth == 0 or rng.random() < 0.25:
                if rng.random() < 0.5:
                    return _Lit(rng.choice((None, 0, 1, 2, 5, 3)))
                return _Col(rng.choice("abc"))
            return _Bin(rng.choice(_OPS), gen(depth - 1), gen(depth - 1))

        self.texts = [gen(5).sql() for _ in range(30)]
        self.rows = [
            {"a": rng.randint(-5, 5), "b": rng.choice((None, 1, 2)), "c": rng.randint(0, 9)}
            for _ in range(40)
        ]

    def run(self) -> int:
        checksum = 0
        for _ in range(3):
            for pattern in _PATTERNS:
                checksum += len(re_compiler.compile(pattern, 0).pattern)
        for text in self.texts:
            tree = _parse(text)
            checksum += sum(1 for row in self.rows if tree.ev(row))
            checksum += len(tree.sql())
        table: dict = {}
        for i in range(10000):
            table[i & 1023] = i
            checksum += len(str(i))
        return checksum


class HostSpeed:
    """Times reference slices in between stretches of harness work.

    :meth:`maybe_slice` runs a slice once :data:`SLICE_EVERY_S` seconds
    have passed since the last one; :meth:`take` returns the slice times
    recorded since the previous call.  Collection is off during a slice,
    so a slice never pays for a collection of the harness's heap.
    """

    def __init__(self) -> None:
        self.work = ReferenceWork()
        self._times: list[float] = []
        self._last = time.perf_counter()
        self._expected = self.work.run()

    def slice(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            checksum = self.work.run()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if checksum != self._expected:
            raise RuntimeError("reference work changed its result")
        self._times.append(elapsed)
        self._last = time.perf_counter()
        return elapsed

    def maybe_slice(self) -> None:
        if time.perf_counter() - self._last >= SLICE_EVERY_S:
            self.slice()

    def restart(self) -> None:
        """Start a new stretch of harness work now."""
        self._last = time.perf_counter()

    def take(self) -> list[float]:
        times, self._times = self._times, []
        return times
