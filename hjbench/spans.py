"""In-memory span tracing of hjoints, installed from outside the package.

``Recorder.install`` wraps every public function of the traced modules, in
every hjoints module namespace that holds it (``configs`` imports
``witness_check`` by name, for instance), plus the constructors and methods
in ``CLASS_SPANS``. Field arithmetic is not wrapped: ``fields`` runs millions
of ``mul`` calls, and their cost shows in the self time of their callers.

Each span is ``[name id, start, end, parent index, pass id, value]``; value
is a per-call number taken from the result for the functions in ``VALUES``,
or, for other spans, the number of calls to the ``CLASS_COUNTERS`` methods
made while the span was the innermost open one.
A span's self time is its duration minus the durations of its direct
children, which never overlap because the workloads run on one thread.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED_MODULES = ("configs", "vanishing", "geometry", "linalg", "extremal",
                  "entropy", "serialize")

# tiny helpers called in inner loops; their cost stays in the caller's self time
NOT_TRACED = {"linalg.mat_vec", "linalg.sum_list", "linalg.vec_sub",
              "linalg.vec_add", "linalg.vec_scale", "linalg.identity_rows",
              "vanishing.monomials_upto", "vanishing.monomials_of_degree",
              "vanishing.edge_projection", "vanishing.edge_embedding",
              "extremal.colex_key", "extremal.binom_real"}

# (module, class, attribute, span name)
CLASS_SPANS = (("vanishing", "PullbackTable", "__init__", "vanishing.PullbackTable"),
               ("configs", "JointsConfiguration", "tuples_at",
                "configs.JointsConfiguration.tuples_at"))

# (module, class, method) counted, not timed: each call adds 1 to the value
# of the innermost open span; _Echelon.insert is one row reduced in
# build_flat_ledger's elimination
CLASS_COUNTERS = (("vanishing", "_Echelon", "insert"),)

VALUES = {
    "geometry.witness_check": lambda r: int(r is not None),
    "extremal.find_embedding": lambda r: int(r is not None),
    "entropy.joint_multiplicity": lambda r: r.iterations,
    "extremal.search_M": lambda r: r.hosts_examined,
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list = []
        self.stack = [-1]
        self.pass_id = 0

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        value_of = VALUES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1], self.pass_id, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value_of is not None:
                span[5] = value_of(result)
            return result

        return traced

    def count(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack[-1] >= 0:
                spans[stack[-1]][5] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, pkg) -> None:
        """Wrap the traced functions of a freshly imported hjoints package."""
        prefix = pkg.__name__ + "."
        wrapped = {}
        for short in TRACED_MODULES:
            mod = sys.modules[prefix + short]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_TRACED):
                    wrapped[fn] = self.wrap(name, fn)
        namespaces = [m for n, m in sys.modules.items()
                      if n == pkg.__name__ or n.startswith(prefix)]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
        for short, cls_name, attr, name in CLASS_SPANS:
            cls = getattr(sys.modules[prefix + short], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        for short, cls_name, attr in CLASS_COUNTERS:
            cls = getattr(sys.modules[prefix + short], cls_name)
            setattr(cls, attr, self.count(getattr(cls, attr)))

    @contextmanager
    def span(self, name: str):
        """A root span around set-up or a pass, recorded like any other."""
        nid = self.name_id(name)
        span = [nid, 0.0, 0.0, self.stack[-1], self.pass_id, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def aggregate(self, pass_ids) -> dict:
        """Summed over the given passes, per span name: calls, self_s,
        total_s and the sum of values; plus the derived counts
        ``tuples_at_misses`` (tuples_at calls that enumerated),
        ``search_counts`` (containment counts made by search_M) and
        ``counter_calls`` (calls to the ``CLASS_COUNTERS`` methods)."""
        pass_ids = set(pass_ids)
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                   "value": 0})
        tuples_at = self.ids.get("configs.JointsConfiguration.tuples_at")
        enumerate_ = self.ids.get("geometry.enumerate_witness_tuples")
        search = self.ids.get("extremal.search_M")
        count = self.ids.get("extremal.count_inducing_sets")
        misses = counted = 0
        counter_calls = 0
        for i, s in enumerate(spans):
            if s[4] not in pass_ids:
                continue
            a = agg[self.names[s[0]]]
            a["calls"] += 1
            a["total_s"] += s[2] - s[1]
            a["self_s"] += s[2] - s[1] - child[i]
            a["value"] += s[5]
            if self.names[s[0]] not in VALUES:
                counter_calls += s[5]
            parent = spans[s[3]][0] if s[3] >= 0 else None
            if parent is not None and parent == tuples_at and s[0] == enumerate_:
                misses += 1
            if parent is not None and parent == search and s[0] == count:
                counted += 1
        return {"by_name": dict(agg), "tuples_at_misses": misses,
                "search_counts": counted, "counter_calls": counter_calls}

    def dump(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass", "value"],
                       "names": self.names,
                       "spans": [[s[0], round(s[1], 9), round(s[2], 9), s[3],
                                  s[4], s[5]] for s in self.spans]}, fh)


def wrapper_costs(calls: int = 10000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one timed span and one counted call add to a call: a wrapped
    no-op against the bare one, best of ``repeats`` loops of ``calls``."""
    def noop():
        pass

    rec = Recorder()
    rec.stack.append(0)
    rec.spans.append([0, 0.0, 0.0, -1, 0, 0])

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            del rec.spans[1:]
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times) / calls

    bare = best(noop)
    return best(rec.wrap("noop", noop)) - bare, best(rec.count(noop)) - bare
