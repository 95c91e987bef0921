"""Spans around calls into each ``sliceloop`` module, from outside the package.

``Tracer.install`` rebinds every public function listed in ``FUNCTIONS``
at every module attribute that holds it (``simulate_interval`` is imported
by name into ``loop``, ``agents`` and ``baselines``, so patching
``sliceloop.radio`` alone would miss every call), and wraps the methods in
``METHODS`` on their class.  Each call records a span (id, parent id,
name, start, end) in memory; ``uninstall`` restores the originals.

Self time of a span is its duration minus the durations of its direct
children; the spans of one unit are single-threaded and properly nested,
so the children never overlap.  Speed-meter samples (``speed.py``) that
land inside a span count toward it: one 0.3 ms sample per 50 ms, 0.6%.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "sliceloop", "sliceloop.core", "sliceloop.radio", "sliceloop.sla",
    "sliceloop.store", "sliceloop.agents", "sliceloop.loop",
    "sliceloop.baselines", "sliceloop.stats", "sliceloop.harness",
    "sliceloop.cli",
)

# (defining module, function); the span is named "<module>.<function>".
FUNCTIONS = (
    ("radio", "simulate_interval"),
    ("sla", "assess"),
    ("agents", "build_meta_prompt"),
    ("loop", "run_cycle"),
    ("baselines", "enumerate_splits"),
    ("baselines", "brute_force_optimal"),
    ("harness", "write_run_dir"),
    ("stats", "compute_distribution_stats"),
)

# (module, class, method); the span is named "<module>.<class>.<method>".
METHODS = (
    ("agents", "Predictor", "predict"),
    ("agents", "Predictor", "score"),
    ("agents", "HeuristicOracleBackend", "propose"),
    ("agents", "ScriptedBackend", "propose"),
    ("agents", "RemoteBackend", "propose"),
    ("store", "ExperienceStore", "load"),
    ("store", "ExperienceStore", "retrieve"),
    ("store", "ExperienceStore", "record"),
)

PROPOSE = {f"agents.{cls}.propose" for _, cls, m in METHODS if m == "propose"}
SIMULATE = "radio.simulate_interval"
# Spans that own the rollouts below them: distinct slice inputs are counted
# within one of these, which is the reuse a per-call response table can get.
GROUPS = PROPOSE | {"baselines.enumerate_splits", "loop.run_cycle"}
ROLLOUT_PARENTS = {"agents.Predictor.predict", "baselines.enumerate_splits"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.stack: list[tuple[int, str]] = []
        self.next_id = 0
        self.slice_runs = 0
        self.distinct: dict[int, set] = defaultdict(set)
        self.calls_by_parent: Counter = Counter()
        self.tokens = Counter()
        self.store_size = 0
        self.splits_scored = 0
        self.unbalanced = 0
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name: str, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else (None, None)
            tracer.stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((span_id, parent[0], name, start, end))
            if observe is not None:
                observe(parent[1], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _group(self) -> int:
        for span_id, name in reversed(self.stack):
            if name in GROUPS:
                return span_id
        return -1

    def _observe_simulate(self, parent, args, kwargs, result) -> None:
        names = ("offered_mbps", "rb_counts", "channels", "radio_cfg", "queue_cfg", "state")
        bound = dict(zip(names, args))
        bound.update(kwargs)
        self.calls_by_parent[parent] += 1
        group = self.distinct[self._group()]
        state = bound["state"]
        for k, q in enumerate(state.queues):
            self.slice_runs += 1
            group.add((
                bound["offered_mbps"][k],
                tuple(ue.sinr for ue in bound["channels"] if ue.slice_id == k),
                bound["rb_counts"][k],
                bound["radio_cfg"],
                bound["queue_cfg"],
                state.tick,
                q.arrival_ticks.tobytes(),
                q.arrival_carry,
                q.service_credit,
            ))
        for a in result.accounting:
            queued = a.queued_after - a.queued_before
            if a.delivered_packets + a.dropped_packets + queued != a.offered_packets:
                self.unbalanced += 1

    def _observe_propose(self, parent, args, kwargs, result) -> None:
        self.tokens["prompt"] += result.prompt_tokens
        self.tokens["completion"] += result.completion_tokens

    def _observe_record(self, parent, args, kwargs, result) -> None:
        self.store_size = max(self.store_size, len(args[0]))

    def _observe_load(self, parent, args, kwargs, result) -> None:
        self.store_size = max(self.store_size, len(result))

    def _observe_enumerate(self, parent, args, kwargs, result) -> None:
        self.splits_scored += len(result)

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        observers = {
            SIMULATE: self._observe_simulate,
            "store.ExperienceStore.record": self._observe_record,
            "store.ExperienceStore.load": self._observe_load,
            "baselines.enumerate_splits": self._observe_enumerate,
            **{name: self._observe_propose for name in PROPOSE},
        }
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"sliceloop.{module_name}"], fn_name)
            name = f"{module_name}.{fn_name}"
            wrapper = self._wrap(original, name, observers.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for module_name, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"sliceloop.{module_name}"], cls_name)
            raw = cls.__dict__[method]
            name = f"{module_name}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, observers.get(name)))
            else:
                wrapped = self._wrap(raw, name, observers.get(name))
            self._saved.append((cls, method, raw))
            setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid] for sid, _, _, start, end in self.spans}

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        self_t = self.self_times()
        by_name = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, name, start, end in self.spans:
            entry = by_name[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_t[sid]
        return dict(by_name)

    def module_self_under(self, root: str) -> dict[str, float]:
        """Self time by module of every span that ran inside a ``root`` span."""
        names = {sid: name for sid, _, name, _, _ in self.spans}
        parents = {sid: parent for sid, parent, _, _, _ in self.spans}
        self_t = self.self_times()
        inside: dict[int, bool] = {}

        def under(sid):
            path = []
            while sid is not None and sid not in inside:
                if names[sid] == root:
                    inside[sid] = True
                    break
                path.append(sid)
                sid = parents[sid]
            verdict = inside.get(sid, False) if sid is not None else False
            for s in path:
                inside[s] = verdict
            return verdict

        out = defaultdict(float)
        for sid, name in names.items():
            if under(sid):
                out[name.split(".")[0]] += self_t[sid]
        return dict(out)

    def distinct_slice_runs(self) -> int:
        return sum(len(keys) for keys in self.distinct.values())
