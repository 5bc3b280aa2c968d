"""Per-layer tracing from outside the package.

`Tracer.install` replaces public `hctree` functions with wrappers in every
module namespace that holds them (`cli` imports `solve_weak_periodic` by
name, `solvers` imports `recursion_map`, the package re-exports most of
them), and `uninstall` puts the originals back. Coarse functions get a span
each: name, start, end, parent span and the id of the benchmark call that
caused it. Hot functions (`recursion_map`, `weak_system_map`) only count.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import collections
import inspect
import itertools
import threading
import time

import hctree
from hctree import cli, core, extremality, oracle, solvers, weakperiodic

import reference as ref

MODULES = (hctree, core, solvers, extremality, weakperiodic, oracle, cli)

SPANNED = {
    cli: ("main",),
    solvers: ("solve_translation_invariant", "solve_two_periodic", "critical_values",
              "solve_two_periodic_k3_closed"),
    extremality: ("classify", "report_for_law", "h_function", "g_function"),
    weakperiodic: ("solve_weak_periodic",),
    oracle: ("consistency_check", "count_admissible", "partition_function", "root_marginal",
             "sample_tree_chain", "hard_core_violations"),
}

COUNTED = {
    (core, "recursion_map"): "core.recursion_map.calls",
    (weakperiodic, "weak_system_map"): "weakperiodic.map_calls",
}

_VERDICT_KEYS = {
    "ProvenExtremal": "extremality.verdict.extremal",
    "ProvenNonExtremal": "extremality.verdict.nonextremal",
    "Undetermined": "extremality.verdict.undetermined",
}


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def _admissible(ball):
    return ref.admissible_count(ball.k, ball.depth, ball.root_degree.value == "full")


def _enumerates(args):
    """Configurations the call's depth-first search visits, from its inputs."""
    ball = args["ball"]
    if ball.n_vertices > oracle.ENUMERATION_VERTEX_CAP:
        return 0
    return _admissible(ball) if args.get("method") in ("auto", "enumeration") else 0


def _consistency_configs(args):
    ball = args["ball"]
    prefix = ref.admissible_count(ball.k, ball.depth - 1, ball.root_degree.value == "full")
    return _admissible(ball) + prefix


def _sample_bytes(args):
    """float64 uniforms plus int8 spins, one per vertex per sample."""
    full = oracle.RootDegree(args["root_degree"]) is oracle.RootDegree.FULL
    n = ref.ball_size(args["params"].k, args["depth"], full)
    return args["count"] * n * (8 + 1)


# what each call adds to a counter, computed from its bound arguments
BEFORE = {
    "oracle.consistency_check": ("oracle.configs_enumerated", _consistency_configs),
    "oracle.count_admissible": ("oracle.configs_enumerated", _enumerates),
    "oracle.partition_function": ("oracle.configs_enumerated", _enumerates),
    "oracle.root_marginal": ("oracle.configs_enumerated", _enumerates),
    "oracle.sample_tree_chain": ("oracle.sample_bytes", _sample_bytes),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or 0, call id)
        self.call_id = None
        self._call_root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters = []
        self._lock = threading.Lock()
        self._ticks = {key: itertools.count() for key in COUNTED.values()}
        self._saved = []

    # -- counting: hot functions tick an itertools.count (one C call, atomic
    # under the GIL); coarse ones update a per-thread Counter

    def _counter(self):
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = collections.Counter()
            with self._lock:
                self._counters.append(counter)
        return counter

    def counts(self):
        """Totals so far; reading a tick counter advances it, so read once."""
        total = collections.Counter({key: next(tick) for key, tick in self._ticks.items()})
        for counter in self._counters:
            total.update(counter)
        return total

    # -- spans

    def _span(self, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # a span opened on a pool thread belongs to the call that started it
        parent = stack[-1] if stack else self._call_root
        span_id = next(self._ids)
        if not stack and threading.current_thread() is threading.main_thread():
            self._call_root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.call_id))

    def _wrap_span(self, name, fn):
        before = BEFORE.get(name)
        signature = inspect.signature(fn)
        after = {
            "extremality.report_for_law":
                lambda c, r: c.update((_VERDICT_KEYS[r.verdict.value],)),
            "weakperiodic.solve_weak_periodic":
                lambda c, r: c.update({"weakperiodic.fixed_points": r.count}),
        }.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key, amount = before
                self._counter()[key] += amount(bound.arguments)
            result = self._span(name, fn, args, kwargs)
            if after is not None:
                after(self._counter(), result)
            return result

        return wrapper

    def _wrap_count(self, key, fn):
        tick = self._ticks[key].__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        targets = [
            (module, name, self._wrap_span(f"{_short(module)}.{name}", getattr(module, name)))
            for module, names in SPANNED.items()
            for name in names
        ]
        targets += [
            (module, name, self._wrap_count(key, getattr(module, name)))
            for (module, name), key in COUNTED.items()
        ]
        for home, name, wrapper in targets:
            original = getattr(home, name)
            for module in MODULES:
                if module.__dict__.get(name) is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # -- summaries

    def self_times(self):
        """Seconds per span name: each span's duration less the part of it
        that its children cover."""
        children = collections.defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        out = collections.Counter()
        for span_id, name, start, end, _parent, _call in self.spans:
            covered, reach = 0.0, start
            for _, _, c_start, c_end, _, _ in sorted(children[span_id], key=lambda s: s[2]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name] += (end - start) - covered
        return out

    def span_calls(self):
        return collections.Counter(span[1] for span in self.spans)
