"""Spans and counters around the library's layer boundaries, kept in memory.

The wrappers live here, in the benchmark; the library is not changed.  Each
wrapper is installed wherever a consumer module binds the function:
``morse.normalize`` and ``homology.enumerate_ideal`` are imported by name, so
patching ``ideal.normalize`` alone would miss most calls.  Methods are
patched on their class.

A span is ``[op, name, start_ns, end_ns, parent, leaf_ns]``, where ``parent``
is the index of the enclosing span (-1 for an op's root) and ``op`` is shared
by every span of one operation.  Hot primitives (``normalize``,
``canonical_key``, graph surgery) are called hundreds of thousands of times
per op, so they record no span: each call adds to a count and to a summed
duration, and that duration is also charged to the enclosing span's
``leaf_ns``.  ``append_letter``, ``admits_adjacent_pair`` and the matching
nodes are only counted; their time stays in the enclosing span.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

import booleancomplex as bc
from booleancomplex import beta, graph, homology, ideal, morse

CONSUMERS = (bc, graph, ideal, beta, morse, homology)

START, END, PARENT, LEAF = 2, 3, 4, 5


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.leaf_ns = Counter()
        self.op = -1
        self.node_graphs = []  # one list of _build graphs per build_h_matching
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------------
    # span bookkeeping

    def _enter(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op, name, perf_counter_ns(), 0, parent, 0])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][END] = perf_counter_ns()
        self._stack.pop()

    def run_op(self, op, fn, *args):
        """Call ``fn(*args)`` as operation ``op``, under a root span."""
        self.op = op
        index = self._enter("op")
        try:
            return fn(*args)
        finally:
            self._exit(index)

    def spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return wrapper

    def timed_leaf(self, name, fn):
        counts, leaf_ns, spans, stack = self.counts, self.leaf_ns, self.spans, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                counts[name] += 1
                leaf_ns[name] += elapsed
                if stack:
                    spans[stack[-1]][LEAF] += elapsed
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------------
    # wrappers that read extra counters

    def _enumerate(self, fn):
        cache_info = ideal._enumerate.cache_info

        def wrapper(*args, **kwargs):
            before = cache_info()
            index = self._enter("ideal.enumerate")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            after = cache_info()
            self.counts["ideal.enumerate.cache_hits"] += after.hits - before.hits
            if after.misses > before.misses:
                self.counts["ideal.enumerate.elements"] += result.element_count()
            return result
        return wrapper

    def _recursion(self, fn):
        def wrapper(graph, memo=None):
            if memo is None:
                memo = {}  # what beta_recursive does itself; kept to see its growth
            keys, size = self.counts["graph.canonical_key"], len(memo)
            index = self._enter("beta.recursion")
            try:
                result = fn(graph, memo)
            finally:
                self._exit(index)
            self.counts["beta.recursion.calls"] += result.calls
            self.counts["beta.recursion.keys"] += self.counts["graph.canonical_key"] - keys
            self.counts["beta.recursion.memo_growth"] += len(memo) - size
            return result
        return wrapper

    def _matching(self, fn):
        def wrapper(*args, **kwargs):
            self.node_graphs.append([])
            index = self._enter("morse.build_h_matching")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            self.counts["morse.pairs"] += len(result.pairs)
            return result
        return wrapper

    def _node(self, fn):
        def wrapper(g, v, build):
            self.counts["morse.build.nodes"] += 1
            self.node_graphs[-1].append(g)
            return fn(g, v, build)
        return wrapper

    def _gf2(self, fn):
        def wrapper(columns):
            self.counts["homology.gf2.columns"] += len(columns)
            index = self._enter("homology.gf2")
            try:
                return fn(columns)
            finally:
                self._exit(index)
        return wrapper

    # ------------------------------------------------------------------
    # installation

    def _rebind(self, original, replacement):
        for module in CONSUMERS:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, replacement)

    def _patch(self, cls, name, wrap):
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, wrap(original))

    def install(self):
        Graph = graph.Graph
        self._patch(Graph, "canonical_key",
                    lambda f: self.timed_leaf("graph.canonical_key", f))
        for name in ("delete_edge", "contract_edge", "extract_edge"):
            self._patch(Graph, name, lambda f: self.timed_leaf("graph.surgery", f))
        self._patch(ideal.BooleanIdeal, "face_table",
                    lambda f: self.spanned("ideal.face_table", f))

        self._rebind(ideal.normalize, self.timed_leaf("ideal.normalize", ideal.normalize))
        self._rebind(ideal.append_letter,
                     self.counted("ideal.append_letter", ideal.append_letter))
        self._rebind(ideal.admits_adjacent_pair,
                     self.counted("ideal.admits_adjacent_pair", ideal.admits_adjacent_pair))
        self._rebind(ideal.enumerate_ideal, self._enumerate(ideal.enumerate_ideal))

        self._rebind(beta.cross_check, self.spanned("beta.cross_check", beta.cross_check))
        self._rebind(beta.beta_recursive, self._recursion(beta.beta_recursive))
        self._rebind(beta.beta_euler, self.spanned("beta.euler", beta.beta_euler))
        self._rebind(beta.beta_subset_formula,
                     self.spanned("beta.subset", beta.beta_subset_formula))

        self._rebind(morse.build_h_matching, self._matching(morse.build_h_matching))
        self._rebind(morse._build, self._node(morse._build))

        for name in ("top_betti", "betti_gf2", "top_cycle_basis"):
            fn = getattr(homology, name)
            self._rebind(fn, self.spanned(f"homology.{name}", fn))
        for fn in (homology.gf2_rank, homology.gf2_kernel, homology.gf2_rref):
            self._rebind(fn, self._gf2(fn))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # results

    def self_ns(self):
        """Per span: its duration minus the time its child spans and its
        timed leaf calls cover (children run one after another)."""
        covered = [span[LEAF] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - c for span, c in zip(self.spans, covered)]

    def span_totals(self):
        """Summed self time in seconds and span count, by span name."""
        self_s, calls = Counter(), Counter()
        for span, own in zip(self.spans, self.self_ns()):
            self_s[span[1]] += own / 1e9
            calls[span[1]] += 1
        return self_s, calls

    def iso_classes(self):
        """Distinct canonical keys among the nodes of each matching build,
        summed over builds.  Call after uninstall, so the keys go uncounted."""
        keys = {}
        for nodes in self.node_graphs:
            for g in nodes:
                if g not in keys:
                    keys[g] = g.canonical_key()
        return sum(len({keys[g] for g in nodes}) for nodes in self.node_graphs)
