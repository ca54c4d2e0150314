#!/usr/bin/env python3
"""Benchmark of booleancomplex: one workload, one seed, one run.

Run from the root of a source checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload crosscheck-mix --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each op starts when the previous one
has returned.  An op is one graph's task (see workloads.py).  The run cycles
a seeded deck of graphs pass by pass, one group of the deck per pass; every
pass starts from an empty ideal cache and a fresh recursion memo, as a fresh
process would.  Times are scaled to the speed of a fixed reference kernel
run between ops (speed.py), which steadies them on a shared machine.  Every
answer is checked against an oracle after the timed loop.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
``{"meta": {...}}`` with the machine, the source and the run's counts.
``--trace 1`` runs the deck traced (tracer.py), then replays the same passes
untraced to measure the overhead, and writes the spans to
``.perfbench_out/``.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("crosscheck-mix", "recursion-large", "ideal-count", "chain-homology")

#: Fresh processes timed for setup_s, half before the timed loop and half
#: after it, so that the median spans the run's changes of machine speed.
SETUP_PROBES = 12

#: Reference kernel calls before the first op, and before and after each
#: set-up probe.
KERNEL_WARMUP = 3

# Times are scaled to the reference kernel's speed (speed.py): ref_ms and
# ref_s are milliseconds and seconds on a machine where the kernel takes
# speed.KERNEL_REF_MS.  setup_s is in reference seconds too.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_ref_s": "1/ref_s",
    "op_p50_ref_ms": "ref_ms",
    "op_tail_ref_ms": "ref_ms",
    "peak_rss_mb": "MiB",
}

# Counts and self times are per traced op; the trace.* rows describe the run.
PER_LAYER_UNITS = {
    "graph.canonical_key.calls": "1/op",
    "graph.canonical_key.self_s": "s/op",
    "graph.surgery.calls": "1/op",
    "graph.surgery.self_s": "s/op",
    "beta.recursion.calls": "1/op",
    "beta.recursion.self_s": "s/op",
    "beta.recursion.memo_hit_ratio": "ratio",
    "beta.subset.self_s": "s/op",
    "beta.euler.self_s": "s/op",
    "ideal.enumerate.calls": "1/op",
    "ideal.enumerate.cache_hits": "1/op",
    "ideal.enumerate.elements": "1/op",
    "ideal.enumerate.self_s": "s/op",
    "ideal.normalize.calls": "1/op",
    "ideal.normalize.self_s": "s/op",
    "ideal.append_letter.calls": "1/op",
    "ideal.admits_adjacent_pair.calls": "1/op",
    "ideal.face_table.calls": "1/op",
    "ideal.face_table.self_s": "s/op",
    "morse.build.nodes": "1/op",
    "morse.build.iso_classes": "1/op",
    "morse.pairs": "1/op",
    "morse.build_h_matching.self_s": "s/op",
    "homology.top_betti.self_s": "s/op",
    "homology.betti_gf2.self_s": "s/op",
    "homology.top_cycle_basis.self_s": "s/op",
    "homology.gf2.columns": "1/op",
    "homology.gf2.self_s": "s/op",
    "trace.ops": "count",
    "trace.traced_ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


def load_package():
    """Import booleancomplex from this checkout's src/, and nothing else."""
    package = SRC / "booleancomplex"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import booleancomplex

    if Path(booleancomplex.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported {booleancomplex.__file__}, not {package}")
    return booleancomplex


# ----------------------------------------------------------------------
# the closed loop

@dataclass
class Ledger:
    """Answers and failures across every loop of one run."""

    first: dict = field(default_factory=dict)   # (group, index) -> first answer
    agreed: dict = field(default_factory=dict)  # (group, index) -> ops that gave it
    errors: list = field(default_factory=list)  # one reason per failed op
    attempted: int = 0

    def record(self, index, answer, error):
        self.attempted += 1
        if error is None:
            first = self.first.setdefault(index, answer)
            if first is not answer and first != answer:
                error = f"deck item {index}: answer changed between passes"
        if error is None:
            self.agreed[index] = self.agreed.get(index, 0) + 1
        else:
            self.errors.append(error)

    def verify(self, workload, deck):
        """Run the oracle on the first answer of each deck item; every op
        that returned a wrong answer counts as failed."""
        oracle_memo = {}
        for index, answer in sorted(self.first.items()):
            item = deck[index[0]][index[1]]
            try:
                reason = workload.check(item, answer, oracle_memo)
            except Exception as exc:  # an oracle that raises rejects the answer
                reason = f"oracle raised {type(exc).__name__}: {exc}"
            if reason is not None:
                self.errors.extend([f"{item.label}: {reason}"] * self.agreed.pop(index))

    @property
    def failed(self):
        return len(self.errors)


@dataclass
class Loop:
    latencies: list = field(default_factory=list)  # seconds, one per op
    ref_ms: list = field(default_factory=list)     # the same, in reference ms
    labels: list = field(default_factory=list)     # one per op
    spans: list = field(default_factory=list)      # (start, end) per op
    speed: SpeedLog = field(default_factory=SpeedLog)
    busy: float = 0.0                               # summed op time
    passes: int = 0

    @property
    def ref_busy_s(self):
        return sum(self.ref_ms) / 1e3


def drive(workload, deck, seed, ledger, seconds=None, passes=None, tracer=None):
    """Run whole passes over the deck until more than ``seconds`` of op time
    have run, or exactly ``passes`` passes.  Whole passes keep the mix of
    graphs the same in every run, whatever the machine's speed.  After each
    op, outside its timed region, the reference kernel samples the
    machine's speed (speed.py): one call, plus one per 100 ms of op time."""
    from booleancomplex import ideal
    from workloads import pass_deck

    loop = Loop()
    loop.speed.sample(KERNEL_WARMUP)
    while loop.busy <= seconds if passes is None else loop.passes < passes:
        group, items = pass_deck(workload.name, seed, deck, loop.passes)
        ideal._enumerate.cache_clear()
        gc.collect()
        memo = {}
        loop.passes += 1
        for index, item in enumerate(items):
            error = answer = None
            start = perf_counter()
            try:
                if tracer is None:
                    answer = workload.op(item, memo)
                else:
                    answer = tracer.run_op(len(loop.latencies), workload.op, item, memo)
            except Exception as exc:  # BudgetError, CrossCheckError or any other
                error = f"{item.label}: {type(exc).__name__}: {exc}"
            end = perf_counter()
            elapsed = end - start
            loop.busy += elapsed
            loop.latencies.append(elapsed)
            loop.spans.append((start, end))
            loop.labels.append(item.label)
            ledger.record((group, index), answer, error)
            loop.speed.sample(1 + int(elapsed / 0.1))
    loop.ref_ms = [loop.speed.ref_ms(e - s, s, e) for s, e in loop.spans]
    return loop


def tail(latencies, percentile):
    """(nearest-rank value at ``percentile``, samples above it)."""
    ordered = sorted(latencies)
    k = max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)
    return ordered[k], len(ordered) - 1 - k


# ----------------------------------------------------------------------
# set-up time

def time_setup(workload_name, seed, count):
    """Times of ``count`` fresh processes that import the package and build
    the deck, interpreter start-up included: (reference seconds, wall
    seconds) per process."""
    times = []
    log = SpeedLog()
    for _ in range(count):
        log.sample(KERNEL_WARMUP)
        start = perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantise the time; block instead, with a timer as the time limit
        timer = threading.Timer(120, probe.kill)
        timer.start()
        try:
            code = probe.wait()
        finally:
            timer.cancel()
        end = perf_counter()
        if code != 0:
            raise RuntimeError(f"setup probe exited with code {code}")
        log.sample(KERNEL_WARMUP)
        times.append((start, end))
    return [(log.ref_ms(end - start, start, end) / 1e3, end - start) for start, end in times]


# ----------------------------------------------------------------------
# metadata

def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "booleancomplex").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(workload_name, seed, seconds, trace, deck):
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "deck_groups": len(deck),
        "deck_size": sum(map(len, deck)),
    }


# ----------------------------------------------------------------------
# the two kinds of run

def plain_run(workload, deck, seconds, seed):
    setup_times = time_setup(workload.name, seed, SETUP_PROBES // 2)
    ledger = Ledger()
    loop = drive(workload, deck, seed, ledger, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += time_setup(workload.name, seed, SETUP_PROBES - SETUP_PROBES // 2)
    setup_s = statistics.median(ref for ref, _ in setup_times)
    ledger.verify(workload, deck)
    verified = ledger.attempted - ledger.failed
    tail_ref_ms, tail_above = tail(loop.ref_ms, workload.tail_percentile)
    tail_s, _ = tail(loop.latencies, workload.tail_percentile)
    metrics = {
        "setup_s": setup_s,
        "ops_per_ref_s": verified / loop.ref_busy_s,
        "op_p50_ref_ms": statistics.median(loop.ref_ms),
        "op_tail_ref_ms": tail_ref_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    meta = {
        "ops": ledger.attempted,
        "passes": loop.passes,
        "setup_runs": SETUP_PROBES,
        "tail_percentile": workload.tail_percentile,
        "tail_samples_above": tail_above,
        # the same metrics in plain wall-clock time, not scaled
        "wall_setup_s": statistics.median(wall for _, wall in setup_times),
        "wall_ops_per_s": verified / loop.busy,
        "wall_op_p50_ms": statistics.median(loop.latencies) * 1e3,
        "wall_op_tail_ms": tail_s * 1e3,
    }
    return ledger, metrics, meta


def traced_run(workload, deck, seed, seconds, trace_path):
    from tracer import Tracer

    ledger = Ledger()
    tracer = Tracer()
    tracer.install()
    try:
        traced = drive(workload, deck, seed, ledger, seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    plain = drive(workload, deck, seed, ledger, passes=traced.passes)
    ledger.verify(workload, deck)

    ops = len(traced.latencies)
    counts, leaf_s = tracer.counts, {k: v / 1e9 for k, v in tracer.leaf_ns.items()}
    self_s, spans = tracer.span_totals()
    keys = counts["beta.recursion.keys"]
    totals = {
        "graph.canonical_key.calls": counts["graph.canonical_key"],
        "graph.canonical_key.self_s": leaf_s.get("graph.canonical_key", 0.0),
        "graph.surgery.calls": counts["graph.surgery"],
        "graph.surgery.self_s": leaf_s.get("graph.surgery", 0.0),
        "beta.recursion.calls": counts["beta.recursion.calls"],
        "beta.recursion.self_s": self_s["beta.recursion"],
        "beta.subset.self_s": self_s["beta.subset"],
        "beta.euler.self_s": self_s["beta.euler"],
        "ideal.enumerate.calls": spans["ideal.enumerate"],
        "ideal.enumerate.cache_hits": counts["ideal.enumerate.cache_hits"],
        "ideal.enumerate.elements": counts["ideal.enumerate.elements"],
        "ideal.enumerate.self_s": self_s["ideal.enumerate"],
        "ideal.normalize.calls": counts["ideal.normalize"],
        "ideal.normalize.self_s": leaf_s.get("ideal.normalize", 0.0),
        "ideal.append_letter.calls": counts["ideal.append_letter"],
        "ideal.admits_adjacent_pair.calls": counts["ideal.admits_adjacent_pair"],
        "ideal.face_table.calls": spans["ideal.face_table"],
        "ideal.face_table.self_s": self_s["ideal.face_table"],
        "morse.build.nodes": counts["morse.build.nodes"],
        "morse.build.iso_classes": tracer.iso_classes(),
        "morse.pairs": counts["morse.pairs"],
        "morse.build_h_matching.self_s": self_s["morse.build_h_matching"],
        "homology.top_betti.self_s": self_s["homology.top_betti"],
        "homology.betti_gf2.self_s": self_s["homology.betti_gf2"],
        "homology.top_cycle_basis.self_s": self_s["homology.top_cycle_basis"],
        "homology.gf2.columns": counts["homology.gf2.columns"],
        "homology.gf2.self_s": self_s["homology.gf2"],
    }
    metrics = {name: value / ops for name, value in totals.items()}
    metrics.update({
        "beta.recursion.memo_hit_ratio":
            (keys - counts["beta.recursion.memo_growth"]) / keys if keys else 0.0,
        "trace.ops": ops,
        "trace.traced_ops_per_s": ops / traced.busy,
        "trace.untraced_ops_per_s": ops / plain.busy,
        "trace.overhead": traced.ref_busy_s / plain.ref_busy_s - 1.0,
    })
    self_ns = tracer.self_ns()
    trace_path.parent.mkdir(exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump({
            "span_fields": ["op", "name", "start_ns", "end_ns", "parent", "leaf_ns",
                            "self_ns"],
            "spans": [span + [own] for span, own in zip(tracer.spans, self_ns)],
            "counts": dict(counts),
            "leaf_ns": dict(tracer.leaf_ns),
            "op_labels": traced.labels,
        }, f, separators=(",", ":"))
    meta = {"ops": ledger.attempted, "passes": traced.passes, "traced_ops": ops,
            "trace_file": str(trace_path.relative_to(ROOT))}
    return ledger, metrics, meta


def measure(workload_name, seed, seconds, trace, deck_size=None):
    """One run; returns (result object, metadata).  ``deck_size`` keeps
    that many inputs of the deck's first group only, for quick tests."""
    from workloads import WORKLOADS, build_deck

    workload = WORKLOADS[workload_name]
    deck = build_deck(workload_name, seed)
    if deck_size is not None:
        deck = [deck[0][:deck_size]]
    if trace:
        trace_path = OUT / f"trace-{workload_name}-seed{seed}.json"
        ledger, metrics, run_meta = traced_run(workload, deck, seed, seconds, trace_path)
        units = PER_LAYER_UNITS
    else:
        ledger, metrics, run_meta = plain_run(workload, deck, seconds, seed)
        units = END_TO_END_UNITS
    meta = metadata(workload_name, seed, seconds, trace, deck)
    meta.update(run_meta)
    meta["failed_ratio"] = ledger.failed / ledger.attempted
    meta["failures"] = ledger.errors[:5]
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    if args.setup_probe:
        from workloads import build_deck

        build_deck(args.workload, args.seed)
        return 0
    emit(*measure(args.workload, args.seed, args.seconds, args.trace))
    return 0


def emit(result, meta):
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
