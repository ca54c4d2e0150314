"""Command-line front end.

Subcommands: beta, chi, enumerate, matching, homology, family, crosscheck.
Graphs come from --family NAME:n, --edges "u v"-lines, or --file PATH; output
is human text or, with --json, a stable schema (field "schema").

Every subcommand with an input graph takes one path.  ``run`` calls
``_compute``, which loads the graph and starts the JSON fields and the text
lines with it; the subcommand's ``_cmd_*`` function, given the graph and its
label mapping, returns only its own fields and lines; ``_emit`` puts
"command" first and prints the JSON or the lines.  ``family`` and
``crosscheck --sweep`` build their own graphs and return all their fields and
lines, and a cross-check mismatch is emitted with the graph of its report.

Exit codes: 0 ok, 1 output pipe closed early, 2 unparseable input, 3 budget
exceeded, 4 cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import homology, morse
from .beta import (
    FAMILIES,
    ROUTES,
    CrossCheckError,
    cross_check,
    family_graph,
    resolve_family,
)
from .graph import GraphError, isomorphism_classes, parse_edge_list
from .ideal import (
    BUILD_BUDGET,
    BudgetError,
    DEFAULT_BUDGET,
    enumerate_ideal,
    euler_characteristic,
    format_word,
    rank_sizes,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="booleancomplex",
        description="Boolean complexes of finite simple graphs: sphere counts, "
        "matchings, GF(2) homology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        src = p.add_mutually_exclusive_group(required=False)
        src.add_argument("--family", help='family spec like "A:5" or "affineD:6"')
        src.add_argument("--edges", help='inline edge list, lines "u v" (";" also separates)')
        src.add_argument("--file", help="path of an edge-list file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--budget", type=int, default=None,
            help=f"most ideal elements to count or build (default {DEFAULT_BUDGET} to "
            f"count, {BUILD_BUDGET} to build)",
        )

    p = sub.add_parser("beta", help="sphere count by the requested methods")
    add_common(p)
    p.add_argument(
        "--method", default="recursion",
        help="comma list of " + ",".join(ROUTES),
    )

    p = sub.add_parser("chi", help="Euler characteristic and the implied sphere count")
    add_common(p)

    p = sub.add_parser("enumerate", help="rank sizes of the boolean ideal")
    add_common(p)
    p.add_argument("--words", action="store_true", help="also list canonical words")

    p = sub.add_parser("matching", help="anchored acyclic matching plus verification")
    add_common(p)
    p.add_argument("--at-vertex", type=int, default=None, help="anchor vertex (default: smallest)")

    p = sub.add_parser("homology", help="reduced GF(2) Betti numbers")
    add_common(p)
    p.add_argument("--cycles", action="store_true", help="also print a top cycle basis")

    p = sub.add_parser("family", help="build a named family member and report its count")
    p.add_argument("--family", required=True, help='family spec like "E:8" or "affineE:8"')
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("crosscheck", help="run all methods and compare")
    add_common(p)
    p.add_argument("--sweep", type=int, metavar="N",
                   help="instead check every isomorphism class on up to N vertices")

    return parser


def _load_graph(args):
    sources = [s for s in (args.family, args.edges, args.file) if s is not None]
    if len(sources) != 1:
        raise GraphError("need exactly one of --family / --edges / --file")
    if args.family is not None:
        return family_graph(args.family), None
    if args.edges is not None:
        text = args.edges.replace(";", "\n")
    else:
        try:
            with open(args.file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise GraphError(f"cannot read {args.file}: {exc}") from None
    graph, labels = parse_edge_list(text)
    if len(graph) == 0:
        raise GraphError("the input graph is empty")
    mapping = None
    if labels != graph.vertices:
        mapping = dict(zip(graph.vertices, labels))
    return graph, mapping


def _graph_json(graph):
    return {"vertices": list(graph.vertices), "edges": [list(e) for e in graph.edges]}


def _matching_json(matching):
    return {
        "at_vertex": matching.at_vertex,
        "pairs": [
            {"lower": format_word(lo), "upper": format_word(up)} for lo, up in matching.pairs
        ],
        "unmatched_rank0": format_word(matching.unmatched_rank0),
        "unmatched_maximal": [format_word(w) for w in matching.unmatched_maximal],
    }


def _emit(args, fields, lines):
    if args.json:
        payload = {"command": args.command, **fields, "schema": SCHEMA_VERSION}
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _cmd_beta(args, graph, mapping):
    names = []
    for raw in args.method.split(","):
        name = raw.strip()
        if name not in ROUTES:
            raise GraphError(f"unknown method {raw!r}")
        names.append(name)
    values = {name: ROUTES[name](graph, args.budget, None) for name in names}
    return {"beta": values}, [f"beta[{name}] = {value}" for name, value in values.items()]


def _cmd_chi(args, graph, mapping):
    chi = euler_characteristic(graph, args.budget)
    implied = (-1) ** (len(graph) - 1) * (chi - 1)
    return {"chi": chi, "beta": implied}, [f"chi = {chi}", f"implied sphere count = {implied}"]


def _cmd_enumerate(args, graph, mapping):
    if args.words:
        ideal = enumerate_ideal(graph, args.budget)
        sizes = ideal.rank_sizes()
    else:
        sizes = rank_sizes(graph, args.budget)
    fields = {
        "rank_sizes": list(sizes),
        "euler_characteristic": sum((-1) ** r * f for r, f in enumerate(sizes)),
    }
    lines = ["rank sizes: " + " ".join(map(str, sizes))]
    if args.words:
        fields["ranks"] = [[format_word(w) for w in words] for words in ideal.ranks]
        lines += [f"rank {r}: " + " ".join(words) for r, words in enumerate(fields["ranks"])]
    return fields, lines


def _cmd_matching(args, graph, mapping):
    anchor = graph.vertices[0]
    if args.at_vertex is not None:
        # --at-vertex names an input label, like the mapping line
        labels = mapping or {v: v for v in graph.vertices}
        internal = {x: v for v, x in labels.items()}
        if args.at_vertex not in internal:
            raise GraphError(f"vertex {args.at_vertex} not in the input graph")
        anchor = internal[args.at_vertex]
    matching = morse.build_h_matching(graph, anchor, args.budget)
    ideal = enumerate_ideal(graph, args.budget)
    acyclic = morse.verify_acyclic(matching, ideal)
    report = morse.verify_h_properties(matching, ideal)
    words = _matching_json(matching)
    lines = [
        f"anchored at {anchor}: {len(matching.pairs)} pairs",
        f"unmatched rank 0: {words['unmatched_rank0']}",
        "unmatched maximal: " + (" ".join(words["unmatched_maximal"]) or "(none)"),
        f"acyclic: {acyclic}; h1: {report.h1}; h2: {report.h2}; h3: {report.h3}",
    ]
    fields = {"matching": words, "acyclic": acyclic, "h1": report.h1, "h2": report.h2,
              "h3": report.h3}
    return fields, lines


def _cmd_homology(args, graph, mapping):
    betti = homology.betti_gf2(graph, args.budget)
    fields = {"betti": list(betti)}
    lines = ["reduced Betti numbers: " + " ".join(map(str, betti))]
    if args.cycles:
        basis = homology.top_cycle_basis(graph, args.budget)
        fields["top_cycles"] = [[format_word(w) for w in c.words()] for c in basis]
        lines += [f"cycle {i}: " + " + ".join(f"[{w}]" for w in words)
                  for i, words in enumerate(fields["top_cycles"])]
    return fields, lines


def _cmd_crosscheck(args, graph, mapping):
    report = cross_check(graph, budget=args.budget)
    lines = [f"beta[{name}] = {value}" for name, value in report.values.items()]
    if report.skipped:
        lines.append("skipped (over budget): " + ", ".join(report.skipped))
    lines.append("all methods agree")
    return {"values": report.values, "skipped": list(report.skipped), "agree": True}, lines


_GRAPH_COMMANDS = {
    "beta": _cmd_beta,
    "chi": _cmd_chi,
    "enumerate": _cmd_enumerate,
    "matching": _cmd_matching,
    "homology": _cmd_homology,
    "crosscheck": _cmd_crosscheck,
}


def _family(args):
    name, n = resolve_family(args.family)
    row = FAMILIES[name]
    graph = row.build(n)
    count = row.beta(n)
    dim = len(graph) - 1
    wedge = f"{count} sphere(s) of dimension {dim}"
    lines = [
        f"family {name}:{n}: {len(graph)} vertices, {len(graph.edges)} edges",
        f"edges: {graph.edges}",
        f"closed-form sphere count: {count}  ({wedge})",
    ]
    fields = {
        "family": name,
        "n": n,
        "graph": _graph_json(graph),
        "beta": count,
        "sphere_dimension": dim,
    }
    return fields, lines


def _sweep(args):
    if any(src is not None for src in (args.family, args.edges, args.file)):
        raise GraphError("--sweep N checks its own graphs; drop --family / --edges / --file")
    if not 1 <= args.sweep <= 6:
        raise GraphError(f"--sweep N is exhaustive; N must be 1 to 6, got {args.sweep}")
    memo = {}
    rows = [cross_check(g, memo=memo, budget=args.budget)
            for g in isomorphism_classes(args.sweep)]
    skipped = [name for name in ROUTES if any(name in r.skipped for r in rows)]
    lines = ["skipped (over budget): " + ", ".join(skipped)] if skipped else []
    lines.append(f"{len(rows)} isomorphism classes checked, all methods agree")
    return {"sweep": args.sweep, "classes": len(rows), "skipped": skipped, "agree": True}, lines


def _compute(args):
    """The JSON fields after "command", and the text lines, of one run."""
    if args.command == "family":
        return _family(args)
    if args.budget is not None and args.budget < 0:
        raise GraphError(f"--budget must be at least 0, got {args.budget}")
    if args.command == "crosscheck" and args.sweep is not None:
        return _sweep(args)
    graph, mapping = _load_graph(args)
    lines = [f"graph: {len(graph)} vertices, {len(graph.edges)} edges"]
    if mapping:
        lines.append("label mapping: " + " ".join(f"{v}<-{x}" for v, x in mapping.items()))
    fields, more = _GRAPH_COMMANDS[args.command](args, graph, mapping)
    return {"graph": _graph_json(graph), **fields}, lines + more


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _emit(args, *_compute(args))
        return EXIT_OK
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CrossCheckError as exc:
        report = exc.report
        fields = {"graph": _graph_json(report.graph), "values": report.values, "agree": False}
        _emit(args, fields, [f"METHOD MISMATCH on {report.graph!r}: {report.values}"])
        return EXIT_MISMATCH
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def console_main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``| head``); Python flushes stdout again at
        # exit, so point it at devnull to keep that flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
