"""Command line front end.

Subcommands: ``induce``, ``revise``, ``check``, ``equiv``, ``demo``.
Exit codes: 0 on success or all-pass, 1 for a postulate violation, demo
failure, or inequivalence, 2 for input errors, exceeded bounds and
running out of memory. ``--json`` switches every subcommand to
machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import BeliefRevError
from .files import (
    dump_graph,
    dump_model,
    file_kind,
    graph_to_dot,
    model_to_dot,
    parse_graph_file,
    parse_model_file,
)
from .formula import Signature, parse, to_text
from .harness import demo_fact_cb, demo_fact_min, sweep_harmony
from .pgraph import PGraph, canonical_model, graphs_equivalent
from .postulates import SEMANTIC_CHECKS, postulates
from .semantics import PreferenceModel, lex_revise, natural_revise, null_change
from .transforms import null_transform, prefix

DEFAULT_POOL = ("p", "q", "~p", "p & q", "p | q")

# ``revise``'s operators by file kind, and why one has no form on the other:
# lexicographic revision's graph form is prefixing, natural revision has none
# (``demo fact-cb``). Values are bare functions, which a tracer can rebind.
ON_MODELS = {"lex": lex_revise, "natural": natural_revise, "null": null_change}
ON_GRAPHS = {"prefix": prefix, "null": null_transform}
NO_FORM = {
    "lex": "lexicographic revision acts on models; its graph form is prefixing, use --op prefix",
    "natural": "natural revision cannot be expressed as a graph "
    "transformation; apply it to a model file instead",
    "prefix": "prefixing acts on graphs; this is a model file",
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise BeliefRevError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _model_json(model: PreferenceModel) -> dict:
    return {
        "atoms": list(model.signature),
        "worlds": [
            {"id": w.id, "valuation": w.valuation.as_dict()} for w in model.worlds
        ],
        "leq": sorted(model.pairs()),
        "order": model.describe_order(),
    }


def _graph_json(sig: Signature, graph: PGraph) -> dict:
    return {
        "atoms": list(sig),
        "nodes": [
            {"id": n, "formula": to_text(graph.label(n))} for n in graph.node_ids
        ],
        "edges": sorted(graph.edges),
    }


def _emit_model(model: PreferenceModel, args) -> None:
    if args.json:
        print(json.dumps(_model_json(model), indent=2))
    elif args.dot:
        print(model_to_dot(model), end="")
    else:
        print(dump_model(model), end="")


def _emit_graph(sig: Signature, graph: PGraph, args) -> None:
    if args.json:
        print(json.dumps(_graph_json(sig, graph), indent=2))
    elif args.dot:
        print(graph_to_dot(graph), end="")
    else:
        print(dump_graph(sig, graph), end="")


def _cmd_induce(args) -> int:
    sig, graph = parse_graph_file(_read(args.graph))
    _emit_model(canonical_model(graph, sig), args)
    return 0


def _cmd_revise(args) -> int:
    text = _read(args.input)
    table = ON_GRAPHS if file_kind(text) == "graph" else ON_MODELS
    if args.op not in table:
        raise BeliefRevError(NO_FORM[args.op])
    if table is ON_GRAPHS:
        sig, graph = parse_graph_file(text)
        _emit_graph(sig, table[args.op](graph, parse(args.by, sig)), args)
    else:
        sig, model = parse_model_file(text)
        _emit_model(table[args.op](model, parse(args.by, sig)).model, args)
    return 0


def _cmd_check(args) -> int:
    sig_before, before = parse_model_file(_read(args.before))
    sig_after, after = parse_model_file(_read(args.after))
    if sig_before != sig_after:
        raise BeliefRevError("before and after files declare different atoms")
    by = parse(args.by, sig_before)
    if args.postulates == "all":
        names = list(SEMANTIC_CHECKS)
    else:
        names = [n.strip().lower() for n in args.postulates.split(",") if n.strip()]
        unknown = [n for n in names if n not in SEMANTIC_CHECKS]
        if unknown:
            raise BeliefRevError(f"unknown postulate {unknown[0]!r}")
        if not names:
            raise BeliefRevError("no postulates selected")
    reports = postulates(before, by, after, names)
    if args.json:
        print(json.dumps([vars(r) for r in reports], indent=2))
    else:
        for r in reports:
            if r.holds:
                print(f"{r.postulate.upper()}: pass")
            else:
                shown = ", ".join("(" + ", ".join(w) + ")" for w in r.witnesses[:5])
                more = "" if len(r.witnesses) <= 5 else f" and {len(r.witnesses) - 5} more"
                print(f"{r.postulate.upper()}: FAIL  witnesses: {shown}{more}")
    return 0 if all(r.holds for r in reports) else 1


def _cmd_equiv(args) -> int:
    sig_a, graph_a = parse_graph_file(_read(args.graph_a))
    sig_b, graph_b = parse_graph_file(_read(args.graph_b))
    if sig_a != sig_b:
        raise BeliefRevError("the two graph files declare different atoms")
    same = graphs_equivalent(graph_a, graph_b, sig_a)
    if args.json:
        print(json.dumps({"equivalent": same}))
    else:
        print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def _cmd_demo(args) -> int:
    if args.which == "fact-cb":
        report = demo_fact_cb()
    elif args.which == "fact-min":
        if not args.graph or not args.by:
            raise BeliefRevError("demo fact-min needs --graph and --by")
        sig, graph = parse_graph_file(_read(args.graph))
        report = demo_fact_min(graph, parse(args.by, sig), sig)
    else:
        try:
            sig = Signature(args.atoms.replace(",", " ").split())
        except BeliefRevError as exc:
            raise BeliefRevError(f"--atoms: {exc}") from exc
        pool = tuple(parse(t.strip(), sig) for t in args.pool.split(","))
        report = sweep_harmony(args.bound, sig, pool)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.verdict else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefrev",
        description="Iterated belief revision over priority graphs and preference models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    induce = sub.add_parser("induce", help="canonical model induced by a graph file")
    induce.add_argument("graph", help="graph file")
    _output_flags(induce)
    induce.set_defaults(fn=_cmd_induce)

    revise = sub.add_parser("revise", help="revise a model or transform a graph")
    revise.add_argument("input", help="model or graph file")
    revise.add_argument("--op", required=True, choices=list({**ON_MODELS, **ON_GRAPHS}))
    revise.add_argument("--by", required=True, help="revision formula")
    _output_flags(revise)
    revise.set_defaults(fn=_cmd_revise)

    check = sub.add_parser("check", help="check postulates on a before/after model pair")
    check.add_argument("--before", required=True, help="model file before revision")
    check.add_argument("--after", required=True, help="model file after revision")
    check.add_argument("--by", required=True, help="revision formula")
    check.add_argument(
        "--postulates",
        default="all",
        help=f"comma separated subset of {','.join(SEMANTIC_CHECKS)} (default: all)",
    )
    check.add_argument("--json", action="store_true")
    check.set_defaults(fn=_cmd_check)

    equiv = sub.add_parser("equiv", help="do two graph files induce the same model?")
    equiv.add_argument("graph_a")
    equiv.add_argument("graph_b")
    equiv.add_argument("--json", action="store_true")
    equiv.set_defaults(fn=_cmd_equiv)

    demo = sub.add_parser("demo", help="run a built-in demonstration")
    demo.add_argument("which", choices=("fact-cb", "fact-min", "harmony"))
    demo.add_argument("--graph", help="graph file (fact-min)")
    demo.add_argument("--by", help="formula (fact-min)")
    demo.add_argument("--bound", type=int, default=2, help="node bound (harmony)")
    demo.add_argument("--atoms", default="p q", help="atoms (harmony)")
    demo.add_argument(
        "--pool",
        default=", ".join(DEFAULT_POOL),
        help="comma separated label pool (harmony)",
    )
    demo.add_argument("--json", action="store_true")
    demo.set_defaults(fn=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, BeliefRevError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large for this machine", file=sys.stderr)
        return 2


def _output_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="machine readable output")
    group.add_argument("--dot", action="store_true", help="Graphviz output")


if __name__ == "__main__":
    raise SystemExit(main())
