"""Seeded workload generators.

A workload turns a seed into a deterministic stream of operations. Each
operation holds the library call to time, the output that call must
produce (derived from :mod:`oracle`, from construction, or from the
recorded condition verdicts in ``golden_c5.json``), and the input
properties a later claim must cite. Operation ``i`` depends only on the
seed and on ``i``, so a traced replay sees exactly the inputs of the
untraced run.

Library functions are looked up on their modules at call time, never bound
here, so that the tracer's rebinding catches every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import beliefrev.cli
import beliefrev.formula as F
import beliefrev.harness as H
import beliefrev.pgraph as G
import beliefrev.postulates as P
import beliefrev.transforms as T
from beliefrev.formula import And, Atom, Iff, Implies, Not, Or, Signature

import oracle

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    expected: Any
    props: dict = field(default_factory=dict)
    # True for inputs in the documented range of a defect present when the
    # benchmark was written; a failure there still counts as failed.
    known_defect: bool = False


def op_rng(seed: int, index: int) -> random.Random:
    """Picks an operation's labels: atoms, valuations, orders."""
    return random.Random(seed * 1_000_003 + index)


def layout_rng(index: int) -> random.Random:
    """Picks an operation's shapes and sizes: formula trees, graph
    structure, world counts. It ignores the seed, so every seed gets the
    same mix of costs and only the labels differ."""
    return random.Random(f"layout-{index}")


# --- formulas -----------------------------------------------------------------

_BINARY = (And, Or, Implies, Iff)
_SYMBOL = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def random_formula(rng: random.Random, atoms, connectives: int, leaves: random.Random | None = None):
    """Random formula with the given number of connectives; ``leaves``, if
    given, picks the atoms and ``rng`` the tree."""
    leaves = leaves or rng
    if connectives == 0:
        return Atom(leaves.choice(atoms))
    if rng.random() < 0.15:
        return Not(random_formula(rng, atoms, connectives - 1, leaves))
    left = rng.randrange(connectives)
    ctor = rng.choice(_BINARY)
    return ctor(
        random_formula(rng, atoms, left, leaves),
        random_formula(rng, atoms, connectives - 1 - left, leaves),
    )


def text(formula) -> str:
    """Fully parenthesised text, so parsing it rebuilds exactly this tree."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, F.Top):
        return "T"
    if isinstance(formula, F.Bot):
        return "F"
    if isinstance(formula, Not):
        inner = text(formula.operand)
        return f"~({inner})" if type(formula.operand) in _SYMBOL else f"~{inner}"
    return f"({text(formula.left)} {_SYMBOL[type(formula)]} {text(formula.right)})"


def rewrite(formula, rng: random.Random, p: float = 0.3):
    """An equivalent formula: double negation, commutation, De Morgan and
    the definitions of -> and <->, applied at random nodes."""
    if isinstance(formula, Not):
        inner = rewrite(formula.operand, rng, p)
        if isinstance(inner, Not) and rng.random() < p:
            return inner.operand
        out = Not(inner)
    elif type(formula) in _SYMBOL:
        a, b = rewrite(formula.left, rng, p), rewrite(formula.right, rng, p)
        out = type(formula)(a, b)
        if rng.random() < p:
            if isinstance(formula, And):
                out = And(b, a) if rng.random() < 0.5 else Not(Or(Not(a), Not(b)))
            elif isinstance(formula, Or):
                out = Or(b, a) if rng.random() < 0.5 else Not(And(Not(a), Not(b)))
            elif isinstance(formula, Implies):
                out = Or(Not(a), b)
            else:
                out = Iff(b, a) if rng.random() < 0.5 else And(Implies(a, b), Implies(b, a))
    else:
        out = formula
    if rng.random() < p / 4:
        out = Not(Not(out))
    return out


def nest(core, rng: random.Random, atoms, depth: int, leaves: random.Random):
    """Wrap ``core`` in ``depth`` right-nested binary nodes, one parenthesis
    level each."""
    for _ in range(depth):
        ctor = And if rng.random() < 0.5 else Or
        core = ctor(Atom(leaves.choice(atoms)), core)
    return core


def minterm(atoms, index: int):
    """Conjunction of literals true exactly at canonical valuation ``index``."""
    bits = oracle.truth_columns(len(atoms), [index])[:, 0]
    literals = [Atom(a) if b else Not(Atom(a)) for a, b in zip(atoms, bits)]
    out = literals[0]
    for lit in literals[1:]:
        out = And(out, lit)
    return out


# --- formula-wide ---------------------------------------------------------------

# Parses are the majority, so the median latency is a parse; the sweeps
# carry the throughput and the tail. Across the sweeps of each ten-operation
# block the atom count, the nesting and the counter-valuation position all
# rotate, so any few dozen operations hold the whole mix and cost the same.
FORMULA_CYCLE = (
    "parse", "equivalent-true", "parse", "entails-true", "parse",
    "equivalent-false", "parse", "entails-false", "parse", "parse",
)
FORMULA_ATOMS = (14, 15, 16)
# Where the single counter-valuation of a false verdict sits, as a share of
# the 2**n sweep: early exits stay in the mix next to nearly full sweeps.
FALSE_POSITIONS = (0.002, 0.05, 0.3, 0.6, 0.9)
NEST_DEPTH = 100


def formula_op(seed: int, index: int, atoms_override: int | None = None) -> Op:
    rng = op_rng(seed, index)
    layout = layout_rng(index)
    kind = FORMULA_CYCLE[index % len(FORMULA_CYCLE)]
    block = index // len(FORMULA_CYCLE)
    turn = block + index % len(FORMULA_CYCLE) // 2
    n = atoms_override or FORMULA_ATOMS[turn % len(FORMULA_ATOMS)]
    atoms = tuple(f"b{i}" for i in range(n))
    sig = Signature(atoms)
    core = random_formula(layout, atoms, layout.randint(12, 14), rng)
    deep = kind == "parse" or turn % 2 == 0
    phi = nest(core, layout, atoms, NEST_DEPTH, rng) if deep else core
    props = {"atoms": n, "deep": deep}
    if kind == "parse":
        source = text(phi)
        return Op(kind, lambda: F.parse(source, sig), phi, props)
    other = rewrite(phi, layout)
    if kind == "equivalent-true":
        return Op(kind, lambda: F.equivalent(phi, other, sig), True, props | {"verdict": True})
    if kind == "entails-true":
        extra = random_formula(layout, atoms, 3, rng)
        if layout.random() < 0.5:
            premise, conclusion = And(phi, extra), other
        else:
            premise, conclusion = phi, Or(other, extra)
        return Op(kind, lambda: F.entails(premise, conclusion, sig), True, props | {"verdict": True})
    share = FALSE_POSITIONS[(2 * block + (kind == "entails-false")) % len(FALSE_POSITIONS)]
    position = min(int(share * 2**n) + rng.randrange(max(1, 2**n // 256)), 2**n - 1)
    m = minterm(atoms, position)
    props |= {"verdict": False, "counter_valuation": position}
    if kind == "equivalent-false":
        flipped = Or(And(other, Not(m)), And(Not(other), m))
        return Op(kind, lambda: F.equivalent(phi, flipped, sig), False, props)
    premise, conclusion = Or(phi, m), And(other, Not(m))
    return Op(kind, lambda: F.entails(premise, conclusion, sig), False, props)


class FormulaWide:
    """parse / entails / equivalent on distinct formulas over 14-16 atoms."""

    name = "formula-wide"
    cycle = len(FORMULA_CYCLE)
    nominal_ops_per_s = 8.5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def op(self, index: int) -> Op:
        return formula_op(self.seed, index)

    def warmup(self):
        for k in range(len(FORMULA_CYCLE)):
            yield formula_op(self.seed, k - len(FORMULA_CYCLE), atoms_override=6)

    def close(self) -> None:
        pass


# --- sweep-small ------------------------------------------------------------------

SIG_PQ_ATOMS = ("p", "q")
CONDITIONS = ("dp1", "dp2", "dp3", "dp4", "rec", "ind")
COND_FUNCTIONS = tuple(f"cond_{c}" for c in CONDITIONS)
CHECK_FUNCTIONS = tuple(f"check_{c}" for c in CONDITIONS)
TRANSFORMS = ("prefix", "null")
# Per cycle: criterion-5 instances, relevance pairs, one harmony sweep.
SWEEP_CYCLE = ("c5",) * 60 + ("relevance",) * 4 + ("harmony",)
HARMONY_BOUND = 3
HARMONY_INSTANCES = 24  # graphs of up to 3 nodes over one label: 1 + 1 + 3 + 19


def pool_pq():
    p, q = Atom("p"), Atom("q")
    return (p, q, Not(p), And(p, q), Or(p, q))


def strict_orders(k: int) -> list[list[tuple[int, int]]]:
    cells = [(i, j) for i in range(k) for j in range(k) if i != j]
    out = []
    for picks in itertools.product((False, True), repeat=len(cells)):
        rel = np.zeros((k, k), dtype=bool)
        for (i, j), on in zip(cells, picks):
            rel[i, j] = on
        closed = oracle.closure(rel, reflexive=False)
        if not closed.diagonal().any() and (closed == rel).all():
            out.append([c for c, on in zip(cells, picks) if on])
    return out


def sweep_graphs(max_nodes: int = 2) -> list[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """Every graph over the pool with up to ``max_nodes`` nodes, as (label
    indices, strict edges), in a fixed order."""
    out = []
    for k in range(max_nodes + 1):
        for combo in itertools.combinations_with_replacement(range(5), k):
            for order in strict_orders(k):
                out.append((combo, order))
    return out


def sweep_pgraphs(pool) -> list:
    return [
        G.PGraph(
            {f"n{i}": pool[label] for i, label in enumerate(labels)},
            {(f"n{a}", f"n{b}") for a, b in edges},
        )
        for labels, edges in sweep_graphs()
    ]


def sweep_instances():
    """The criterion-5 instances: graph x formula x transformation."""
    return [
        (g, f, t)
        for g in range(len(sweep_graphs()))
        for f in range(5)
        for t in TRANSFORMS
    ]


def load_golden() -> list[tuple[bool, ...]]:
    data = json.loads((BENCH_DIR / "golden_c5.json").read_text())
    return [tuple(c == "1" for c in bits) for bits in data["cond"]]


class SweepSmall:
    """The paper's exhaustive checks over {p, q} with the 5-formula pool."""

    name = "sweep-small"
    cycle = len(SWEEP_CYCLE)
    nominal_ops_per_s = 600.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sig = Signature(SIG_PQ_ATOMS)
        self.pool = pool_pq()
        columns = oracle.truth_columns(2, range(4))
        self.sat = [oracle.truth(f, columns, SIG_PQ_ATOMS) for f in self.pool]
        self.shapes = sweep_graphs()
        self.graphs = sweep_pgraphs(self.pool)
        self.base = [self._induced(labels, edges) for labels, edges in self.shapes]
        # As in the sweep itself, each graph's canonical model is built once
        # and shared by its ten instances.
        self.models = [G.canonical_model(g, self.sig) for g in self.graphs]
        self.instances = sweep_instances()
        golden = load_golden()
        if len(golden) != len(self.instances):
            raise ValueError("golden_c5.json does not match the instance list")
        self.expected = []
        for (g, f, t), cond in zip(self.instances, golden):
            revised = self._revised(g, f, t)
            found = oracle.witnesses([str(w) for w in range(4)], self.base[g], revised, self.sat[f])
            self.expected.append((cond, tuple(not found[c] for c in CONDITIONS)))
        classes: dict[bytes, list[int]] = {}
        for i, rel in enumerate(self.base):
            classes.setdefault(rel.tobytes(), []).append(i)
        self.pairs = [
            pair for members in classes.values() for pair in itertools.combinations(members, 2)
        ]

    def _induced(self, labels, edges, top=None) -> np.ndarray:
        labels = list(labels) + ([top] if top is not None else [])
        k = len(labels)
        rel = np.zeros((k, k), dtype=bool)
        for a, b in edges:
            rel[a, b] = True
        if top is not None:
            rel[k - 1, : k - 1] = True
        sat = np.array([self.sat[label] for label in labels], dtype=bool).reshape(k, 4)
        return oracle.induced(sat, oracle.closure(rel, reflexive=False))

    def _revised(self, g: int, f: int, t: str) -> np.ndarray:
        if t == "null":
            return self.base[g]
        labels, edges = self.shapes[g]
        return self._induced(labels, edges, top=f)

    def op(self, index: int) -> Op:
        rng = op_rng(self.seed, index)
        kind = SWEEP_CYCLE[index % len(SWEEP_CYCLE)]
        if kind == "c5":
            i = rng.randrange(len(self.instances))
            g, f, t = self.instances[i]
            cond, check = self.expected[i]
            return Op(kind, self._c5(self.graphs[g], self.models[g], self.pool[f], t), self.expected[i],
                      {"transformation": t, "accepted": sum(cond), "holding": sum(check)})
        if kind == "relevance":
            a, b = rng.choice(self.pairs)
            f = rng.randrange(5)
            t = rng.choice(TRANSFORMS)
            return Op(kind, self._relevance(self.graphs[a], self.graphs[b], self.pool[f], t),
                      ("consistent-on-sample", 1, True), {"transformation": t})
        f = rng.randrange(5)
        return Op(kind, self._harmony(self.pool[f]), (True, HARMONY_INSTANCES, []),
                  {"formula": text(self.pool[f])})

    def _c5(self, graph, base, by, t: str):
        sig = self.sig

        def run():
            transformed = (T.PREFIX if t == "prefix" else T.NULL)(graph, by)
            revised = G.canonical_model(transformed, sig)
            cond = tuple(getattr(P, name)(graph, by, transformed, sig).holds for name in COND_FUNCTIONS)
            check = tuple(getattr(P, name)(base, by, revised).holds for name in CHECK_FUNCTIONS)
            return cond, check

        return run

    def _relevance(self, a, b, by, t: str):
        """The transformation maps the equivalent graphs a and b to equivalent
        graphs, and revising their model through either graph agrees."""
        sig = self.sig

        def run():
            transformation = T.PREFIX if t == "prefix" else T.NULL
            verdict = T.relevance_check(transformation, [(a, b)], [by], sig, node_bound=0)
            model = G.canonical_model(a, sig)
            chosen = T.apply_induced(transformation, model, by).model
            via_b = T.apply_induced(transformation, model, by, inducing_graph=b).model
            return verdict.status, verdict.pairs_checked, chosen == via_b

        return run

    def _harmony(self, by):
        def run():
            report = H.sweep_harmony(HARMONY_BOUND, self.sig, (by,))
            return report.verdict, report.data["instances"], report.data["mismatches"]

        return run

    def warmup(self):
        for kind in sorted(set(SWEEP_CYCLE)):
            yield self.op(-len(SWEEP_CYCLE) + SWEEP_CYCLE.index(kind))

    def close(self) -> None:
        pass


# --- cli-large --------------------------------------------------------------------

ATOMS8 = tuple(f"a{i}" for i in range(8))
# One cycle of requests. Revision operators left open alternate by cycle;
# the two checks alternate the before shape and rotate the after operator.
CLI_CYCLE = (
    ("induce", "chain", None),
    ("check", None, None),
    ("revise", "canonical", "lex"),
    ("induce", "random", None),
    ("revise", "multiset", None),
    ("check", None, None),
    ("revise", "canonical", "natural"),
    ("revise", "chain", None),
)
CHECK_AFTER = ("lex", "natural", "null")
# Path counts through at least 256 middle worlds wrap in the library's uint8
# closure; a relation needs 258 worlds for that.
WRAP_WORLDS = 258


def canonical_ids(atoms, indices) -> list[str]:
    bits = oracle.truth_columns(len(atoms), indices)
    return ["w_" + ("".join(a for a, b in zip(atoms, col) if b) or "0") for col in bits.T]


@dataclass
class Model:
    ids: list[str]
    bits: np.ndarray  # worlds x atoms
    leq: np.ndarray

    def in_file_order(self, atoms) -> tuple[str, "Model"]:
        """Render as a model file and return the model in the world order
        the file lists, which is the order a parser keeps."""
        order = [w for group in oracle.ordered_classes(self.ids, self.leq) for w in group]
        source = oracle.render_model(atoms, self.ids, self.bits, self.leq)
        return source, Model([self.ids[w] for w in order], self.bits[order], self.leq[np.ix_(order, order)])


def random_graph(rng: random.Random, atoms, nodes: int, leaves: random.Random):
    labels = [random_formula(rng, atoms, rng.randint(1, 3), leaves) for _ in range(nodes)]
    order = list(range(nodes))
    rng.shuffle(order)
    edges = [(order[i], order[j]) for i, j in itertools.combinations(range(nodes), 2) if rng.random() < 0.4]
    return labels, edges


def chain_graph(rng: random.Random, atoms):
    """One literal per atom, totally ordered: the induced order is total."""
    labels = [Atom(a) if rng.random() < 0.5 else Not(Atom(a)) for a in atoms]
    rng.shuffle(labels)
    order = list(range(len(labels)))
    rng.shuffle(order)
    return labels, list(zip(order, order[1:]))


def graph_source(atoms, labels, edges) -> str:
    lines = [f"atoms: {' '.join(atoms)}"]
    lines += [f"node n{i}: {text(f)}" for i, f in enumerate(labels)]
    lines += [f"n{a} < n{b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def graph_order(atoms, labels, edges, indices) -> np.ndarray:
    columns = oracle.truth_columns(len(atoms), indices)
    sat = np.array([oracle.truth(f, columns, atoms) for f in labels], dtype=bool)
    rel = np.zeros((len(labels), len(labels)), dtype=bool)
    for a, b in edges:
        rel[a, b] = True
    return oracle.induced(sat.reshape(len(labels), len(indices)), oracle.closure(rel, reflexive=False))


def patterned_chain(rng: random.Random, layout: random.Random, atoms, by, worlds: int) -> Model:
    """A total order on ``worlds`` worlds in which the layout fixes which
    ranks satisfy ``by``; the seed picks the valuations that realise that
    pattern and which world sits at which rank. A lex or natural revision
    of a total order depends only on that pattern, so the library's
    ``uint8`` wrap fails the same operations under every seed."""
    table = oracle.truth(by, oracle.truth_columns(len(atoms), range(2 ** len(atoms))), atoms)
    choices = {True: np.flatnonzero(table).tolist(), False: np.flatnonzero(~table).tolist()}
    share = float(table.mean())
    pattern = [layout.random() < share for _ in range(worlds)]
    pattern = [want if choices[want] else not want for want in pattern]
    rank = list(range(worlds))
    rng.shuffle(rank)
    indices = [rng.choice(choices[pattern[r]]) for r in rank]
    bits = oracle.truth_columns(len(atoms), indices).T
    rank = np.array(rank)
    return Model([f"x{i}" for i in range(worlds)], bits, rank[:, None] <= rank[None, :])


def random_model(rng: random.Random, layout: random.Random, atoms, shape: str, worlds: int) -> Model:
    if shape == "canonical":
        indices = sorted(rng.sample(range(2 ** len(atoms)), worlds))
        ids = canonical_ids(atoms, indices)
    else:
        indices = [rng.randrange(2 ** len(atoms)) for _ in range(worlds)]
        ids = [f"x{i}" for i in range(worlds)]
    bits = oracle.truth_columns(len(atoms), indices).T
    if shape == "chain":
        rank = list(range(worlds))
        rng.shuffle(rank)
        rank = np.array(rank)
        leq = rank[:, None] <= rank[None, :]
    else:
        labels, edges = random_graph(layout, atoms, layout.randint(3, 5), rng)
        leq = graph_order(atoms, labels, edges, indices)
    return Model(ids, bits, leq)


def cli_call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = beliefrev.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class CliLarge:
    """In-process ``beliefrev`` requests on generated 8-atom files."""

    name = "cli-large"
    cycle = len(CLI_CYCLE)
    nominal_ops_per_s = 3.2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, source: str) -> str:
        path = self.workdir / name
        path.write_text(source, encoding="utf-8")
        return str(path)

    def op(self, index: int, atoms=ATOMS8, small: bool = False) -> Op:
        rng = op_rng(self.seed, index)
        layout = layout_rng(index)
        slot = index % len(CLI_CYCLE)
        action, shape, operator = CLI_CYCLE[slot]
        cycle = index // len(CLI_CYCLE)
        if action == "induce":
            if shape == "chain":
                labels, edges = chain_graph(rng, atoms)
            else:
                labels, edges = random_graph(layout, atoms, layout.randint(3, 5), rng)
            indices = list(range(2 ** len(atoms)))
            ids = canonical_ids(atoms, indices)
            leq = graph_order(atoms, labels, edges, indices)
            expected = oracle.render_model(atoms, ids, oracle.truth_columns(len(atoms), indices).T, leq)
            path = self._write("graph.pg", graph_source(atoms, labels, edges))
            return Op(f"induce-{shape}", lambda: cli_call(["induce", path]), (0, expected),
                      {"worlds": len(indices), "tie_classes": len(oracle.ordered_classes(ids, leq))})
        patterned = action == "revise" and shape == "chain"
        by = random_formula(layout, atoms, layout.randint(1, 3), layout if patterned else rng)
        if action == "revise":
            operator = operator or ("lex", "natural")[cycle % 2]
            if small:
                worlds = layout.randint(4, 8)
            elif shape == "canonical":
                worlds = layout.randint(176, 208)
            else:
                worlds = layout.randint(WRAP_WORLDS, 300)
            if patterned:
                generated = patterned_chain(rng, layout, atoms, by, worlds)
            else:
                generated = random_model(rng, layout, atoms, shape, worlds)
            source, model = generated.in_file_order(atoms)
            sat = oracle.truth(by, model.bits.T, atoms)
            revised = (oracle.lex if operator == "lex" else oracle.natural)(model.leq, sat)
            expected = oracle.render_model(atoms, model.ids, model.bits, revised)
            argv = ["revise", self._write("revise.model", source), "--op", operator, "--by", text(by)]
            return Op(
                f"revise-{shape}",
                lambda: cli_call(argv),
                (0, expected),
                {"worlds": worlds, "operator": operator,
                 "tie_classes": len(oracle.ordered_classes(model.ids, model.leq))},
                known_defect=worlds >= WRAP_WORLDS,
            )
        check = 2 * cycle + (slot > CLI_CYCLE.index(("check", None, None)))
        shape = ("canonical", "chain")[check % 2]
        after_op = CHECK_AFTER[(check // 2) % len(CHECK_AFTER)]
        worlds = layout.randint(4, 8) if small else layout.randint(64, 128)
        source, model = random_model(rng, layout, atoms, shape, worlds).in_file_order(atoms)
        sat = oracle.truth(by, model.bits.T, atoms)
        after = {"lex": oracle.lex, "natural": oracle.natural, "null": lambda m, s: m}[after_op](model.leq, sat)
        before_path = self._write("before.model", source)
        after_path = self._write("after.model", oracle.render_model(atoms, model.ids, model.bits, after))
        expected = oracle.check_report(model.ids, model.leq, after, sat)
        argv = ["check", "--before", before_path, "--after", after_path, "--by", text(by)]
        return Op("check", lambda: cli_call(argv), expected,
                  {"worlds": worlds, "shape": shape, "after": after_op, "exit": expected[0],
                   "tie_classes": len(oracle.ordered_classes(model.ids, model.leq))})

    def warmup(self):
        for k in range(len(CLI_CYCLE)):
            yield self.op(k - len(CLI_CYCLE), atoms=ATOMS8[:3], small=True)

    def close(self) -> None:
        for path in self.workdir.glob("*"):
            path.unlink()
        self.workdir.rmdir()


# Each workload class has a ``name``, a ``cycle`` (the length of its
# repeating operation mix) and a ``nominal_ops_per_s``: about the rate, with
# generation and checks included, at which it ran on the 2-CPU machine the
# benchmark was written on. A run's length in operations comes from it.
WORKLOADS = {w.name: w for w in (CliLarge, SweepSmall, FormulaWide)}
