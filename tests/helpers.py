"""Shared fixtures and independent brute-force oracles.

The oracles re-implement the semantic definitions with plain loops and no
shared code paths, so the library's vectorised implementations are checked
against something independently auditable.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from beliefrev import (
    Formula,
    PGraph,
    PreferenceModel,
    Signature,
    Valuation,
    World,
    parse,
)
from beliefrev.formula import And, Atom, Bot, Iff, Implies, Not, Or, Top
from beliefrev.semantics import worlds_for_signature
from reference_formula import eval_formula

SIG_PQ = Signature(("p", "q"))
SIG_PQR = Signature(("p", "q", "r"))

POOL_TEXTS = ("p", "q", "~p", "p & q", "p | q")


def f(text: str, sig: Signature = SIG_PQ) -> Formula:
    return parse(text, sig)


def pool(sig: Signature = SIG_PQ) -> tuple[Formula, ...]:
    return tuple(parse(t, sig) for t in POOL_TEXTS)


def canonical_pq() -> tuple[World, ...]:
    return worlds_for_signature(SIG_PQ)


def chain_fixture() -> PreferenceModel:
    """The four canonical {p, q} worlds totally ordered
    w_pq < w_p < w_q < w_0."""
    worlds = canonical_pq()
    return PreferenceModel.from_edges(
        worlds, [("w_pq", "w_p"), ("w_p", "w_q"), ("w_q", "w_0")]
    )


def all_equal_fixture() -> PreferenceModel:
    worlds = canonical_pq()
    ids = [w.id for w in worlds]
    return PreferenceModel.from_edges(
        worlds, [(a, b) for a in ids for b in ids if a != b]
    )


def chain_model(worlds: tuple[World, ...], order: list[str]) -> PreferenceModel:
    """Total order given as ids from most to least preferred."""
    return PreferenceModel.from_edges(worlds, list(zip(order, order[1:])))


def trio_worlds() -> tuple[World, World, World]:
    """Three distinct-valuation worlds over {p, q}."""
    return (
        World("w1", Valuation(SIG_PQ, (False, True))),
        World("w2", Valuation(SIG_PQ, (True, False))),
        World("w3", Valuation(SIG_PQ, (True, True))),
    )


def graph(labels: dict[str, str], edges=(), sig: Signature = SIG_PQ) -> PGraph:
    return PGraph({n: parse(t, sig) for n, t in labels.items()}, edges)


# --- independent oracles ------------------------------------------------------


def oracle_prec(g: PGraph) -> set[tuple[str, str]]:
    """Transitive closure of the stored edges by Warshall's algorithm."""
    prec = set(g.edges)
    for k in g.node_ids:
        prec |= {(a, d) for a, b in prec if b == k for c, d in prec if c == k}
    return prec


def oracle_closure(n: int, pairs) -> np.ndarray:
    """Transitive closure of index pairs over ``n`` nodes by Warshall's
    algorithm on boolean rows: after step k, i reaches j through nodes up to k."""
    mat = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        mat[a, b] = True
    for k in range(n):
        mat |= mat[:, k : k + 1] & mat[k]
    return mat


def oracle_induced_pairs(g: PGraph, worlds) -> set[tuple[str, str]]:
    """Induced order by direct per-pair evaluation of the defining clause."""
    prec = oracle_prec(g)
    nodes = [(n, g.label(n)) for n in g.node_ids]
    out = set()
    for w in worlds:
        for u in worlds:
            ok = True
            for n_f, formula in nodes:
                keeps = (not eval_formula(formula, u.valuation)) or eval_formula(
                    formula, w.valuation
                )
                escapes = any(
                    (n_g, n_f) in prec
                    and eval_formula(g_formula, w.valuation)
                    and not eval_formula(g_formula, u.valuation)
                    for n_g, g_formula in nodes
                )
                if not (keeps or escapes):
                    ok = False
                    break
            if ok:
                out.add((w.id, u.id))
    return out


def model_pairs(model: PreferenceModel) -> set[tuple[str, str]]:
    return set(model.pairs())


def oracle_lex_pairs(model: PreferenceModel, formula: Formula) -> set[tuple[str, str]]:
    sat = {w.id for w in model.worlds if eval_formula(formula, w.valuation)}
    out = set()
    for a in model.ids:
        for b in model.ids:
            if a in sat and b in sat and model.leq(a, b):
                out.add((a, b))
            elif a not in sat and b not in sat and model.leq(a, b):
                out.add((a, b))
            elif a in sat and b not in sat:
                out.add((a, b))
    return out


def oracle_min_ids(model: PreferenceModel, formula: Formula) -> set[str]:
    sat = [w.id for w in model.worlds if eval_formula(formula, w.valuation)]
    return {
        a
        for a in sat
        if not any(model.leq(b, a) and not model.leq(a, b) for b in sat)
    }


def oracle_natural_pairs(
    model: PreferenceModel, formula: Formula
) -> set[tuple[str, str]]:
    minimal = oracle_min_ids(model, formula)
    out = set()
    for a in model.ids:
        for b in model.ids:
            if a in minimal:
                out.add((a, b))
            elif model.leq(a, b) and a not in minimal and b not in minimal:
                out.add((a, b))
    return out


# --- random generation --------------------------------------------------------


def random_formula(rng: random.Random, sig: Signature, depth: int = 3) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.85:
            return Atom(rng.choice(sig.atoms))
        return Top() if roll < 0.925 else Bot()
    kind = rng.choice(("not", "and", "or", "implies", "iff"))
    if kind == "not":
        return Not(random_formula(rng, sig, depth - 1))
    left = random_formula(rng, sig, depth - 1)
    right = random_formula(rng, sig, depth - 1)
    ctor = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
    return ctor(left, right)


def oracle_atoms(formula: Formula) -> set[str]:
    """Atom names of a formula, by plain structural recursion."""
    if isinstance(formula, Atom):
        return {formula.name}
    if isinstance(formula, (Top, Bot)):
        return set()
    if isinstance(formula, Not):
        return oracle_atoms(formula.operand)
    return oracle_atoms(formula.left) | oracle_atoms(formula.right)


def random_pgraph(rng: random.Random, sig: Signature, max_nodes: int = 4) -> PGraph:
    """Valid random graph: labels are random formulas, edges only run
    forward along a random node permutation, so the closure stays acyclic."""
    n = rng.randint(0, max_nodes)
    labels = {f"n{i}": random_formula(rng, sig) for i in range(n)}
    order = list(labels)
    rng.shuffle(order)
    edges = set()
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            edges.add((order[i], order[j]))
    return PGraph(labels, edges)


def preorder_models_on_trio():
    """Every reflexive transitive relation over the three trio worlds."""
    from beliefrev.semantics import enumerate_preorders

    worlds = trio_worlds()
    return [PreferenceModel(worlds, mat) for mat in enumerate_preorders(3)]
