"""Iterated belief revision over priority graphs and preference models.

The package models an agent's belief state two ways: semantically, as a
preference order over possible worlds, and syntactically, as a priority
graph of weighted-by-importance formulas. It implements the translation
between the two, the classic revision operators (lexicographic, natural,
null), checkers for the standard iterated-revision postulates, syntactic
sufficient conditions on graph transformations, and executable
demonstrations of what graph transformations cannot express.

The names below are the public API. Everything else stays importable from
its submodule (``beliefrev.formula``, ``beliefrev.semantics``, ...) but may
change without notice.
"""

from .errors import BeliefRevError
from .formula import Formula, Signature, Valuation, entails, equivalent, eval_formula, parse
from .harness import DemoReport, demo_fact_cb, demo_fact_min, sweep_harmony
from .pgraph import PGraph, canonical_model, graph_from_preorder, graphs_equivalent, prefix
from .postulates import SEMANTIC_CHECKS, PostulateReport, check_cb, check_rec
from .semantics import PreferenceModel, RevisionOutcome, World, lex_revise, natural_revise

__version__ = "0.1.0"

__all__ = [
    "BeliefRevError", "DemoReport", "Formula", "PGraph", "PostulateReport",
    "PreferenceModel", "RevisionOutcome", "SEMANTIC_CHECKS", "Signature",
    "Valuation", "World", "canonical_model", "check_cb", "check_rec",
    "demo_fact_cb", "demo_fact_min", "entails", "equivalent", "eval_formula",
    "graph_from_preorder", "graphs_equivalent", "lex_revise", "natural_revise",
    "parse", "prefix", "sweep_harmony",
]
