"""Iterated belief revision over priority graphs and preference models.

The package models an agent's belief state two ways: semantically, as a
preference order over possible worlds, and syntactically, as a priority
graph of weighted-by-importance formulas. It implements the translation
between the two, the classic revision operators (lexicographic, natural,
null), checkers for the standard iterated-revision postulates, syntactic
sufficient conditions on graph transformations, and executable
demonstrations of what graph transformations cannot express.
"""

from .errors import (
    BeliefRevError,
    FileFormatError,
    FormulaSyntaxError,
    GraphCycleError,
    GraphSelfLoopError,
    ModelInvariantError,
    NotRepresentableError,
    ResourceBoundError,
    SignatureError,
    SignatureTooLargeError,
    UnknownAtomError,
    WorldSetMismatchError,
)
from .formula import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Top,
    Valuation,
    entails,
    equivalent,
    eval_formula,
    parse,
    to_text,
)
from .harness import DemoReport, demo_fact_cb, demo_fact_min, sweep_harmony
from .pgraph import (
    PGraph,
    canonical_model,
    enumerate_pgraphs,
    graph_from_preorder,
    graphs_equivalent,
    induce_model,
    induced_order,
    strict_orders,
)
from .postulates import (
    CONDITION_CHECKS,
    SEMANTIC_CHECKS,
    ConditionReport,
    PostulateReport,
    check_cb,
    check_dp1,
    check_dp2,
    check_dp3,
    check_dp4,
    check_faith,
    check_ind,
    check_rec,
    cond_dp1,
    cond_dp2,
    cond_dp3,
    cond_dp4,
    cond_ind,
    cond_rec,
)
from .semantics import (
    PreferenceModel,
    RevisionOutcome,
    World,
    enumerate_preorders,
    lex_revise,
    min_worlds,
    natural_revise,
    null_change,
    worlds_for_signature,
)
from .transforms import (
    NULL,
    PREFIX,
    GraphTransformation,
    RelevanceVerdict,
    RelevanceWitness,
    apply_induced,
    null_transform,
    prefix,
    relevance_check,
)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "BOT", "Bot", "BeliefRevError", "CONDITION_CHECKS",
    "ConditionReport", "DemoReport", "FileFormatError", "Formula",
    "FormulaSyntaxError", "GraphCycleError", "GraphSelfLoopError",
    "GraphTransformation", "Iff", "Implies", "ModelInvariantError", "NULL",
    "Not", "NotRepresentableError", "Or", "PGraph", "PREFIX",
    "PostulateReport", "PreferenceModel", "RelevanceVerdict",
    "RelevanceWitness", "ResourceBoundError", "RevisionOutcome",
    "SEMANTIC_CHECKS", "Signature", "SignatureError",
    "SignatureTooLargeError", "TOP", "Top", "UnknownAtomError", "Valuation",
    "World", "WorldSetMismatchError", "apply_induced", "canonical_model",
    "check_cb", "check_dp1", "check_dp2", "check_dp3", "check_dp4",
    "check_faith", "check_ind", "check_rec", "cond_dp1", "cond_dp2",
    "cond_dp3", "cond_dp4", "cond_ind", "cond_rec", "demo_fact_cb",
    "demo_fact_min", "entails", "enumerate_pgraphs", "enumerate_preorders",
    "equivalent", "eval_formula", "graph_from_preorder", "graphs_equivalent",
    "induce_model", "induced_order", "lex_revise", "min_worlds",
    "natural_revise", "null_change", "null_transform", "parse", "prefix",
    "relevance_check", "strict_orders", "sweep_harmony", "to_text",
    "worlds_for_signature",
]
