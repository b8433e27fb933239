"""Exact reference semantics the benchmark checks every output against.

Nothing here calls into beliefrev's algorithms; only its formula node
classes are used, as plain data. Relations are closed with a boolean
Warshall sweep, which never counts paths and so cannot wrap; formulas are
evaluated as numpy truth columns; and the CLI's text formats are rendered
again from their documented rules, so an output is checked byte for byte.
"""

from __future__ import annotations

import numpy as np
from beliefrev.formula import And, Atom, Bot, Iff, Implies, Not, Or, Top

POSTULATES = ("dp1", "dp2", "dp3", "dp4", "rec", "ind", "faith", "cb")


# --- formulas -----------------------------------------------------------------


def truth_columns(n_atoms: int, indices) -> np.ndarray:
    """Row i: truth of atom i at each valuation index, in the canonical
    valuation order (first atom most significant, true before false)."""
    idx = np.asarray(indices, dtype=np.int64)
    shifts = np.arange(n_atoms - 1, -1, -1, dtype=np.int64)
    return ((idx[None, :] >> shifts[:, None]) & 1) == 0


def truth(formula, columns: np.ndarray, atoms: tuple[str, ...]) -> np.ndarray:
    """Truth vector of ``formula`` over the valuations whose atom columns are
    given; evaluated bottom-up without recursion."""
    position = {a: i for i, a in enumerate(atoms)}
    width = columns.shape[1]
    values: dict[int, np.ndarray] = {}
    stack = [(formula, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in values:
            continue
        if isinstance(node, Atom):
            values[id(node)] = columns[position[node.name]]
        elif isinstance(node, Top):
            values[id(node)] = np.ones(width, dtype=bool)
        elif isinstance(node, Bot):
            values[id(node)] = np.zeros(width, dtype=bool)
        elif not expanded:
            stack.append((node, True))
            children = (node.operand,) if isinstance(node, Not) else (node.left, node.right)
            stack.extend((c, False) for c in children)
        elif isinstance(node, Not):
            values[id(node)] = ~values[id(node.operand)]
        else:
            a, b = values[id(node.left)], values[id(node.right)]
            if isinstance(node, And):
                values[id(node)] = a & b
            elif isinstance(node, Or):
                values[id(node)] = a | b
            elif isinstance(node, Implies):
                values[id(node)] = ~a | b
            elif isinstance(node, Iff):
                values[id(node)] = a == b
            else:
                raise TypeError(f"not a formula: {node!r}")
    return values[id(formula)]


def describe_valuation(atoms, bits) -> str:
    return " & ".join(a if b else f"~{a}" for a, b in zip(atoms, bits))


# --- relations ----------------------------------------------------------------


def closure(matrix: np.ndarray, reflexive: bool = True) -> np.ndarray:
    """(Reflexive) transitive closure by Warshall's algorithm on booleans."""
    out = np.array(matrix, dtype=bool)
    if reflexive:
        out |= np.eye(len(out), dtype=bool)
    for k in range(len(out)):
        out |= out[:, k, None] & out[None, k, :]
    return out


def induced(sat: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """Order induced by nodes with satisfaction rows ``sat`` under the strict
    node order ``prec`` (already transitively closed): w <= w' iff every
    node w' satisfies is satisfied by w or is outranked by a node that
    separates w from w'."""
    m = sat.shape[1]
    out = np.ones((m, m), dtype=bool)
    for f in range(sat.shape[0]):
        keep = sat[f][:, None] | ~sat[f][None, :]
        for g in np.flatnonzero(prec[:, f]):
            keep = keep | (sat[g][:, None] & ~sat[g][None, :])
        out &= keep
    return out


def lex(leq: np.ndarray, sat: np.ndarray) -> np.ndarray:
    same = sat[:, None] == sat[None, :]
    return (leq & same) | (sat[:, None] & ~sat[None, :])


def minimal(leq: np.ndarray, sat: np.ndarray) -> np.ndarray:
    """Satisfying worlds with no satisfying world strictly below them."""
    strict = leq & ~leq.T
    return sat & ~(strict & sat[:, None]).any(axis=0)


def natural(leq: np.ndarray, sat: np.ndarray) -> np.ndarray:
    low = minimal(leq, sat)
    return low[:, None] | (leq & ~low[:, None] & ~low[None, :])


# --- rendering ----------------------------------------------------------------


def ordered_classes(ids: list[str], leq: np.ndarray) -> list[list[int]]:
    """Tie classes, most preferred first: members in world order, classes in
    Kahn layers of the strict class order, each layer sorted by first id."""
    tied = leq & leq.T
    label = np.full(len(ids), -1)
    classes: list[list[int]] = []
    for i in range(len(ids)):
        if label[i] < 0:
            members = np.flatnonzero(tied[i])
            label[members] = len(classes)
            classes.append([int(x) for x in members])
    reps = [c[0] for c in classes]
    rel = leq[np.ix_(reps, reps)]
    strict = rel & ~rel.T
    remaining = np.ones(len(classes), dtype=bool)
    order: list[int] = []
    while remaining.any():
        blocked = (strict & remaining[:, None]).any(axis=0)
        ready = sorted(np.flatnonzero(remaining & ~blocked), key=lambda c: ids[reps[c]])
        if not ready:
            raise ValueError("strict part of the relation has a cycle")
        order.extend(int(c) for c in ready)
        remaining[ready] = False
    return [classes[c] for c in order]


def describe_order(ids: list[str], leq: np.ndarray) -> str:
    parts = []
    for group in ordered_classes(ids, leq):
        names = [ids[i] for i in group]
        parts.append(names[0] if len(names) == 1 else "{" + " ~ ".join(names) + "}")
    return " < ".join(parts)


def render_model(atoms, ids: list[str], bits: np.ndarray, leq: np.ndarray) -> str:
    """Model file text as ``beliefrev`` dumps it: worlds most preferred
    first, ties as edge cycles, classes linked by the transitive reduction
    of the class order between representatives. ``bits[w]`` holds world
    w's atom values."""
    classes = ordered_classes(ids, leq)
    lines = [f"atoms: {' '.join(atoms)}", f"# preference order: {describe_order(ids, leq)}"]
    for group in classes:
        for w in group:
            lines.append(f"world {ids[w]}: {describe_valuation(atoms, bits[w])}")
    for group in classes:
        if len(group) > 1:
            cycle = group + [group[0]]
            lines.extend(f"{ids[a]} <= {ids[b]}" for a, b in zip(cycle, cycle[1:]))
    reps = [group[0] for group in classes]
    rel = leq[np.ix_(reps, reps)]
    strict = (rel & ~rel.T).astype(np.int64)
    reduced = (strict > 0) & ((strict @ strict) == 0)
    edges = sorted((ids[reps[a]], ids[reps[b]]) for a, b in np.argwhere(reduced))
    lines.extend(f"{a} <= {b}" for a, b in edges)
    return "\n".join(lines) + "\n"


def witnesses(ids: list[str], before: np.ndarray, after: np.ndarray, sat: np.ndarray) -> dict[str, list]:
    """Per postulate, the world ids violating it, in the order the checkers
    report them: pairs over sorted ids, row by row."""
    perm = sorted(range(len(ids)), key=lambda i: ids[i])
    names = [ids[i] for i in perm]
    b = before[np.ix_(perm, perm)]
    a = after[np.ix_(perm, perm)]
    s = sat[perm]
    inside = s[:, None] & s[None, :]
    outside = ~s[:, None] & ~s[None, :]
    across = s[:, None] & ~s[None, :]
    b_strict = b & ~b.T
    a_strict = a & ~a.T
    low = minimal(b, s)
    away = ~low[:, None] & ~low[None, :]
    masks = {
        "dp1": inside & (b != a),
        "dp2": outside & (b != a),
        "dp3": across & b_strict & ~a_strict,
        "dp4": across & b & ~a,
        "rec": across & ~a_strict,
        "ind": across & b & ~a_strict,
        "cb": away & (b != a),
    }
    out = {name: [(names[i], names[j]) for i, j in np.argwhere(mask)] for name, mask in masks.items()}
    top = minimal(a, np.ones(len(names), dtype=bool))
    out["faith"] = [(names[i],) for i in np.flatnonzero(low ^ top)] if s.any() else []
    return out


def check_report(ids: list[str], before: np.ndarray, after: np.ndarray, sat: np.ndarray) -> tuple[int, str]:
    """Exit code and text of ``beliefrev check --postulates all``."""
    found = witnesses(ids, before, after, sat)
    lines = []
    for name in POSTULATES:
        bad = found[name]
        if not bad:
            lines.append(f"{name.upper()}: pass")
            continue
        shown = ", ".join("(" + ", ".join(w) + ")" for w in bad[:5])
        more = "" if len(bad) <= 5 else f" and {len(bad) - 5} more"
        lines.append(f"{name.upper()}: FAIL  witnesses: {shown}{more}")
    return (1 if any(found.values()) else 0), "\n".join(lines) + "\n"
