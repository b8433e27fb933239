"""Loop implementations of the order queries.

These are the per-pair ``leq`` loops that ``beliefrev.semantics`` and
``beliefrev.files`` replaced with boolean matrix operations: tie classes
peeled as Kahn layers, the class reduction by a triple loop, minimal worlds
by a strict-below search, and equality by comparing every pair. They are
kept unchanged as the reference oracle of ``test_orders_differential.py``;
the renderers below are the library's, re-pointed at these loops. So is
the transitivity check by one relation product, which the up-set count
test replaced for total preorders. The closure by repeated squaring, which
the depth-first pass replaced, is the reference of ``test_closure.py``.
"""

from __future__ import annotations

import numpy as np

from beliefrev import Formula, PreferenceModel, Signature, World
from beliefrev.errors import ModelInvariantError
from beliefrev.semantics import _compose


def check_transitive(ids: list[str], mat: np.ndarray) -> None:
    """Raise the model's error for the first implied pair ``mat`` lacks."""
    missing = _compose(mat, mat) & ~mat
    if missing.any():
        a, b = (int(x) for x in np.argwhere(missing)[0])
        raise ModelInvariantError(
            f"relation is not transitive: {ids[a]!r} <= {ids[b]!r} is implied but absent"
        )


def tie_classes(self: PreferenceModel) -> list[list[str]]:
    """Partition of world ids into mutual-preference classes, ordered by
    preference (most preferred class first, id tiebreak inside)."""
    ids = list(self.ids)
    assigned: dict[str, int] = {}
    classes: list[list[str]] = []
    for a in ids:
        if a in assigned:
            continue
        group = [b for b in ids if self.leq(a, b) and self.leq(b, a)]
        for b in group:
            assigned[b] = len(classes)
        classes.append(sorted(group, key=ids.index))
    # Kahn layers over the class order, deterministically
    remaining = list(range(len(classes)))
    ordered: list[list[str]] = []
    while remaining:
        ready = [
            c
            for c in remaining
            if not any(
                o != c and self.leq(classes[o][0], classes[c][0])
                for o in remaining
            )
        ]
        ready.sort(key=lambda c: classes[c][0])
        for c in ready:
            ordered.append(classes[c])
            remaining.remove(c)
    return ordered


def describe_order(self: PreferenceModel) -> str:
    """Readable one-line rendering, e.g. ``w_pq < w_p < {w_q ~ w_0}``."""
    parts = []
    for group in tie_classes(self):
        if len(group) == 1:
            parts.append(group[0])
        else:
            parts.append("{" + " ~ ".join(group) + "}")
    return " < ".join(parts)


def equal(self: PreferenceModel, other: object) -> bool:
    if not isinstance(other, PreferenceModel):
        return NotImplemented
    if set(self.ids) != set(other.ids):
        return False
    if any(
        self.world(i).valuation != other.world(i).valuation for i in self.ids
    ):
        return False
    order = sorted(self.ids)
    return all(
        self.leq(a, b) == other.leq(a, b) for a in order for b in order
    )


def min_worlds(model: PreferenceModel, formula: Formula) -> frozenset[World]:
    """The most preferred worlds satisfying ``formula``; empty iff no world
    satisfies it."""
    sat = model.satisfying(formula)
    return frozenset(
        w
        for w in sat
        if not any(model.strictly_below(o.id, w.id) for o in sat)
    )


def _class_reduction(model: PreferenceModel) -> list[tuple[str, str]]:
    """Edges between tie-class representatives forming the transitive
    reduction of the class order."""
    classes = tie_classes(model)
    reps = [group[0] for group in classes]
    strict = {
        (a, b)
        for a in reps
        for b in reps
        if a != b and model.strictly_below(a, b)
    }
    reduced = []
    for a, b in sorted(strict):
        if not any((a, c) in strict and (c, b) in strict for c in reps):
            reduced.append((a, b))
    return reduced


def dump_model(sig: Signature, model: PreferenceModel) -> str:
    """Render a model file: worlds listed most preferred first, tie classes
    written as edge cycles, classes linked by their representatives."""
    classes = tie_classes(model)
    lines = [f"atoms: {' '.join(sig)}"]
    lines.append(f"# preference order: {describe_order(model)}")
    for group in classes:
        for world_id in group:
            world = model.world(world_id)
            lines.append(f"world {world_id}: {world.valuation.describe()}")
    for group in classes:
        if len(group) > 1:
            cycle = group + [group[0]]
            for a, b in zip(cycle, cycle[1:]):
                lines.append(f"{a} <= {b}")
    for a, b in _class_reduction(model):
        lines.append(f"{a} <= {b}")
    return "\n".join(lines) + "\n"


def model_to_dot(model: PreferenceModel) -> str:
    """Graphviz rendering: edges point from more preferred to less
    preferred, ties drawn both ways, transitive edges omitted."""
    lines = ["digraph preference {"]
    for world in model.worlds:
        label = world.valuation.describe().replace('"', '\\"')
        lines.append(f'  "{world.id}" [label="{world.id}\\n{label}"];')
    for group in tie_classes(model):
        if len(group) > 1:
            cycle = group + [group[0]]
            for a, b in zip(cycle, cycle[1:]):
                lines.append(f'  "{a}" -> "{b}";')
    for a, b in _class_reduction(model):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def transitive_closure(matrix: np.ndarray) -> np.ndarray:
    closed = matrix.copy()
    while True:
        step = closed | _compose(closed, closed)
        if np.array_equal(step, closed):
            return closed
        closed = step
