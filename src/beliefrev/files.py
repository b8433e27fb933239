"""Text formats for priority graphs and preference models.

Both formats start with an ``atoms:`` header. Blank lines and lines
starting with ``#`` are ignored. :func:`file_kind` tells the formats apart
by these line rules: a file whose first node or world line is a world line
is a model file, and any other is a graph file, so a header-only file is
the empty graph. The command line drops a leading UTF-8 byte-order mark.

Graph files::

    atoms: p q
    node a: p & q
    node b: q
    a < b

Model files::

    atoms: p q
    world w1: ~p & q
    world w2: p & ~q
    w1 <= w2

Graph edge lines carry the strict order only: ``a < b`` makes node ``a``
strictly more important than ``b``. A world line is a total literal
conjunction, one literal per atom. Model order lines are generator edges
whose reflexive transitive closure is the relation: ``w1 <= w2`` makes
``w1`` at least as preferred as ``w2``, and a tie is written as two
opposite edges. Dumps produced here parse back to an equal structure.

A model file declares at most ``MODEL_WORLD_LIMIT`` (8,192) worlds; its
first world line past the bound raises :class:`ResourceBoundError`, before
any dense n x n relation is allocated.
"""

from __future__ import annotations

import re

from .errors import BeliefRevError, FileFormatError, ResourceBoundError
from .formula import Formula, Signature, Valuation, _compiled, parse, to_text
from .pgraph import PGraph
from .semantics import PreferenceModel, World, _describe, _generators

_ATOMS_RE = re.compile(r"atoms\s*:\s*(.*)")
_NODE_RE = re.compile(r"node\s+(\w+)\s*:\s*(.+)")
_GRAPH_EDGE_RE = re.compile(r"(\w+)\s*<\s*(\w+)")
# A world line, or failing that an order line.
_MODEL_LINE_RE = re.compile(r"world\s+(\w+)\s*:\s*(.+)|(\w+)\s*<=\s*(\w+)")

# Lex or natural revision of an 8,192-world chain file peaks at 269 MB (4.0 bytes per cell).
MODEL_WORLD_LIMIT = 8192


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append((number, line))
    return lines


def _parse_header(lines: list[tuple[int, str]]) -> Signature:
    if not lines:
        raise FileFormatError("empty file", 1)
    number, line = lines[0]
    match = _ATOMS_RE.fullmatch(line)
    if not match:
        raise FileFormatError("expected an 'atoms:' header", number)
    names = match.group(1).replace(",", " ").split()
    if not names:
        raise FileFormatError("atoms header lists no atoms", number)
    try:
        return Signature(names)
    except BeliefRevError as exc:
        raise FileFormatError(str(exc), number) from exc


def file_kind(text: str) -> str:
    """``"model"`` or ``"graph"``, decided at the first node or world line."""
    for line in map(str.strip, text.splitlines()):
        if _NODE_RE.fullmatch(line):
            return "graph"
        if (world := _MODEL_LINE_RE.fullmatch(line)) and world[1]:
            return "model"
    return "graph"


def parse_graph_file(text: str) -> tuple[Signature, PGraph]:
    """Parse graph text; building the graph rejects self-loops and cycles."""
    lines = _content_lines(text)
    sig = _parse_header(lines)
    labels: dict[str, Formula] = {}
    edges: set[tuple[str, str]] = set()
    for number, line in lines[1:]:
        node = _NODE_RE.fullmatch(line)
        if node:
            name, formula_text = node.groups()
            if name in labels:
                raise FileFormatError(f"duplicate node {name!r}", number)
            try:
                labels[name] = parse(formula_text, sig)
            except BeliefRevError as exc:
                raise FileFormatError(str(exc), number) from exc
            continue
        edge = _GRAPH_EDGE_RE.fullmatch(line)
        if edge:
            a, b = edge.groups()
            for end in (a, b):
                if end not in labels:
                    raise FileFormatError(f"unknown node {end!r} in edge", number)
            edges.add((a, b))
            continue
        raise FileFormatError(f"cannot parse graph line: {line!r}", number)
    return sig, PGraph(labels, edges)


def _literal(chunk: str, slots: dict[str, int], line: int) -> tuple[int, bool]:
    """The (slot, value) one literal of a valuation line spells."""
    literal = chunk.strip()
    negated = literal.startswith(("~", "!"))
    name = literal[1:].strip() if negated else literal
    slot = slots.get(name)
    if slot is None:
        raise FileFormatError(f"unknown atom {name!r} in valuation", line)
    return slot, not negated


def parse_model_file(text: str) -> tuple[Signature, PreferenceModel]:
    """Parse model text: worlds with total literal-conjunction valuations
    and generator order edges, closed reflexively and transitively.

    Each literal spelling is resolved once per file, and each distinct
    conjunction text builds one shared :class:`Valuation`."""
    lines = _content_lines(text)
    sig = _parse_header(lines)
    slots = {atom: i for i, atom in enumerate(sig.atoms)}
    literals: dict[str, tuple[int, bool]] = {}
    valuations: dict[str, Valuation] = {}
    worlds: dict[str, World] = {}
    edges: list[tuple[str, str]] = []
    for number, line in lines[1:]:
        match = _MODEL_LINE_RE.fullmatch(line)
        if match is None:
            raise FileFormatError(f"cannot parse model line: {line!r}", number)
        name, conjunction, a, b = match.groups()
        if name is None:
            for end in (a, b):
                if end not in worlds:
                    raise FileFormatError(f"unknown world {end!r} in order line", number)
            edges.append((a, b))
            continue
        if name in worlds:
            raise FileFormatError(f"duplicate world {name!r}", number)
        if len(worlds) == MODEL_WORLD_LIMIT:
            raise ResourceBoundError(f"line {number}: more than {MODEL_WORLD_LIMIT} worlds")
        valuation = valuations.get(conjunction)
        if valuation is None:
            bits: list[bool | None] = [None] * len(slots)
            for chunk in conjunction.split("&"):
                literal = literals.get(chunk)
                if literal is None:
                    literal = literals[chunk] = _literal(chunk, slots, number)
                slot, value = literal
                if bits[slot] is not None:
                    raise FileFormatError(f"atom {sig.atoms[slot]!r} assigned twice", number)
                bits[slot] = value
            if None in bits:
                missing = sig.atoms[bits.index(None)]
                raise FileFormatError(f"valuation does not assign {missing!r}", number)
            valuation = valuations[conjunction] = Valuation(sig, tuple(bits))
        worlds[name] = World(name, valuation)
    if not worlds:
        raise FileFormatError("model file declares no worlds", len(text.splitlines()))
    model = PreferenceModel.from_edges(tuple(worlds.values()), edges)
    return sig, model


def dump_graph(sig: Signature, graph: PGraph) -> str:
    """Render a graph file under ``sig``. A label atom outside ``sig``, which
    the file could not declare, raises :class:`UnknownAtomError`: the
    leftmost in the first such label, in node order."""
    lines = [f"atoms: {' '.join(sig)}"]
    for node in graph.node_ids:
        _compiled(graph.label(node), sig)
        lines.append(f"node {node}: {to_text(graph.label(node))}")
    for a, b in sorted(graph.edges):
        lines.append(f"{a} < {b}")
    return "\n".join(lines) + "\n"


def dump_model(model: PreferenceModel) -> str:
    """Render a model file under the atoms of its worlds' signature: worlds
    listed most preferred first, tie classes written as edge cycles,
    classes linked by their representatives."""
    classes, edges = _generators(model)
    lines = [f"atoms: {' '.join(model.signature)}"]
    lines.append(f"# preference order: {_describe(classes)}")
    for group in classes:
        for world_id in group:
            world = model.world(world_id)
            lines.append(f"world {world_id}: {world.valuation.describe()}")
    for a, b in edges:
        lines.append(f"{a} <= {b}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph: PGraph) -> str:
    """Graphviz rendering of the stored strict-importance edges."""
    lines = ["digraph priority {"]
    for node in graph.node_ids:
        label = to_text(graph.label(node)).replace('"', '\\"')
        lines.append(f'  "{node}" [label="{node}\\n{label}"];')
    for a, b in sorted(graph.edges):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_to_dot(model: PreferenceModel) -> str:
    """Graphviz rendering: edges point from more preferred to less
    preferred, ties drawn both ways, transitive edges omitted."""
    _, edges = _generators(model)
    lines = ["digraph preference {"]
    for world in model.worlds:
        label = world.valuation.describe().replace('"', '\\"')
        lines.append(f'  "{world.id}" [label="{world.id}\\n{label}"];')
    for a, b in edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
