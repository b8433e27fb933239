"""Run-time tracing of beliefrev's public functions.

:meth:`Tracer.install` wraps each traced function and rebinds it wherever
the package holds a reference: module globals in every ``beliefrev``
module (so calls between modules are caught), dict values such as the
checker tables, and dataclass fields such as a transformation's ``fn``.
Methods are wrapped on their class. :meth:`Tracer.uninstall` puts every
original back. Nothing under ``src/`` changes.

Each call becomes a span (name, start, end, parent, op id) kept in flat
arrays; work counts are taken at the same boundaries from arguments and
results. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

_CHECKS = [f"check_{p}" for p in ("dp1", "dp2", "dp3", "dp4", "rec", "ind", "faith", "cb")]
_CONDS = [f"cond_{p}" for p in ("dp1", "dp2", "dp3", "dp4", "rec", "ind")]
_SWEEPS = ("formula.entails", "formula.equivalent")


def _model_cells(counts, args, result):
    counts["semantics.model_init.cells"] += len(args[1]) ** 2


def _dump_bytes(counts, args, result):
    counts["files.dump.bytes"] += len(result.encode("utf-8"))


def _check_pairs(counts, args, result):
    counts["postulates.check.pairs"] += len(args[0].worlds) ** 2


def _cond_accepts(counts, args, result):
    counts["postulates.cond.accepted"] += bool(result.holds)


def _relevance_pairs(counts, args, result):
    counts["transforms.relevance_check.pairs"] += result.pairs_checked


def _harmony_instances(counts, args, result):
    counts["harness.sweep_harmony.instances"] += result.data["instances"]


def _exit_2(counts, args, result):
    counts["cli.main.exit_2"] += result == 2


# span name -> (module, attribute names, hook taking (counts, args, result))
SPANS = {
    "formula.parse": ("beliefrev.formula", ["parse"], None),
    "formula.entails": ("beliefrev.formula", ["entails"], None),
    "formula.equivalent": ("beliefrev.formula", ["equivalent"], None),
    "semantics.model_init": ("beliefrev.semantics", ["PreferenceModel.__init__"], _model_cells),
    "semantics.from_edges": ("beliefrev.semantics", ["PreferenceModel.from_edges"], None),
    "semantics.tie_classes": ("beliefrev.semantics", ["PreferenceModel.tie_classes"], None),
    "semantics.describe_order": ("beliefrev.semantics", ["PreferenceModel.describe_order"], None),
    "semantics.satisfying": ("beliefrev.semantics", ["PreferenceModel.satisfying"], None),
    "semantics.revise": ("beliefrev.semantics", ["lex_revise", "natural_revise"], None),
    "semantics.min_worlds": ("beliefrev.semantics", ["min_worlds"], None),
    "pgraph.induced_order": ("beliefrev.pgraph", ["induced_order"], None),
    "pgraph.canonical_model": ("beliefrev.pgraph", ["canonical_model"], None),
    "pgraph.graph_from_preorder": ("beliefrev.pgraph", ["graph_from_preorder"], None),
    "pgraph.graphs_equivalent": ("beliefrev.pgraph", ["graphs_equivalent"], None),
    "transforms.prefix": ("beliefrev.transforms", ["prefix"], None),
    "transforms.apply_induced": ("beliefrev.transforms", ["apply_induced"], None),
    "transforms.relevance_check": ("beliefrev.transforms", ["relevance_check"], _relevance_pairs),
    "postulates.check": ("beliefrev.postulates", _CHECKS, _check_pairs),
    "postulates.cond": ("beliefrev.postulates", _CONDS, _cond_accepts),
    "harness.sweep_harmony": ("beliefrev.harness", ["sweep_harmony"], _harmony_instances),
    "files.parse_graph_file": ("beliefrev.files", ["parse_graph_file"], None),
    "files.parse_model_file": ("beliefrev.files", ["parse_model_file"], None),
    "files.dump_model": ("beliefrev.files", ["dump_model"], _dump_bytes),
    "cli.main": ("beliefrev.cli", ["main"], _exit_2),
}


def self_times(name, start, end, parent) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.
    Spans on one thread nest, so children never overlap."""
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return duration - child


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._seen: set[int] = set()
        self._undo: list = []

    # --- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int, kind: str) -> int:
        """Open the root span of one operation; close it with :meth:`close`."""
        self.op_id = op_id
        return self.open(self._name_id(f"op.{kind}"))

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, span: str, fn, hook):
        name_id = self._name_id(span)
        tracer = self
        repeat = span in _SWEEPS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if repeat:
                tracer._note_repeat(name_id, args)
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def _note_repeat(self, name_id: int, args) -> None:
        key = hash((name_id, args))
        if key in self._seen:
            self.counts["formula.repeats"] += 1
        else:
            self._seen.add(key)

    def _counting(self, key: str, fn, only_inside: set[int] | None):
        tracer = self

        def counted(*args, **kwargs):
            it = fn(*args, **kwargs)
            if only_inside is not None and not (
                tracer.stack and tracer.name[tracer.stack[-1]] in only_inside
            ):
                return it
            return tracer._count(key, it)

        return counted

    def _count(self, key: str, it):
        counts = self.counts
        for item in it:
            counts[key] += 1
            yield item

    def _rebind(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "beliefrev" or module_name.startswith("beliefrev.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append(("item", value, key, item))
                            value[key] = replacement
                elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                    for f in dataclasses.fields(value):
                        if getattr(value, f.name) is original:
                            self._undo.append(("field", value, f.name, original))
                            object.__setattr__(value, f.name, replacement)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append(("attr", owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for span, (module_name, attrs, hook) in SPANS.items():
            module = sys.modules[module_name]
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        self._set(cls, method, classmethod(self._wrap(span, raw.__func__, hook)))
                    else:
                        self._set(cls, method, self._wrap(span, raw, hook))
                else:
                    original = getattr(module, attr)
                    self._rebind(original, self._wrap(span, original, hook))
        pgraph = sys.modules["beliefrev.pgraph"]
        original = pgraph.enumerate_pgraphs
        self._rebind(original, self._counting("pgraph.enumerate_pgraphs.graphs", original, None))
        formula = sys.modules["beliefrev.formula"]
        sweeps = {self._name_id(s) for s in _SWEEPS}
        self._set(
            formula.Signature, "valuations",
            self._counting("formula.valuations_swept", formula.Signature.__dict__["valuations"], sweeps),
        )

    def uninstall(self) -> None:
        while self._undo:
            kind, owner, key, value = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, value)
            elif kind == "item":
                owner[key] = value
            else:
                object.__setattr__(owner, key, value)

    # --- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the work counts."""
        names = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        own = self_times(self.name, self.start, self.end, self.parent)
        calls = np.bincount(names, minlength=len(self.names))
        busy = np.bincount(names, weights=own, minlength=len(self.names))
        out: dict[str, float] = {}
        for span in SPANS:
            i = self._ids.get(span)
            out[f"{span}.calls"] = int(calls[i]) if i is not None else 0
            out[f"{span}.self_s"] = float(busy[i]) if i is not None else 0.0
        for i, span in enumerate(self.names):
            if span.startswith("op."):
                out[f"{span}.calls"] = int(calls[i])
                out[f"{span}.self_s"] = float(busy[i])
        for key in (
            "formula.valuations_swept", "semantics.model_init.cells", "files.dump.bytes",
            "pgraph.enumerate_pgraphs.graphs", "postulates.check.pairs",
            "transforms.relevance_check.pairs", "harness.sweep_harmony.instances", "cli.main.exit_2",
        ):
            out[key] = int(self.counts[key])
        sweeps = out["formula.entails.calls"] + out["formula.equivalent.calls"]
        out["formula.repeat_share"] = self.counts["formula.repeats"] / sweeps if sweeps else 0.0
        conds = out["postulates.cond.calls"]
        out["postulates.cond.accept_ratio"] = self.counts["postulates.cond.accepted"] / conds if conds else 0.0
        return out

    def save(self, path: Path) -> None:
        """Write the spans out: one row per span, names as a lookup table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
