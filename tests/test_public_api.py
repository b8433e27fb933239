"""The package's public surface: the names ``beliefrev`` exports, the
README quick start, and every name the demos and the benchmark take from
the package root."""

import ast
import contextlib
import importlib.util
import io
import re
from pathlib import Path

import beliefrev

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BeliefRevError", "DemoReport", "Formula", "PGraph", "PostulateReport",
    "PreferenceModel", "RevisionOutcome", "SEMANTIC_CHECKS", "Signature",
    "Valuation", "World", "canonical_model", "check_cb", "check_rec",
    "demo_fact_cb", "demo_fact_min", "entails", "equivalent", "eval_formula",
    "graph_from_preorder", "graphs_equivalent", "lex_revise", "natural_revise",
    "parse", "prefix", "sweep_harmony",
]


def test_all_is_the_public_api():
    assert sorted(beliefrev.__all__) == PUBLIC


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from beliefrev import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if "print(" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 5
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)
    assert comments[-1] == "False, with witnesses"


def _root_names(path: Path) -> set[str]:
    """Names a script reads off the package root: ``beliefrev.<name>`` and
    ``from beliefrev import <name>``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "beliefrev":
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "beliefrev":
            names.update(alias.name for alias in node.names)
    return names


def test_names_the_demos_and_benchmark_take_from_the_root_resolve():
    scripts = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = {name: path.name for path in scripts for name in _root_names(path)}
    assert "canonical_model" in used and "SEMANTIC_CHECKS" in used
    for name, script in used.items():
        resolves = hasattr(beliefrev, name) or importlib.util.find_spec(f"beliefrev.{name}")
        assert resolves, f"{script} uses beliefrev.{name}"


def test_the_package_has_no_assert_statement():
    # ``python -O`` strips them, so a check the package relies on must raise.
    for path in sorted((ROOT / "src" / "beliefrev").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"
