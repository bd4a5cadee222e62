"""Each rule is stated once in the package: a rule stated in two places can
drift apart, so a second copy of a message or of a bound check fails here.

A refusal text is a string or f-string passed to ``ValueError``,
``SchemaError``, ``TripleError`` or ``problems.append``; the holes of an
f-string count as equal, so ``f"{a} must be positive"`` and
``f"{b} must be positive"`` are one text.  A bound is a ``MAX_*`` constant:
the one function that compares a value with it owns the bound, and every
other check calls that function, whatever words its refusal uses."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RAISERS = {"ValueError", "SchemaError", "TripleError"}


def is_refusal(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in RAISERS
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "append"
        and isinstance(func.value, ast.Name)
        and func.value.id == "problems"
    )


def text_of(node: ast.expr) -> str | None:
    """A string literal's text, or an f-string's with each hole as ``{}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return None


def refusal_texts(directory: Path) -> dict[str, list[str]]:
    """Every refusal text under ``directory``, with where each is written."""
    found: dict[str, list[str]] = defaultdict(list)
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and is_refusal(node):
                for arg in node.args:
                    text = text_of(arg)
                    if text is not None:
                        found[text].append(f"{path.name}:{node.lineno}")
    return found


def test_text_of_counts_holes_as_equal():
    first, second = (ast.parse(src, mode="eval").body for src in ('f"{a} x"', 'f"{b!r} x"'))
    assert text_of(first) == text_of(second) == "{} x"


def test_each_refusal_text_is_written_once():
    found = refusal_texts(ROOT / "src" / "shiftplan")
    assert "horizon not a multiple of 7: got {} days" in found
    assert {text: where for text, where in found.items() if len(where) > 1} == {}


def bound_comparisons(node: ast.AST, where: str, found: dict[str, set[str]]) -> None:
    """Add to ``found`` each ``MAX_*`` name compared under ``node``, with the
    function (or class, or module) ``where`` the comparison is written in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound_comparisons(child, f"{where}.{child.name}", found)
            continue
        if isinstance(child, ast.Compare):
            for part in ast.walk(child):
                name = part.id if isinstance(part, ast.Name) else getattr(part, "attr", "")
                if name.startswith("MAX_"):
                    found[name].add(where)
        bound_comparisons(child, where, found)


def test_each_bound_is_compared_in_one_function():
    found: dict[str, set[str]] = defaultdict(set)
    for path in sorted((ROOT / "src" / "shiftplan").glob("*.py")):
        bound_comparisons(ast.parse(path.read_text(), filename=str(path)), path.stem, found)
    assert {"MAX_AGENTS", "MAX_LOAD_ERLANGS", "MAX_PENALTY", "MAX_REQUIREMENT"} <= found.keys()
    assert {name: sorted(where) for name, where in found.items() if len(where) > 1} == {}
