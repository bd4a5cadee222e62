"""Every module uses each name it imports: a deletion that leaves an import
behind fails here.  No package module imports another's private
(underscore-prefixed) names: what a module shares, it names publicly."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in used
    ]


@pytest.mark.parametrize("directory", ["src/shiftplan", "tests", "demos"])
def test_no_unused_imports(directory):
    paths = sorted((ROOT / directory).glob("*.py"))
    assert paths
    assert [line for p in paths for line in unused_imports(p)] == []


def private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names imported from another module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "shiftplan")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_names_across_package_modules():
    paths = sorted((ROOT / "src/shiftplan").glob("*.py"))
    assert paths
    assert [line for p in paths for line in private_imports(p)] == []
