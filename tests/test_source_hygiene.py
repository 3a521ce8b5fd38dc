"""Every name a module of the package imports is used there or exported, and every
definition of the package is reached by the program, its acceptance tests or its
benchmarks."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyloewner"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# files outside the package whose references keep a definition in it
CALLERS = sorted(
    [ROOT / "tests" / "test_acceptance.py"]
    + list((ROOT / "perfbench").rglob("*.py"))
    + list((ROOT / "benchmarks").rglob("*.py"))
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_strings(tree: ast.Module):
    """Forward references written as strings, such as ``-> "Generator"``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in annotations:
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield ast.parse(sub.value, mode="eval")


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for root in [tree, *_annotation_strings(tree)]:
        used.update(n.id for n in ast.walk(root) if isinstance(n, ast.Name))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = _used(tree) | _exported(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in kept}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom typing import Callable\nx: 'Callable' = 1\n")
    assert set(_imported(tree)) - _used(tree) == {"math"}


def _function_level_sibling_imports(tree: ast.Module) -> list[int]:
    """Lines of ``from . import`` statements inside a function body."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [
                sub.lineno
                for sub in ast.walk(node)
                if isinstance(sub, ast.ImportFrom) and sub.level > 0
            ]
    return sorted(set(lines))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sibling_imports_are_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = _function_level_sibling_imports(tree)
    assert not lines, f"{path.name} imports a sibling module inside a function at lines {lines}"


def test_the_check_sees_a_function_level_import():
    tree = ast.parse("from .jets import x\n\ndef f():\n    from .jets import y\n    return y\n")
    assert _function_level_sibling_imports(tree) == [4]


def _references(tree: ast.Module) -> set[str]:
    """Names read in ``tree``: bare, as attributes and in string annotations."""
    return _used(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _unreached(modules: dict[str, ast.Module], callers: set[str]) -> list[str]:
    """``module.name`` of each top-level function or class that nothing references.

    A definition is reached when its own module references it outside its
    body, or another module of ``modules`` does, or its name is in ``callers``.
    """
    # names each top-level statement reads, per module
    parts = {
        name: [(node, _references(ast.Module(body=[node], type_ignores=[]))) for node in tree.body]
        for name, tree in modules.items()
    }
    definition = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for name, own in parts.items():
        elsewhere = callers.union(
            *(refs for other, nodes in parts.items() if other != name for _, refs in nodes)
        )
        for node, _ in own:
            if isinstance(node, definition) and node.name not in elsewhere:
                if not any(node.name in refs for other, refs in own if other is not node):
                    out.append(f"{name}.{node.name}")
    return out


def test_every_definition_is_reached():
    modules = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    callers = set().union(*(_references(ast.parse(p.read_text())) for p in CALLERS))
    unreached = _unreached(modules, callers)
    assert not unreached, f"definitions that nothing in the program reaches: {unreached}"


def test_the_check_sees_an_unreached_definition():
    modules = {
        "a": ast.parse("def used(): pass\n\ndef alone(): return alone()\n\nclass Kept: pass\n"),
        "b": ast.parse("from .a import used\n\nx: 'Kept' = used()\n\ndef looped(): pass\n"),
    }
    assert _unreached(modules, callers={"looped"}) == ["a.alone"]
