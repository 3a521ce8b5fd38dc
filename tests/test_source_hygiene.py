"""Every name a module of the package or of the tests imports is used there or
exported, and every definition of the package, methods and properties included,
is reached by the program, its acceptance tests or its benchmarks."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyloewner"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
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


@pytest.mark.parametrize(
    "path", MODULES + TEST_MODULES, ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}"
)
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
    """Each definition that nothing references: ``module.name`` for a top-level
    function or class, ``module.Class.name`` for a method or property.

    A definition is reached when its own module references it outside its
    body, or another module of ``modules`` does, or its name is in ``callers``.
    A member is also reached from the other statements of its class body.
    Dunder methods are exempt: the language calls them.
    """

    def refs(node: ast.stmt) -> set[str]:
        return _references(ast.Module(body=[node], type_ignores=[]))

    # names each top-level statement reads, per module
    parts = {name: [(node, refs(node)) for node in tree.body] for name, tree in modules.items()}
    function = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for name, own in parts.items():
        elsewhere = callers.union(
            *(refs for other, nodes in parts.items() if other != name for _, refs in nodes)
        )

        def reached(node, scope) -> bool:
            return node.name in elsewhere or any(
                node.name in refs for other, refs in scope if other is not node
            )

        for node, _ in own:
            if isinstance(node, function + (ast.ClassDef,)) and not reached(node, own):
                out.append(f"{name}.{node.name}")
            if isinstance(node, ast.ClassDef):
                scope = [part for part in own if part[0] is not node]
                scope += [(member, refs(member)) for member in node.body]
                for member in node.body:
                    if not isinstance(member, function) or (
                        member.name.startswith("__") and member.name.endswith("__")
                    ):
                        continue
                    if not reached(member, scope):
                        out.append(f"{name}.{node.name}.{member.name}")
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


def test_the_check_sees_an_unreached_method():
    modules = {
        "a": ast.parse(
            "class C:\n"
            "    def __init__(self): self.helper()\n"
            "    def helper(self): pass\n"
            "    def alone(self): return self.alone()\n"
            "    @property\n"
            "    def shown(self): return 1\n"
            "    def called(self): pass\n"
            "\n"
            "x = C()\n"
        ),
        "b": ast.parse("from .a import C\n\nC().called()\n"),
    }
    assert _unreached(modules, callers={"shown"}) == ["a.C.alone"]


def _storage_reads(source: str) -> list[str]:
    """Where a module reads a jet's dict form or names the old conversions.

    ``line: .attr`` for each attribute read ``.coeffs`` or ``.components``,
    ``line: name`` for each mention of ``map_to_array`` or ``array_to_map``.
    """
    tree = ast.parse(source)
    out = [
        f"{n.lineno}: .{n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("coeffs", "components")
    ]
    for lineno, text in enumerate(source.splitlines(), start=1):
        out += [f"{lineno}: {name}" for name in ("map_to_array", "array_to_map") if name in text]
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "jets.py"], ids=lambda p: p.name)
def test_only_jets_knows_how_a_jet_is_stored(path):
    reads = _storage_reads(path.read_text())
    assert not reads, f"{path.name} reads the storage of a jet outside jets.py: {reads}"


def test_the_check_sees_a_read_of_jet_storage():
    source = (
        "from .kernels import map_to_array\n"
        "n = len(f.components)\n"
        "c = {'components': 1}['components']\n"
        "d = dict(jet.coeffs)\n"
        "components = coeffs = 0\n"
    )
    assert _storage_reads(source) == ["1: map_to_array", "2: .components", "4: .coeffs"]
