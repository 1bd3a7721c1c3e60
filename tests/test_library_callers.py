"""The library keeps only what it runs.

Every top-level public function and class of `src/eqlab`, and every public
method a class body defines, has a caller in the library, its scripts or
its benchmark.  What only the tests reach lives in `tests/*_reference.py`,
which the library never imports.  A caller is a use of the name in the
code, as a name, an attribute or an imported alias: docstrings, strings
such as `eqlab.__all__`'s entries, and a name's uses inside its own
definition do not count.  Names are matched as names: a method counts as
called when any attribute of that name is read, except a classmethod,
which counts only when read through its own class (`Cls.m`, `mod.Cls.m`,
or `cls.m` in the class body), so a name two classes share hides neither.

`WAITING` lists the names that have no caller yet, each with the ROADMAP
item that gives it one or replaces it.  The list must stay true: a name
that gains a caller, or is gone, fails the test until it leaves the list.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "eqlab"
CALLER_DIRS = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")

WAITING = {
    "fn_to_holonomy": "item 2, the verifier measured on the holonomy",
    "translation_length": "item 2, the verifier measured on the holonomy",
    "shear_across_cuff": "item 16, which reads the published cuff shear back",
    "relator_defect": "item 2, the verifier measured on the holonomy",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(directory.glob("*.py"))}


def _is_classmethod(node) -> bool:
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list)


def _public_definitions() -> dict:
    """Top-level public functions and classes of the library, and the public
    methods their class bodies define, name -> dotted path, where a
    classmethod's name is Cls.m."""
    found = {}
    for path, tree in _trees(LIBRARY).items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                found[node.name] = f"{path.stem}.{node.name}"
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, DEFINITIONS) and not item.name.startswith("_"):
                        name = f"{node.name}.{item.name}" if _is_classmethod(item) else item.name
                        found[name] = f"{path.stem}.{node.name}.{item.name}"
    return found


def _uses() -> collections.Counter:
    """Each name read as a Name or an Attribute, or imported as an alias, and
    each Cls.m read through a class, outside the definitions of that name
    that enclose it."""
    counts = collections.Counter()

    def visit(node, own, cls):
        if isinstance(node, DEFINITIONS):
            own = own | {node.name}
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = [node.attr]
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner is not None:
                names.append(f"{cls if owner == 'cls' else owner}.{node.attr}")
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        else:
            names = []
        counts.update(name for name in names if name.split(".")[-1] not in own)
        for child in ast.iter_child_nodes(node):
            visit(child, own, cls)

    for directory in CALLER_DIRS:
        for tree in _trees(directory).values():
            visit(tree, frozenset(), None)
    return counts


def test_every_public_name_has_a_caller():
    uses = _uses()
    uncalled = {path for name, path in _public_definitions().items()
                if not uses[name] and name not in WAITING}
    assert uncalled == set(), "move these to tests/*_reference.py or give them a caller"


def test_waiting_names_still_wait():
    definitions, uses = _public_definitions(), _uses()
    assert set(WAITING) <= set(definitions), "a waiting name is gone: take it off the list"
    assert {name for name in WAITING if uses[name]} == set(), (
        "a waiting name has a caller now: take it off the list")


def test_library_imports_no_test_reference():
    imported = set()
    for path, tree in _trees(LIBRARY).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported |= {(path.stem, node.module)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(path.stem, alias.name) for alias in node.names}
    assert {(module, name) for module, name in imported if name.endswith("_reference")} == set()
