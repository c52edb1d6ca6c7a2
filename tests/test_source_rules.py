"""Rules on the source tree itself, checked on its syntax trees."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "perfbench", "demos")  # the code that may use a src definition
DOTTED = re.compile(r"[\w.:]+")  # a string naming code, e.g. "ckoord.loop:ControlLoop"


def _docstrings(tree: ast.AST) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _references(node: ast.AST, inside: frozenset, docstrings: set[int], found: set[str]) -> None:
    """Add to ``found`` each name ``node`` uses outside a definition of that
    name: a name, an attribute, or a dotted string such as a patch target.
    ``__all__`` lists and imports do not count as uses."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    ):
        return
    names: list[str] = []
    if isinstance(node, ast.Name):
        names = [node.id]
    elif isinstance(node, ast.Attribute):
        names = [node.attr]
    elif (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docstrings
        and DOTTED.fullmatch(node.value)
    ):
        names = re.split(r"[.:]", node.value)
    found.update(name for name in names if name not in inside)
    for child in ast.iter_child_nodes(node):
        _references(child, inside, docstrings, found)


def test_every_src_definition_is_used_outside_the_tests():
    """No src code that only tests call: every function, method and class
    under src/ckoord is used by src, perfbench or demos.  Dunder methods,
    which Python calls itself, are exempt."""
    used: set[str] = set()
    defined: dict[str, list[str]] = {}
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            _references(tree, frozenset(), _docstrings(tree), used)
            if top != "src":
                continue
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    defined.setdefault(node.name, []).append(where)
    assert defined
    unused = {
        name: where
        for name, where in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused == {}


def _defaulted(tree: ast.AST):
    """Each function under ``tree`` with a default: the name a call uses
    (its class's, for ``__init__``), the parameter, and its position among
    a call's positional arguments (None for a keyword-only one).  A method's
    first parameter is the ``self`` that a call does not pass."""
    owner = {
        id(item): node.name
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        name = owner[id(node)] if node.name == "__init__" else node.name
        positional = args.posonlyargs + args.args
        for k in range(len(positional) - len(args.defaults), len(positional)):
            yield name, positional[k].arg, k - (id(node) in owner)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, by position or through * or **."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """No default that only tests override: each defaulted parameter of a
    src/ckoord function is passed by some call in src, perfbench or demos to
    a function of that name."""
    calls: dict[str, list[ast.Call]] = {}
    defaulted = []
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
            if top == "src":
                defaulted += _defaulted(tree)
    assert defaulted
    unpassed = sorted(
        f"{name}.{param}"
        for name, param, position in defaulted
        if not any(_passes(call, param, position) for call in calls.get(name, ()))
    )
    assert unpassed == []


def test_no_src_class_checks_its_own_fields():
    """Rules on config values live in scenario's reader, so no class under
    src/ckoord defines __post_init__ to check its fields a second time."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.relative_to(ROOT)}:{item.lineno} {node.name}.__post_init__"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                ]
    assert found == []
