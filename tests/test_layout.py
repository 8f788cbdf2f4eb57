"""The package holds only what the command line reaches; test-only code lives in tests/."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tandemwalks"

# argparse calls this hook itself, so no code in the package names it
HOOKS = {"cli._Parser.error"}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _references(nodes):
    """Every name and attribute read anywhere under the nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _targets(stmt):
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _definitions():
    """(bare name, qualified name, nodes reached with it) for every top-level
    def, class and assignment and every method; a class brings its
    decorators, bases, class body and dunder methods, a method only itself."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                defs.append((stmt.name, f"{module}.{stmt.name}", [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                own = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for item in stmt.body:
                    if not isinstance(item, ast.FunctionDef) or _is_dunder(item.name):
                        own.append(item)
                    else:
                        qualified = f"{module}.{stmt.name}.{item.name}"
                        name = qualified if qualified in HOOKS else item.name
                        defs.append((name, qualified, [item]))
                defs.append((stmt.name, f"{module}.{stmt.name}", own))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                # module dunders (__all__, __version__) are read by Python and tools
                defs.extend(
                    (t, f"{module}.{t}", [stmt]) for t in _targets(stmt) if not _is_dunder(t)
                )
    return defs


def unreached_names():
    defs = _definitions()
    reached = _references(
        [ast.parse((PACKAGE / name).read_text()) for name in ("cli.py", "__main__.py")]
    ) | {"main"} | HOOKS
    done = set()
    while True:
        fresh = [d for d in defs if d[0] in reached and d[1] not in done]
        if not fresh:
            break
        for _, qualified, nodes in fresh:
            done.add(qualified)
            reached |= _references(nodes)
    return sorted(qualified for _, qualified, _ in defs if qualified not in done)


def test_src_holds_only_what_the_cli_reaches():
    unreached = unreached_names()
    assert not unreached, "only tests reach these; move them to tests/: " + ", ".join(unreached)


def one_value_parameters(package=PACKAGE):
    """(function, parameter) pairs of private functions whose every call in
    the package fills the parameter with the same literal or upper-case
    module constant, given or defaulted: a constant in disguise."""
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    constants = {
        t for tree in trees for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) for t in _targets(stmt) if t.isupper()
    }
    nodes = [node for tree in trees for node in ast.walk(tree)]

    def fixed(arg):
        return isinstance(arg, ast.Constant) or (isinstance(arg, ast.Name) and arg.id in constants)

    flagged = []
    for fn in nodes:
        if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") or _is_dunder(fn.name):
            continue
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        defaults = dict(zip(params[len(params) - len(fn.args.defaults):], fn.args.defaults))
        calls = [n for n in nodes if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Name) and n.func.id == fn.name]
        for i, name in enumerate(params):
            values = set()
            for call in calls:
                if i < len(call.args) and not isinstance(call.args[i], ast.Starred):
                    arg = call.args[i]
                else:
                    arg = {k.arg: k.value for k in call.keywords}.get(name, defaults.get(name))
                values.add(ast.dump(arg) if arg is not None and fixed(arg) else None)
            if len(values) == 1 and None not in values:
                flagged.append((fn.name, name))
    return sorted(flagged)


def test_no_private_parameter_takes_one_value():
    flagged = one_value_parameters()
    assert not flagged, "every call passes the same value; make it a constant: " + repr(flagged)


def test_one_value_guard_flags_a_constant_in_disguise(tmp_path):
    (tmp_path / "mod.py").write_text(
        "PRIME = 7\n"
        "def _rank(mat, p, scale=1):\n    return mat % p * scale\n"
        "def solve(mat, q):\n    return _rank(mat, PRIME) + _rank(q, PRIME, scale=1)\n"
    )
    assert one_value_parameters(tmp_path) == [("_rank", "p"), ("_rank", "scale")]


def one_call_wrappers(package=PACKAGE):
    """Qualified names of the private, undecorated functions with one call
    site in the package whose body, past its docstring, is one
    ``return <call>``: a wrapper that its one caller can do without.  A
    decorated one (a cache) does something of its own."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls = Counter(
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    )
    flagged = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_") \
                    or _is_dunder(fn.name) or fn.decorator_list or calls[fn.name] != 1:
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            if len(body) == 1 and isinstance(body[0], ast.Return) \
                    and isinstance(body[0].value, ast.Call):
                flagged.append(f"{module}.{fn.name}")
    return sorted(flagged)


def test_no_private_function_wraps_one_call_for_one_caller():
    flagged = one_call_wrappers()
    assert not flagged, "call what these return from their one caller: " + ", ".join(flagged)


def test_wrapper_guard_flags_a_one_caller_wrapper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "def _rank(m):\n    return len(m)\n"
        "def _wrap(m):\n    \"\"\"The rank.\"\"\"\n    return _rank(m)\n"
        "def _twice(m):\n    return _rank(m)\n"
        "@functools.cache\ndef _cached():\n    return build()\n"
        "def build():\n    return _wrap([]) + _twice([]) + _twice([1]) + _cached()\n"
    )
    assert one_call_wrappers(tmp_path) == ["mod._wrap"]


# the functions that may test for bool themselves: the one integer check, and
# the model checks, whose messages name the whole triple or step
BOOL_CHECKS = {"errors.is_integer", "models._check_triple", "models.StepSet.__post_init__"}


def bool_checks(package=PACKAGE):
    """Qualified names of the functions that call isinstance(..., bool) in
    their own body: a hand-copied integer check."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "isinstance" and "bool" in _references(child.args[1:]):
                found.add(scope)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(found)


def test_bool_is_tested_only_by_the_integer_check():
    extra = sorted(set(bool_checks()) - BOOL_CHECKS)
    assert not extra, "use errors.is_integer or errors.check_integer in: " + ", ".join(extra)


def test_bool_guard_flags_a_hand_copied_check(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Box:\n    def size(self, v):\n"
        "        return isinstance(v, (int, bool)) and v\n"
        "def rounds(n):\n    return isinstance(n, int) and n >= 0\n"
    )
    assert bool_checks(tmp_path) == ["mod.Box.size"]


def test_all_lists_every_imported_public_name_and_nothing_else():
    # a stale entry breaks `from tandemwalks import *`; a missing one hides a name
    import tandemwalks

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for stmt in tree.body if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    }
    names = tandemwalks.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(tandemwalks, n)] == []
    assert sorted(n for n in imported if not n.startswith("_") and n not in names) == []


def unused_imports(package=PACKAGE):
    """Qualified names of the module-level imports that their module never
    reads and does not list in ``__all__``: an import left behind when its
    last use went.  A ``__future__`` import is a compiler directive, and a
    dotted ``import a.b`` binds ``a``."""
    flagged = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = [
            alias.asname or alias.name.split(".")[0]
            for stmt in tree.body
            if isinstance(stmt, ast.Import)
            or isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
            for alias in stmt.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        listed = {
            elt.value
            for stmt in tree.body if isinstance(stmt, ast.Assign) and "__all__" in _targets(stmt)
            for elt in ast.walk(stmt.value) if isinstance(elt, ast.Constant)
        }
        flagged += [f"{path.stem}.{name}" for name in bound if name not in read | listed]
    return sorted(flagged)


def test_every_module_level_import_is_read():
    flagged = unused_imports()
    assert not flagged, "remove these unused imports: " + ", ".join(flagged)


def test_import_guard_flags_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nimport json\n"
        "from bisect import bisect_left\nfrom math import gcd, log\n"
        "from .models import Model\n"
        "__all__ = ['Model']\n"
        "def f(x: np.ndarray) -> int:\n    return gcd(len(x), os.sep)\n"
    )
    assert unused_imports(tmp_path) == ["mod.bisect_left", "mod.json", "mod.log"]
