"""The package holds only what the command line reaches; test-only code lives in tests/."""

import ast
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
