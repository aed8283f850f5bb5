import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """Names that a module imports and never reads.  A star import binds
    no name, and a name read anywhere in the module counts as used."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, alias.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    paths = [p for d in ("src/coxlow", "tests")
             for p in sorted((ROOT / d).glob("*.py"))
             if p.name != "__init__.py"]
    assert len(paths) > 20
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in paths for line, name in unused_imports(p)]
    assert found == []


def private_definitions(tree):
    """The private names that a module binds at module level, a function,
    class or constant named _x (dunders are not private), with their
    lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    return {name: line for name, line in defined.items()
            if name.startswith("_") and not name.endswith("__")}


def test_every_private_name_in_the_package_is_read():
    # a private helper or constant that the package no longer reads is
    # dead, whatever the tests still read of it
    paths = sorted((ROOT / "src/coxlow").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in paths}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p, tree in trees.items()
             for name, line in sorted(private_definitions(tree).items())
             if name not in read]
    assert found == []
