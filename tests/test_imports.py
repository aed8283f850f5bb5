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
