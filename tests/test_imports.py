import ast
import importlib
import inspect
import re
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


def definitions(tree):
    """The names that a module binds at module level, a function, class or
    constant, with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    return defined


def private_definitions(tree):
    """The private names of ``definitions``, named _x (dunders are not
    private)."""
    return {name: line for name, line in definitions(tree).items()
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


def public_definitions(tree):
    """The public names of ``definitions``, and the public methods and
    properties of the module's classes as Class.name, with their lines."""
    defined = {name: line for name, line in definitions(tree).items()
               if not name.startswith("_")}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    defined["%s.%s" % (node.name, item.name)] = item.lineno
    return defined


# The public names that nothing in src/coxlow/ (outside __init__.py) or
# demos/ reads, each with the reason it stays in src/.  A bench pin is read
# by a file under bench/, which src/ must keep working until the benchmark
# stops reading it; a test reference is an oracle or a view only the tests
# read.  ROADMAP item 2 moves what is not the checker out of src/.
UNREAD_PUBLIC = {
    "FINITE_BATTERY_ORDERS": "test reference: |W| of the finite battery "
                             "groups (criteria 3 and 4)",
    "battery_root_system": "bench pin: every battery workload builds its "
                           "groups with it",
    "build_gbip": "bench pin: battery-proof's G_bip job",
    "check_acyclic": "bench pin until ROADMAP item 1b: battery-proof's "
                     "G_bip job",
    "source_generators": "bench pin: battery-proof's G_bip job",
    "dihedral_matrix": "public constructor: the rank-2 Coxeter matrix",
    "BasedRootSystem.root_depth": "bench pin: the tracer wraps it",
    "cone_membership": "bench pin, and test reference: the cone oracle "
                       "is_low is checked against",
    "Level.letters": "test reference: the walk's letters against the "
                     "growth oracle",
    "group_to_json": "bench pin: the workloads write group files with it",
    "hulls_equal": "bench pin, and test reference: the pairwise hull "
                   "matching polytopes are checked against",
    "projective_hull": "bench pin, and test reference: the pairwise hull "
                       "matching polytopes are checked against",
    "SmallRootSet.max_depth": "bench pin, and test reference: the "
                              "dominance oracle's depth bound",
    "small_roots_by_dominance": "bench pin, and test reference: the "
                                "dominance oracle of the small roots",
    "is_bipodal": "the paper's bipodality: the proof rests on Sigma being "
                  "bipodal (criterion 7)",
}


def test_every_public_name_in_the_package_is_read():
    # the public counterpart of the private-name test: a public name must
    # be read as a name or attribute, and a public method or property as
    # an attribute, by the package or a demo, or be on UNREAD_PUBLIC with
    # its reason; an entry that is read again, or gone, leaves the list
    paths = [p for p in sorted((ROOT / "src/coxlow").glob("*.py"))
             if p.name != "__init__.py"]
    names, attrs = set(), set()
    for path in paths + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attrs.add(node.attr)
    unread = {}
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for name, line in public_definitions(tree).items():
            cls, _, attr = name.rpartition(".")
            if attr not in attrs and (cls or attr not in names):
                unread[name] = "%s:%d" % (path.relative_to(ROOT), line)
    assert all(UNREAD_PUBLIC.values())
    assert sorted("%s %s" % (unread[name], name) for name in unread
                  if name not in UNREAD_PUBLIC) == []
    assert sorted(set(UNREAD_PUBLIC) - set(unread)) == []


def coxlow_reads(tree):
    """The dotted names coxlow.a.b... that a module reads, prefixes
    included."""
    return {text for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and re.fullmatch(r"coxlow(\.\w+)+", text := ast.unparse(node))}


def resolve(dotted):
    """The object a dotted name names, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:k]))
        obj = getattr(obj, part)
    return obj


def test_every_name_the_benchmark_pins_resolves():
    # the benchmark's tracer wraps the (module, name) pairs of its FUNCTIONS
    # and BasedRootSystem.root_depth, and walks elements_by_length; its
    # workloads read coxlow.<name>.  A name that src/ drops would otherwise
    # show only as a failed benchmark run
    tracer = ast.parse((ROOT / "bench/tracer.py").read_text())
    pinned = {}
    for node in tracer.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0],
                                                       ast.Name):
            pinned[node.targets[0].id] = node.value
    functions = ast.literal_eval(pinned["FUNCTIONS"])
    modules = ast.literal_eval(pinned["MODULES"])
    names = {"coxlow.%s.%s" % pair for pair in functions}
    names |= {"coxlow." + m for m in modules}
    names |= {"coxlow.core.BasedRootSystem.root_depth",
              "coxlow.elements.elements_by_length"}
    for path in sorted((ROOT / "bench").glob("*.py")):
        names |= coxlow_reads(ast.parse(path.read_text()))
    assert len(functions) > 20 and len(names) > 40
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []


def coxlow_calls(tree):
    """The calls coxlow.a.b...(...) that a module makes."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and re.fullmatch(r"coxlow(\.\w+)+", ast.unparse(node.func))]


def test_every_call_the_benchmark_makes_binds():
    # each coxlow.<name>(...) call in bench/*.py must bind to the
    # signature of the object it names, placeholders standing for its
    # arguments: a parameter src/ drops or renames (cap=, _memo=) would
    # otherwise show only as a failed benchmark run.  A call that unpacks
    # *args or **kwargs is bound partially, as its count is not known
    calls = [(path.name, call)
             for path in sorted((ROOT / "bench").glob("*.py"))
             for call in coxlow_calls(ast.parse(path.read_text()))]
    assert len(calls) > 40
    unbound = []
    for where, call in calls:
        name = ast.unparse(call.func)
        signature = inspect.signature(resolve(name))
        unpacks = (any(isinstance(a, ast.Starred) for a in call.args)
                   or any(k.arg is None for k in call.keywords))
        bind = signature.bind_partial if unpacks else signature.bind
        try:
            bind(*[None for a in call.args if not isinstance(a, ast.Starred)],
                 **{k.arg: None for k in call.keywords if k.arg})
        except TypeError as exc:
            unbound.append("%s:%d %s: %s" % (where, call.lineno, name, exc))
    assert unbound == []


def unused_parameters(tree):
    """(line, function, parameter) for each parameter of a function or
    lambda that its body never reads; self and cls are exempt."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            found += [(node.lineno, getattr(node, "name", "<lambda>"), a.arg)
                      for a in params
                      if a.arg not in read and a.arg not in ("self", "cls")]
    return found


def test_no_function_in_the_package_has_an_unused_parameter():
    paths = sorted((ROOT / "src/coxlow").glob("*.py"))
    found = ["%s:%d %s(%s)" % (p.relative_to(ROOT), line, fn, arg)
             for p in paths
             for line, fn, arg in unused_parameters(ast.parse(p.read_text()))]
    assert found == []


def test_cli_writes_stdout_only_in_emit():
    # every document a command makes goes out through cli._emit, which
    # picks stdout or the --out file
    tree = ast.parse((ROOT / "src/coxlow/cli.py").read_text())
    owner = {}      # each write, by its innermost function (ast.walk is BFS)
    for fn in [tree] + [node for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)]:
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and node.attr == "write"
                    and ast.unparse(node.value) == "sys.stdout"):
                owner[node] = getattr(fn, "name", "<module>")
    assert list(owner.values()) == ["_emit"]
