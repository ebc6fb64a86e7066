"""No module imports a name it never uses, and no function goes uncalled.

A standard-library stand-in for pyflakes' unused-import check: every
name an import statement binds must occur as a name somewhere in the
same module (the root of `a.b.c` counts for `import a.b`).  The
package's __init__.py re-exports on purpose and is skipped.

Next to it, a dead-code check: the name of every function or method the
package or tests/reference.py defines (dunders aside) must occur as a
name in the code of the package, the tests or the benchmark, outside
its own definition.  A name counts where it is a Python name token or
a string literal that is a whole identifier or dotted path (as the
tracer names functions); prose in comments and docstrings does not.
A private function or method of the package (`_name`) must occur so in
the package or the benchmark: tests alone do not keep a helper alive.
Likewise every error class of errors.py must be raised somewhere in the
package outside oracle.py.  And troplin.oracle, which every benchmark
process imports, defines only what bench/ imports from it and what that
calls.  Each package module imports a name from the module that
defines it, not through another module that imports it in turn.  And
every dotted package name that README.md puts in backticks resolves.
"""

import ast
import importlib
import io
import re
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "troplin").glob("*.py"))
SOURCES = sorted(p for p in [*PACKAGE, *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")
REFERENCE = ROOT / "tests" / "reference.py"
USERS = sorted(p for p in [*(ROOT / "tests").glob("*.py"),
                           *(ROOT / "bench").glob("*.py")]
               if p != REFERENCE)


def unused_imports(source):
    "(line, name) for each imported name that the module never uses."
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_sees_unused_and_used_names():
    source = ("import os.path\nimport sys\nfrom a import b, c as d\n"
              "def f():\n    from e import g\n    return os.sep, d\n")
    assert unused_imports(source) == [(2, "sys"), (3, "b"), (5, "g")]


def test_no_unused_imports():
    assert len(SOURCES) > 20
    found = ["%s:%d %s" % (p.relative_to(ROOT), line, name)
             for p in SOURCES
             for line, name in unused_imports(p.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)


DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _names(text):
    """(line, name) for each name token of the text, and for each part
    of a string literal that is a whole identifier or dotted path."""
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            yield tok.start[0], tok.string
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except ValueError:  # an f-string
                continue
            if isinstance(value, str) and DOTTED.fullmatch(value):
                for part in value.split("."):
                    yield tok.start[0], part


def unused_functions(defining, using):
    """(label, line, name) for each function or method that the modules
    in `defining` ({label: text}) define, dunders aside, and whose name
    occurs as a name (_names) nowhere in `defining` or `using` outside
    its own definition."""
    total = Counter()
    for text in using:
        total.update(name for _, name in _names(text))
    found = []
    for label, text in defining.items():
        lines = defaultdict(list)
        for line, name in _names(text):
            lines[name].append(line)
            total[name] += 1
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(node.lineno <= line <= node.end_lineno
                      for line in lines[name])
            found.append((label, node.lineno, name, own))
    return sorted((label, line, name) for label, line, name, own in found
                  if total[name] == own)


def test_dead_code_checker_sees_uncalled_functions():
    defining = {"m": "def loop():\n    return loop()\n"
                     "def used():\n    return 1\n"
                     "class C:\n    def meth(self):\n"
                     "        return used()\n"
                     "    def spare(self):\n        return 2\n"
                     "    def __len__(self):\n        return 0\n"
                     "    def traced(self):\n        return 3\n"}
    using = ["from m import C\nC().meth()\n",
             '"""spare and loop are named only in prose."""\n'
             '# as are spare() and C.spare\n'
             'WRAPPED = ["m.C.traced"]\n']
    assert unused_functions(defining, using) == [("m", 1, "loop"),
                                                 ("m", 8, "spare")]


def test_no_uncalled_functions():
    defining = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
                for p in [*PACKAGE, REFERENCE]}
    using = [p.read_text(encoding="utf-8") for p in USERS]
    found = ["%s:%d %s" % hit for hit in unused_functions(defining, using)]
    assert not found, "functions nobody calls:\n" + "\n".join(found)


def private_helpers_unused(package, bench):
    """(label, line, name) for each private function or method (`_name`,
    not a dunder) that the modules in `package` ({label: text}) define
    and whose name occurs nowhere in `package` or `bench` outside its
    own definition (unused_functions), whatever the tests call."""
    return [hit for hit in unused_functions(package, bench)
            if hit[2].startswith("_")]


def test_private_helper_checker_leaves_out_the_tests():
    package = {"m": "def _kept():\n    return 1\n"
                    "def _tested():\n    return 2\n"
                    "def _timed():\n    return 3\n"
                    "def public():\n    return _kept()\n"
                    "class C:\n    def _spare(self):\n        return 4\n"
                    "    def __len__(self):\n        return 0\n"}
    bench = ['TRACED = ["m._timed"]\n']
    # a test calling _tested, public or C._spare is not passed in
    assert private_helpers_unused(package, bench) == [("m", 3, "_tested"),
                                                      ("m", 10, "_spare")]


def test_no_private_helper_lives_on_tests_alone():
    package = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in PACKAGE}
    bench = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "bench").glob("*.py"))]
    assert len(package) > 10 and len(bench) > 3
    found = ["%s:%d %s" % hit for hit in private_helpers_unused(package,
                                                                bench)]
    assert not found, ("private helpers that only tests call:\n"
                       + "\n".join(found))


def unraised_errors(errors, modules):
    """Names of the classes defined in `errors` (a module's text) that no
    text in `modules` raises: a name counts where it follows `raise`."""
    raised = set()
    for text in modules:
        toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
                if t.type == tokenize.NAME]
        raised.update(b.string for a, b in zip(toks, toks[1:])
                      if a.string == "raise")
    return sorted(node.name for node in ast.parse(errors).body
                  if isinstance(node, ast.ClassDef)
                  and node.name not in raised)


def test_error_checker_sees_unraised_classes():
    errors = ("class Base(Exception):\n    pass\n"
              "class Used(Base):\n    pass\n"
              "class Caught(Base):\n    pass\n"
              "class Named(Base):\n    pass\n")
    modules = ["def f():\n    raise Used('x')\n",
               "try:\n    f()\nexcept Caught:\n    raise\n"
               "raise Base\n",
               '"""raise Named in prose does not count."""\n'
               "# nor raise Named in a comment\n"]
    assert unraised_errors(errors, modules) == ["Caught", "Named"]


def test_every_error_class_is_raised():
    errors = ROOT / "src" / "troplin" / "errors.py"
    modules = [p.read_text(encoding="utf-8") for p in PACKAGE
               if p.name not in ("errors.py", "oracle.py")]
    assert len(modules) > 8
    missing = unraised_errors(errors.read_text(encoding="utf-8"), modules)
    assert not missing, "error classes nothing raises: " + ", ".join(missing)


def unread_references(oracle, users):
    """Names of the functions that `oracle` (a module's text) defines at
    top level and that no text in `users` imports from troplin.oracle,
    nor calls from one so imported, directly or through another."""
    defs = {node.name: node for node in ast.parse(oracle).body
            if isinstance(node, ast.FunctionDef)}
    reached = set()
    for text in users:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "troplin.oracle":
                reached.update(a.name for a in node.names if a.name in defs)
    queue = list(reached)
    while queue:
        for node in ast.walk(defs[queue.pop()]):
            if isinstance(node, ast.Name) and node.id in defs \
                    and node.id not in reached:
                reached.add(node.id)
                queue.append(node.id)
    return sorted(set(defs) - reached)


def test_reference_checker_sees_what_the_benchmark_does_not_run():
    oracle = ("def ref(a):\n    return helper(a)\n"
              "def helper(a):\n    return a\n"
              "def spare(a):\n    return ref(a)\n"
              "def tested(a):\n    return a\n")
    users = ["from troplin.oracle import ref\n",
             "from reference import tested\nimport troplin.oracle\n"
             "# spare\nSPARE = 'troplin.oracle.spare'\n"]
    assert unread_references(oracle, users) == ["spare", "tested"]


def test_oracle_holds_only_what_the_benchmark_runs():
    """Every benchmark process imports troplin.oracle, so a reference
    that only the tests use belongs in tests/reference.py instead: in
    the package it costs every run the compile of its lines."""
    oracle = ROOT / "src" / "troplin" / "oracle.py"
    bench = [p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "bench").glob("*.py"))]
    assert len(bench) > 3
    unread = unread_references(oracle.read_text(encoding="utf-8"), bench)
    assert not unread, ("troplin.oracle functions that bench/ never "
                        "runs: " + ", ".join(unread))


def reexported_imports(modules):
    """(label, line, name) for each `from .m import name` in the modules
    ({label: text}, labelled by file name) where m.py binds the name
    only by importing it: no def, class or assignment at its top level."""
    defined = {}
    for label, text in modules.items():
        names = defined[label[:-3]] = set()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return sorted((label, node.lineno, alias.name)
                  for label, text in modules.items()
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module in defined
                  for alias in node.names
                  if alias.name not in defined[node.module])


def test_reexport_checker_sees_chained_imports():
    modules = {"a.py": "LIMIT = 1\ndef f():\n    return LIMIT\n",
               "b.py": "from .a import LIMIT, f\nclass C:\n    pass\n",
               "c.py": "from .b import C, LIMIT\n"
                       "def g():\n    from .b import f\n    return f\n"}
    assert reexported_imports(modules) == [("c.py", 1, "LIMIT"),
                                           ("c.py", 3, "f")]


def test_names_are_imported_from_their_defining_module():
    modules = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    found = ["%s:%d %s" % hit for hit in reexported_imports(modules)]
    assert not found, "names imported through a re-export:\n" + \
        "\n".join(found)


CLASSES = ("Matroid", "ValuatedMatroid", "SubdivisionCell",
           "WeightedDigraph")
BACKTICKED = re.compile(r"`(%s)" % DOTTED.pattern)


def unresolved_doc_names(text, modules):
    """Each dotted name that opens a backticked span of the text and
    names the package: `troplin.mod.name`, `mod.name` for a module in
    `modules`, or `Class.name` for one of CLASSES, that getattr does not
    resolve.  Other dotted names (`json.loads`, `vm.slots`) are left
    alone."""
    found = []
    for match in BACKTICKED.finditer(text):
        parts = match.group(1).split(".")
        if len(parts) < 2 or parts[0] not in {"troplin", *modules,
                                              *CLASSES}:
            continue
        if parts[0] != "troplin":
            parts.insert(0, "troplin")
        try:  # an attribute, else a submodule not yet imported
            obj = importlib.import_module("troplin")
            for i in range(1, len(parts)):
                obj = getattr(obj, parts[i]) if hasattr(obj, parts[i]) \
                    else importlib.import_module(".".join(parts[:i + 1]))
        except ImportError:
            found.append(match.group(1))
    return found


def test_doc_checker_sees_names_that_do_not_resolve():
    text = ("`troplin.trop.stiefel` and `troplin.oracle`, `util.slot_table`"
            " and `util.nothing`; `Matroid.rank` but `Matroid.delete(s)`;"
            " `troplin.nowhere`; `json.loads`, `vm.slots`, `trop`,"
            " `Matroid(n, bases)` and a bare Matroid.delete are not read")
    assert unresolved_doc_names(text, {"trop", "util"}) == [
        "util.nothing", "Matroid.delete", "troplin.nowhere"]


def test_readme_names_resolve():
    modules = {p.stem for p in PACKAGE if p.name != "__init__.py"}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(BACKTICKED.findall(text)) > 100
    missing = unresolved_doc_names(text, modules)
    assert not missing, "README names that do not resolve: " + \
        ", ".join(missing)
