"""No module of the package or of the tests imports a name it never uses.

A standard-library stand-in for pyflakes' unused-import check: every
name an import statement binds must occur as a name somewhere in the
same module (the root of `a.b.c` counts for `import a.b`).  The
package's __init__.py re-exports on purpose and is skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in [*(ROOT / "src" / "troplin").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


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
