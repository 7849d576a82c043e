"""Source hygiene: no module of the package or of the tests imports a name
it never uses, and no function of the package assigns a name it never
reads.  No linter is a dependency, so these scans are the check."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "liaison").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """(line, name) of every imported name that no expression reads."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nprint(loads)\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


def test_no_unused_imports():
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for path in MODULES
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def unused_locals(source):
    """(line, name) of every name a function assigns and never reads.

    A read anywhere in the function counts, nested functions included.
    Names starting with "_" are exempt, and so are names the function
    declares global or nonlocal.  The line is the first assignment.
    """
    tree = ast.parse(source)
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        found.update((line, name) for name, line in stored.items()
                     if name not in read and not name.startswith("_"))
    return sorted(found)


def test_scan_finds_an_unused_local():
    source = ("def f(xs):\n"
              "    total, count = 0, len(xs)\n"
              "    for x in xs:\n"
              "        total += x\n"
              "    _, last = xs[0], xs[-1]\n"
              "    def g():\n"
              "        return total\n"
              "    return g\n")
    assert unused_locals(source) == [(2, "count"), (5, "last")]


def test_no_unused_locals_in_the_package():
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, name)
             for path in PACKAGE
             for line, name in unused_locals(path.read_text())]
    assert not found, "unused locals:\n" + "\n".join(found)


def uncalled_private_helpers(modules, readers=None):
    """(module, line, name) of every "_"-prefixed function or method in
    `modules` that no expression of `modules` or `readers` names.

    Each argument maps a label to a source.  A name counts as read when it
    is a bare name or an attribute anywhere outside its own `def` line;
    dunder methods are exempt.
    """
    defined = []
    named = set()
    for label, source in [*modules.items(), *(readers or {}).items()]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif (label in modules
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_")
                  and not node.name.endswith("__")):
                defined.append((label, node.lineno, node.name))
    return [entry for entry in defined if entry[2] not in named]


def test_scan_finds_an_uncalled_private_helper():
    module = ("def _used():\n"
              "    pass\n"
              "def _unused():\n"
              "    return _used()\n"
              "class A:\n"
              "    def __init__(self):\n"
              "        self._helper()\n"
              "    def _helper(self):\n"
              "        pass\n"
              "    def _read_elsewhere(self):\n"
              "        pass\n")
    reader = "print(A()._read_elsewhere())\n"
    assert uncalled_private_helpers({"m": module}, {"r": reader}) == [
        ("m", 3, "_unused")]
    assert uncalled_private_helpers({"m": module}) == [
        ("m", 3, "_unused"), ("m", 10, "_read_elsewhere")]


def test_no_uncalled_private_helpers():
    # the benchmark harness reads the package too: its tracer reads
    # `Ideal._gb`
    modules = {str(path.relative_to(ROOT)): path.read_text()
               for path in PACKAGE}
    readers = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "perfbench").glob("*.py"))}
    found = ["%s:%d: %s" % entry
             for entry in uncalled_private_helpers(modules, readers)]
    assert not found, "private helpers nothing calls:\n" + "\n".join(found)
