"""Source hygiene: no module of the package or of the tests imports a name
it never uses, no function of the package assigns a name it never reads,
no module of the package keeps mutable state outside a call, one method
of the package computes Groebner bases, and no certificate check of the
package is false by no input.  No linter is a dependency, so these scans
are the check."""

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


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set,
                    ast.DictComp, ast.ListComp, ast.SetComp)
CACHE_DECORATORS = {"cache", "lru_cache", "cached_property"}


def module_state(source):
    """(line, kind) of every dict, list or set display or comprehension made
    once rather than per call -- at module or class level, or as a default
    argument there -- and of every functools cache decorator.

    Function and lambda bodies run per call, so what they make is exempt,
    and so are assignment targets such as `[a, b] = pair`.
    """
    found = []

    def visit(node, once):
        if (once and isinstance(node, MUTABLE_DISPLAYS)
                and not isinstance(getattr(node, "ctx", None), ast.Store)):
            found.append((node.lineno, type(node).__name__))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            for deco in getattr(node, "decorator_list", ()):
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in CACHE_DECORATORS:
                    found.append((deco.lineno, name))
                visit(deco, once)
            visit(node.args, once)
            body = node.body if isinstance(node.body, list) else [node.body]
            for part in body:
                visit(part, False)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, once)

    visit(ast.parse(source), True)
    return sorted(found)


def test_scan_finds_module_state():
    source = ("import functools\n"
              "TABLE = {}\n"
              "NAMES = (1, 2)\n"
              "[first, second] = NAMES\n"
              "SQUARES = [i * i for i in NAMES]\n"
              "class A:\n"
              "    seen = {1}\n"
              "    def f(self, acc=[]):\n"
              "        local = {}\n"
              "        return lambda: [local]\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def g(x, key=lambda y: {y: [y]}):\n"
              "    return {x: [x]}\n")
    assert module_state(source) == [(2, "Dict"), (5, "ListComp"),
                                    (7, "Set"), (8, "List"),
                                    (11, "lru_cache")]


def test_no_module_state_in_the_package():
    # the benchmark repeats passes in one interpreter and the CLI digests
    # are pinned per run, so no state may outlive a call
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, kind)
             for path in PACKAGE
             for line, kind in module_state(path.read_text())]
    assert not found, "module-level state:\n" + "\n".join(found)


def buchberger_readers(source):
    """(line, scope) of every read of the name `buchberger`, bare or as an
    attribute, called or not; the scope is the enclosing function, dotted
    with its classes and outer functions, or "<module>"."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = node.name if scope == "<module>" else (
                "%s.%s" % (scope, node.name))
        elif ((isinstance(node, ast.Name) and node.id == "buchberger"
               and isinstance(node.ctx, ast.Load))
              or (isinstance(node, ast.Attribute)
                  and node.attr == "buchberger")):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_buchberger_readers():
    source = ("from .groebner import buchberger\n"
              "from . import groebner\n"
              "class Ideal:\n"
              "    def _basis_with_last(self):\n"
              "        return buchberger([])\n"
              "    def intersect(self):\n"
              "        def inner():\n"
              "            return groebner.buchberger([])\n"
              "        return inner\n"
              "run = buchberger\n")
    assert buchberger_readers(source) == [
        (5, "Ideal._basis_with_last"), (8, "Ideal.intersect.inner"),
        (10, "<module>")]


def test_one_method_computes_bases():
    # every basis of the package is an entry of an ideal's table, so the
    # Hilbert hint and the table's reuse apply to all of them
    found = ["%s:%d: %s" % (path.relative_to(ROOT), line, scope)
             for path in PACKAGE
             for line, scope in buchberger_readers(path.read_text())
             if scope != "Ideal._basis_with_last"]
    assert not found, "buchberger outside Ideal._basis_with_last:\n" + (
        "\n".join(found))


def checks_that_cannot_fail(source):
    """(line, fault, key) of every certificate check that no input can make
    false, as far as its function's source shows.

    A check is an entry of a dict passed as `checks=` to `LinkStep`: of a
    dict display there, or of a name (or a `dict(name)` copy) passed
    there, whose entries are the dict displays assigned to the name and
    the subscript assignments into it in the same function.  A check is
    at fault when its value is a constant, when its value expression is
    that of an earlier key of the same dict, or when the function tests
    it as `if not <dict>[key]: raise`.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        groups, named = [], {}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None))
                    == "LinkStep"):
                for kw in node.keywords:
                    if kw.arg != "checks":
                        continue
                    value = kw.value
                    if (isinstance(value, ast.Call)
                            and getattr(value.func, "id", None) == "dict"
                            and len(value.args) == 1):
                        value = value.args[0]
                    if isinstance(value, ast.Dict):
                        groups.append((None, list(zip(value.keys,
                                                      value.values))))
                    elif isinstance(value, ast.Name):
                        named.setdefault(value.id, [])
        guarded = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name) and target.id in named
                            and isinstance(node.value, ast.Dict)):
                        named[target.id].extend(zip(node.value.keys,
                                                    node.value.values))
                    elif (isinstance(target, ast.Subscript)
                          and isinstance(target.value, ast.Name)
                          and target.value.id in named):
                        named[target.value.id].append((target.slice,
                                                       node.value))
            elif (isinstance(node, ast.If)
                  and isinstance(node.test, ast.UnaryOp)
                  and isinstance(node.test.op, ast.Not)
                  and isinstance(node.test.operand, ast.Subscript)
                  and isinstance(node.test.operand.value, ast.Name)
                  and any(isinstance(s, ast.Raise) for s in node.body)):
                guarded.add((node.test.operand.value.id,
                             ast.dump(node.test.operand.slice)))
        groups += list(named.items())
        for name, entries in groups:
            seen = {}
            for key, value in entries:
                if key is None:         # a ** spread
                    continue
                label = ast.unparse(key)
                if isinstance(value, ast.Constant):
                    found.append((value.lineno, "constant", label))
                expr = ast.dump(value)
                if expr in seen:
                    found.append((value.lineno, "same as %s" % seen[expr],
                                  label))
                seen.setdefault(expr, label)
                if (name, ast.dump(key)) in guarded:
                    found.append((key.lineno, "guarded by a raise", label))
    return sorted(found)


def test_scan_finds_checks_that_cannot_fail():
    source = ("def f(report, x):\n"
              "    report.add(LinkStep(kind='a', checks={'lit': True,\n"
              "                                          'ok': x > 0}))\n"
              "    checks = {'one': not x, 'guard': x == 1}\n"
              "    if not checks['guard']:\n"
              "        raise ValueError(x)\n"
              "    checks['two'] = not x\n"
              "    for k in x:\n"
              "        checks['at_%s' % k] = k > 0\n"
              "    other = {'free': True}\n"
              "    other['also'] = not x\n"
              "    return links.LinkStep(kind='b', checks=dict(checks)), other\n"
              "def g(x):\n"
              "    checks = {'guard': True}\n"
              "    return checks['guard'] or x\n")
    assert checks_that_cannot_fail(source) == [
        (2, "constant", "'lit'"), (4, "guarded by a raise", "'guard'"),
        (7, "same as 'one'", "'two'")]


def test_certificate_checks_can_fail():
    # a check that no input makes false tells the reader of a report
    # nothing; delete it, or keep the guard that raises instead
    found = ["%s:%d: %s %s" % (path.relative_to(ROOT), line, key, fault)
             for path in PACKAGE
             for line, fault, key in checks_that_cannot_fail(
                 path.read_text())]
    assert not found, "checks that cannot fail:\n" + "\n".join(found)
