"""Checks on the package source itself."""

import ast
import inspect
from pathlib import Path

import gofmetrics
from gofmetrics import confusion, means, multiclass

MODULES = (means, confusion, multiclass)
PACKAGE = Path(gofmetrics.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


def test_no_assert_statements():
    # `python -O` strips asserts, so every check must raise explicitly
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths, PACKAGE
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_package_names_are_the_modules_lists():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert gofmetrics.__all__ == expected
    assert len(set(expected)) == len(expected), expected


def test_package_names_resolve_to_their_modules_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gofmetrics, name) is getattr(module, name), (module.__name__, name)


def test_by_name_entry_point_is_public():
    assert gofmetrics.evaluate_metric is multiclass.evaluate_metric
    assert gofmetrics.METRICS is multiclass.METRICS


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _module_level_names(tree):
    # names bound by a module's own top-level statements
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id


def _references(tree):
    # loaded names, attribute names and imported names: every use but a binding
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_helper_is_used():
    # a module-level _name that nothing in the package refers to is left
    # over from a deleted path
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    used = {name for tree in trees.values() for name in _references(tree)}
    defined = [
        (module, name)
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if _is_private(name)
    ]
    assert defined
    unused = [f"{module}:{name}" for module, name in defined if name not in used]
    assert not unused, unused


def test_no_builtin_sum():
    # every sum of floats is math.fsum, correctly rounded, so a score does not
    # depend on the order of its terms or on the interpreter (3.12 made the
    # builtin float sum compensated); numpy's .sum() is an attribute, not flagged
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
        ]
    assert not found, found


def test_number_rule_and_public_means_stay_in_means():
    # the number rule is bound once, in `means`, and the package calls the
    # public means only from there: every other module has checked its floats
    # and hands them to `means._power_mean`
    public_means = {"power_mean"}
    calls, bindings = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "means.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in public_means:
                    calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id == "_NON_NUMBERS":
                    bindings.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.alias) and (node.asname or node.name) == "_NON_NUMBERS":
                bindings.append(f"{path.name}: import")
    assert not calls, calls
    assert not bindings, bindings


def test_means_has_one_public_mean():
    # every mean is `power_mean` at an exponent, a spec's at `spec.exponent`; a
    # named wrapper around it, or a spec method that restates `.name` or the
    # constructor, would be a second door to the same call
    functions = [name for name in means.__all__ if inspect.isfunction(getattr(means, name))]
    assert functions == ["power_mean"], functions
    methods = [name for name in vars(means.AveragingSpec) if not name.startswith("_")]
    assert methods == ["power"], methods


def test_only_means_maps_the_scalar_kernel_over_values():
    # `means._column_means` is the one way an array of rates reaches
    # `_power_mean`: no comprehension elsewhere calls the kernel per value
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "means.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, comprehensions):
                for call in ast.walk(node):
                    func = getattr(call, "func", None)
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if isinstance(call, ast.Call) and name == "_power_mean":
                        found.append(f"{path.name}:{call.lineno}")
    assert not found, found


def test_only_read_only_marks_an_array():
    # `confusion._read_only` is the one way an array a table holds or hands out
    # is made read-only: no other function calls `setflags`
    def marks(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags"

    calls, owners = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if marks(node)]
        owners += [
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(marks(inner) for inner in ast.walk(node))
        ]
    assert len(calls) == 1 and owners == ["confusion._read_only"], (calls, owners)


def test_one_lu_call():
    # `multiclass._log_det` is the one place a matrix is factored, the whole table or
    # the Schur complement of the pivot elimination, so a change to its scaling, its
    # `errstate` or its pivots' logs lands once
    calls, owners = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Attribute) and inner.attr == "slogdet":
                        calls.append(f"{path.name}:{inner.lineno}")
                        owners.append(f"{path.stem}.{node.name}")
    assert len(calls) == 1 and owners == ["multiclass._log_det"], (calls, owners)


def _imports(tree):
    # (line, name) for each name an import binds, bar __future__ and star imports
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if alias.name != "*":  # `import a.b` binds a
                    yield node.lineno, alias.asname or alias.name.split(".")[0]


def _exported(tree):
    # the strings a module's `__all__` lists, literally or beside other modules' lists
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and "__all__" in targets:
            yield from (c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))


def test_no_unused_imports():
    # an imported name that nothing loads or exports is left over from a deleted use
    paths = sorted(p for d in (PACKAGE, REPO / "tests", REPO / "tools") for p in d.rglob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        kept = loaded | set(_exported(tree))
        found += [
            f"{path.relative_to(REPO)}:{line}: {name}"
            for line, name in _imports(tree)
            if name not in kept
        ]
    assert not found, found


def test_cli_holds_no_copy_of_the_number_rule():
    # a JSON table's cells are checked by `from_counts` alone, and the CLI names
    # a refused row or cell from the place `from_counts` gives
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    copied = set(_references(tree)) & {"_no_number", "_quiet", "_past_doubles"}
    assert not copied, copied


def test_the_one_module_level_cache_holds_names():
    # a module-level cache lives as long as the process, so it keeps only the
    # default labels, a tuple of names per class count; no cache of arrays,
    # whose entries would grow as n^2 with the class count, comes back
    caches = {"lru_cache", "cache"}
    cached, uses = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            uses += name in caches  # a decorator or a call, not the import
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    called = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if ast.unparse(called).split(".")[-1] in caches:
                        cached.append(f"{path.stem}.{node.name}")
    assert cached == ["confusion._default_labels"] and uses == 1, (cached, uses)
    labels = confusion._default_labels(3)
    assert labels == ("class_0", "class_1", "class_2") and type(labels) is tuple
