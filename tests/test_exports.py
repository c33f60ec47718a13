import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import permpat

LIBRARY_MODULES = {"core", "textio", "matcher", "reduction", "folog", "verify"}


def test_every_exported_name_resolves():
    modules = [permpat] + [
        importlib.import_module(f"permpat.{info.name}")
        for info in pkgutil.iter_modules(permpat.__path__)
        if not info.name.startswith("_")
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {f"permpat.{name}" for name in LIBRARY_MODULES} | {"permpat"} <= {
        m.__name__ for m in exporting
    }
    for module in exporting:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_package_all_joins_the_module_lists():
    modules = (permpat.core, permpat.folog, permpat.matcher, permpat.reduction, permpat.textio)
    joined = [name for module in modules for name in module.__all__]
    assert permpat.__all__ == joined
    assert len(set(joined)) == len(joined)


def _imports(path: Path) -> set[str]:
    """Dotted names a module imports; a relative import within permpat is
    spelled from the package root."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "permpat." if node.level else ""
            if node.module:
                names.add(base + node.module)
            else:  # from . import x
                names.update(base + alias.name for alias in node.names)
    return names


# matcher.py's two engines: the brute oracle with the embedding check, and
# the backtracker with its set-up; neither side may call into the other
BRUTE_SIDE = {"is_valid_embedding", "_iter_bruteforce", "_brute_plan"}
BACKTRACK_SIDE = {"_iter_backtracking", "_search_plan", "_value_neighbours", "_factor_starts"}


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every plain, attribute and imported name a tree mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_import_boundaries():
    """permpat needs only the standard library, the two oracles that
    cross-check the matcher (the model checker and the independent-set
    reduction) share no code with it, and inside the matcher the brute
    engine and the backtracker share none either."""
    sources = {path.stem: path for path in Path(permpat.__file__).parent.glob("*.py")}
    assert LIBRARY_MODULES <= set(sources)
    for name, path in sources.items():
        for imported in _imports(path):
            top = imported.split(".")[0]
            assert top == "permpat" or top in sys.stdlib_module_names, (name, imported)
    for oracle in ("folog", "reduction"):
        assert not any(
            imported.startswith("permpat.matcher") for imported in _imports(sources[oracle])
        ), oracle
    # the brute engine shares matcher.py with the backtracker, so check names
    functions = {
        node.name: _referenced_names(node)
        for node in ast.parse(sources["matcher"].read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    for side, foreign in ((BRUTE_SIDE, BACKTRACK_SIDE | {"units"}),
                          (BACKTRACK_SIDE, BRUTE_SIDE)):
        for name in side:
            assert not functions[name] & foreign, (name, functions[name] & foreign)


# the four names perfbench/workloads.py calls until it moves onto match
ADAPTERS = {"MatchRequest", "match_dispatch", "match_bruteforce", "first_embedding"}
# the searches behind match: the two engines and auto's monotone shortcut
SEARCHES = {"_iter_bruteforce", "_iter_backtracking", "_lis_witness"}


def test_match_is_the_one_matching_entry_point():
    """No module but matcher names the benchmark's adapters, and inside
    matcher only match names a search: match alone picks an engine and
    applies a mode."""
    sources = {path.stem: path for path in Path(permpat.__file__).parent.glob("*.py")}
    for name, path in sources.items():
        if name != "matcher":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert not _referenced_names(tree) & ADAPTERS, name
    for node in ast.parse(sources["matcher"].read_text(encoding="utf-8")).body:
        if getattr(node, "name", None) != "match":
            assert not _referenced_names(node) & SEARCHES, ast.unparse(node)[:60]


def _raising_functions(tree: ast.Module, exception: str) -> list[str]:
    """The innermost enclosing function of every ``raise exception(...)``,
    or "<module>" for one at module level."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                raised = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(raised, "id", getattr(raised, "attr", None)) == exception:
                    found.append(function)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, "<module>")
    return found


def test_every_budget_refusal_goes_through_core_check_budget():
    """One check words and bounds every up-front refusal."""
    raising = [
        (path.stem, function)
        for path in sorted(Path(permpat.__file__).parent.glob("*.py"))
        for function in _raising_functions(
            ast.parse(path.read_text(encoding="utf-8")), "BudgetExceededError"
        )
    ]
    assert raising == [("core", "_check_budget")]


def _called_name(call: ast.Call) -> str | None:
    """The name a call calls, for f(...), self.f(...) and cls.f(...)."""
    called = call.func
    if isinstance(called, ast.Name):
        return called.id
    if isinstance(called, ast.Attribute) and getattr(called.value, "id", None) in ("self", "cls"):
        return called.attr
    return None


def test_no_function_calls_itself():
    """No search or walk in permpat uses Python recursion, whose depth the
    interpreter limits."""
    recursive = [
        (path.stem, function.name)
        for path in sorted(Path(permpat.__file__).parent.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.Call) and _called_name(node) == function.name
                for node in ast.walk(function))
    ]
    assert recursive == []
