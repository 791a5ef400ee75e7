"""Layering: only ``neighbors.py`` knows how a ranking lays out its
prefixes.  Every other module reads a ``Ranking`` through ``len``,
``head``, ``places``, ``take`` and ``fold``, and imports none of the
kernels that build it, so the layout can change in one file.
Only ``methods.py`` opens a run of evidence tables, so one module owns
their lifetime."""

import ast
from pathlib import Path

import nbknn

# The kernels that rank, the Ranking members that hold or build the layout,
# and the training operand of the distance bound.
LAYOUT_NAMES = {"_nearest", "_threshold", "_exact_head", "distance_rows", "_bounded_rows",
                "test", "_groups", "_train_head", "_heads", "gram_columns"}


def test_only_neighbors_reads_the_prefix_layout():
    sources = sorted(Path(nbknn.__file__).parent.glob("*.py"))
    assert sources
    leaks = []
    for path in sources:
        if path.name == "neighbors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
                leaks.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                leaks += [f"{path.name}:{node.lineno} imports {alias.name}" for alias in node.names
                          if alias.name in LAYOUT_NAMES]
    assert not leaks, leaks


def _ranking_is_none(test) -> bool:
    return (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name) and test.left.id == "ranking"
            and isinstance(test.ops[0], ast.Is) and getattr(test.comparators[0], "value", 0) is None)


def test_ranking_readers_do_not_rank():
    # Read, don't re-rank: a function given a ranking reads it and builds
    # none, except select_k_cv when it is given none.  A Ranking is built
    # only by a public entry point, methods.trial_ranking and neighbors.py
    # itself; the CLI ranks its queries through methods.trial_ranking.
    public = set(nbknn.__all__)
    leaks = []
    for path in sorted(Path(nbknn.__file__).parent.glob("*.py")):
        if path.name == "neighbors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        inside = {id(node) for func in funcs for node in ast.walk(func)}
        builds = {id(node): node for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Ranking"}
        leaks += [f"{path.name}:{node.lineno} builds a Ranking outside a function"
                  for key, node in builds.items() if key not in inside]
        for func in funcs:
            calls = [node for node in ast.walk(func) if id(node) in builds]
            params = {a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
            if "ranking" in params:
                exempt = set()
                if func.name == "select_k_cv":
                    exempt = {id(node) for branch in ast.walk(func) if isinstance(branch, ast.If)
                              and _ranking_is_none(branch.test) for stmt in branch.body for node in ast.walk(stmt)}
                leaks += [f"{path.name}:{node.lineno} {func.name} is given a ranking and builds one"
                          for node in calls if id(node) not in exempt]
            elif calls and not (func.name in public or (func.name.endswith("_batch") and func.name[0] != "_")
                                or (path.name, func.name) == ("methods.py", "trial_ranking")):
                leaks += [f"{path.name}:{node.lineno} {func.name} builds a Ranking" for node in calls]
    assert not leaks, leaks


def test_cli_imports_no_private_name():
    # The CLI reaches a method through its public decision, not through
    # another module's private pieces; a dunder such as __version__ is public.
    path = Path(nbknn.__file__).parent / "cli.py"
    private = [f"cli.py:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("nbknn"))
               for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, private


def test_only_methods_opens_a_run_of_evidence_tables():
    # negbin.run_tables is named, called or imported in methods.py (around
    # the trials of run_trials) and nowhere else outside negbin.py.
    names = {}
    for path in sorted(Path(nbknn.__file__).parent.glob("*.py")):
        if path.name == "negbin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            named = (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and "run_tables" in named:
                names.setdefault(path.name, []).append(node.lineno)
    assert list(names) == ["methods.py"], names
