"""The package's declared surface: the README's entry points, and every name
the benchmark harness reads from ``aspunfold`` or patches on ``Solver``.

The harness files are read as text, not imported: ``perfbench`` has its own
``conftest`` module and imports, and one pytest session cannot hold both."""

import ast
import re
from pathlib import Path
from types import ModuleType

import aspunfold
from aspunfold.solver import Solver

ROOT = Path(__file__).resolve().parents[1]


def readme_entry_points():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library entry points\n\n```python\nfrom aspunfold import \((.*?)\)\n```", text, re.S)
    return set(re.findall(r"\w+", re.sub(r"#.*", "", block.group(1))))


def test_exports_are_the_readme_entry_points():
    public = {n for n, v in vars(aspunfold).items() if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert len(aspunfold.__all__) == len(set(aspunfold.__all__))
    assert set(aspunfold.__all__) == public == readme_entry_points()


def test_benchmark_reads_only_exported_names():
    files = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "perfbench" / "tests").glob("*.py"))
    read = {n for f in files for n in re.findall(r"\bA\.(\w+)", f.read_text(encoding="utf-8"))}
    read -= {n for n in read if n.startswith("__") and n.endswith("__")} | {"gnt"}
    assert read and not read - set(aspunfold.__all__), sorted(read - set(aspunfold.__all__))


def solver_search_hooks():
    """The names of the ``Solver`` methods the tracer wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SOLVER_SEARCH_HOOKS"]
    )


def test_traced_solver_hooks_exist():
    # The tracer patches each hook through Solver.__dict__, so an inherited
    # or missing one breaks the traced run.
    hooks = solver_search_hooks()
    assert hooks and not set(hooks) - set(vars(Solver)), sorted(set(hooks) - set(vars(Solver)))


def test_every_public_member_is_read():
    # Every public method or property of a package class is read by name
    # somewhere else: in the package outside its own definition, in
    # perfbench/ or scripts/, or as a solver hook the tracer wraps.  A member
    # only the tests read belongs in tests/conftest.py as a function.
    package = sorted((ROOT / "src" / "aspunfold").glob("*.py"))
    users = sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in package + users}
    reads = [
        (f, node.lineno, node.attr)
        for f, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    hooks = set(solver_search_hooks())
    members = [
        (f, cls.name, fn)
        for f in package
        for cls in ast.walk(trees[f])
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    ]
    unread = [
        f"{name}.{fn.name}"
        for f, name, fn in members
        if fn.name not in hooks
        and not any(
            attr == fn.name and not (g == f and fn.lineno <= line <= fn.end_lineno) for g, line, attr in reads
        )
    ]
    assert members and not unread, unread
