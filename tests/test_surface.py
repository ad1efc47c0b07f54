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


def test_traced_solver_hooks_exist():
    # The tracer patches each hook through Solver.__dict__, so an inherited
    # or missing one breaks the traced run.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    hooks = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SOLVER_SEARCH_HOOKS"]
    )
    assert hooks and not set(hooks) - set(vars(Solver)), sorted(set(hooks) - set(vars(Solver)))
