"""Package-level checks: the README example runs, imports and module-level names are used, each
module imports only the rarl modules below it, ``__all__`` resolves, only a general-metric distance
loads scipy, and no solve loads numpy.ma."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np

import rarl
from rarl.uncertainty import FAMILIES, Wasserstein

PACKAGE = pathlib.Path(rarl.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_usage_block() -> str:
    text = README.read_text()
    section = text.split("## Library usage", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no fenced python block under 'Library usage'"
    return match.group(1)


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports but never reads; ``__init__`` re-exports via ``__all__`` count as reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [
        f"{path.name}:{line} imports {name!r} but never uses it"
        for name, line in imported.items()
        if name not in used
    ]


# the rarl modules each module may import, so that they import in one order; ``__init__`` imports all
MAY_IMPORT = {
    "uncertainty": set(),
    "svgplot": set(),
    "mdp": {"uncertainty"},
    "estimators": {"mdp", "uncertainty"},
    "learners": {"estimators", "mdp", "uncertainty"},
    "planners": {"mdp", "uncertainty"},
    "environments": {"mdp", "uncertainty"},
    "harness": {"environments", "estimators", "learners", "mdp", "planners", "svgplot", "uncertainty"},
    "cli": {"harness"},
}


def rarl_imports(source: str) -> set[str]:
    """The rarl modules a module's source imports, relatively or by the package's name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").split(".")[0] == "rarl"):
            module = (node.module or "").removeprefix("rarl").lstrip(".")
            found.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("rarl."))
    return found


def import_order_problems(sources: dict[str, str]) -> list[str]:
    problems = []
    for name, text in sources.items():
        module = name.removesuffix(".py")
        if module == "__init__":
            continue
        if module not in MAY_IMPORT:
            problems.append(f"{name} has no entry in MAY_IMPORT")
            continue
        extra = sorted(rarl_imports(text) - MAY_IMPORT[module])
        if extra:
            problems.append(f"{name} imports {extra}; it may import only {sorted(MAY_IMPORT[module])}")
    return problems


def unread_module_names(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE constants and ``_private`` names that no module of ``sources`` reads.

    A read is a loaded name, an attribute of that name, or a ``from ... import`` of it.
    """
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    problems = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for ident, line in defined:
                dunder = ident.startswith("__") and ident.endswith("__")
                flagged = re.fullmatch(r"[A-Z][A-Z0-9_]*", ident) or (ident.startswith("_") and not dunder)
                if flagged and ident not in read:
                    problems.append(f"{name}:{line} defines {ident!r} but no module reads it")
    return problems


def package_sources() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_readme_library_usage_runs(capsys):
    namespace = {"__name__": "readme_example"}
    exec(compile(library_usage_block(), "README.md", "exec"), namespace)
    gain, tail = (float(x) for x in capsys.readouterr().out.split())
    assert abs(gain - tail) < 0.05


def test_no_unused_imports():
    problems = [msg for path in sorted(PACKAGE.glob("*.py")) for msg in unused_imports(path)]
    assert not problems, "\n".join(problems)


def test_modules_import_in_one_order():
    problems = import_order_problems(package_sources())
    assert not problems, "\n".join(problems)


def test_import_order_lint_catches_a_backward_import():
    sources = package_sources()
    sources["planners.py"] += "\nfrom .learners import robust_rvi_q\n"
    sources["environments.py"] += "\nimport rarl.planners\n"
    sources["mdp.py"] += "\nfrom rarl import estimators\n"
    sources["extra.py"] = ""
    assert import_order_problems(sources) == [
        "environments.py imports ['planners']; it may import only ['mdp', 'uncertainty']",
        "mdp.py imports ['estimators']; it may import only ['uncertainty']",
        "planners.py imports ['learners']; it may import only ['mdp', 'uncertainty']",
        "extra.py has no entry in MAY_IMPORT",
    ]


def test_all_names_resolve():
    missing = [name for name in rarl.__all__ if not hasattr(rarl, name)]
    assert not missing
    assert len(set(rarl.__all__)) == len(rarl.__all__)


def test_no_unread_module_names():
    problems = unread_module_names(package_sources())
    assert not problems, "\n".join(problems)


def test_unread_module_name_lint_catches_leftovers():
    sources = package_sources()
    sources["uncertainty.py"] += "\nGOLDEN = (np.sqrt(5.0) - 1.0) / 2.0\n\n\ndef _bracket_top(v):\n    return v.max()\n"
    found = unread_module_names(sources)
    assert len(found) == 2
    assert "defines 'GOLDEN'" in found[0] and "defines '_bracket_top'" in found[1]


def test_every_family_defines_the_set_interface():
    # a family that inherited the base NotImplementedError could not reach the planners, the oracle
    # or a ball check; ``support_batch`` and ``worst_row`` are guarded in test_traced_run.py
    missing = [
        f"{cls.__name__}.{method}"
        for cls in FAMILIES.values()
        for method in ("_solve", "_worst", "distance")
        if method not in vars(cls)
    ]
    assert not missing


def test_a_family_subclass_keeps_its_own_methods_and_inherits_the_rest():
    # the shared methods are bound on each family only: a subclass's own ``support_batch`` stays, and
    # its ``worst_row`` is the family's, so wrapping the family's method reaches the subclass too
    family = FAMILIES["tv"]

    class Shifted(family):
        def support_batch(self, rows, v):
            return super().support_batch(rows, v) + 1.0

    assert set(vars(Shifted)) & {"support", "worst_row", "support_and_worst"} == set()
    assert Shifted.worst_row is family.worst_row
    rows, v = np.array([[0.2, 0.5, 0.3]]), np.array([0.0, 1.0, -1.0])
    assert Shifted(0.3).support_batch(rows, v)[0] == family(0.3).support_batch(rows, v)[0] + 1.0


IMPORT_PATH_SCRIPT = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import rarl, rarl.cli, rarl.harness
from rarl.uncertainty import FAMILIES, Wasserstein, support_oracle_grid

steps = {"import": scipy_modules()}
rows, v = np.array([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4]]), np.array([0.0, 1.0, -1.0])
for cls in FAMILIES.values():
    cls(0.3).support_and_worst(rows, v)
steps["support_and_worst"] = scipy_modules()
steps["numpy.ma"] = "numpy.ma" in sys.modules
spec = Wasserstein(0.5, metric=1.0 - np.eye(4))
try:
    support_oracle_grid(spec, np.ones(4) / 4, np.zeros(4), 41)
except ValueError as exc:
    steps["row_cap"] = str(exc)
steps["row_cap_scipy"] = scipy_modules()
steps["distance"] = spec.distance(np.ones(4) / 4, np.eye(4)).tolist()
steps["scipy.optimize"] = "scipy.optimize" in sys.modules
print(json.dumps(steps))
"""


def test_only_a_general_metric_distance_loads_scipy():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", IMPORT_PATH_SCRIPT], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout)
    assert steps["import"] == []
    assert steps["support_and_worst"] == []
    assert not steps["numpy.ma"]  # np.unique imports it, about 8 ms of start-up
    assert "12341 rows" in steps["row_cap"] and steps["row_cap_scipy"] == []
    assert steps["scipy.optimize"]
    here = Wasserstein(0.5, metric=1.0 - np.eye(4)).distance(np.ones(4) / 4, np.eye(4))
    np.testing.assert_array_equal(steps["distance"], here)
