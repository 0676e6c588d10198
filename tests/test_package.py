"""Package-level checks: the README example runs, imports are used, ``__all__`` resolves."""

import ast
import pathlib
import re

import rarl

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


def test_readme_library_usage_runs(capsys):
    namespace = {"__name__": "readme_example"}
    exec(compile(library_usage_block(), "README.md", "exec"), namespace)
    gain, tail = (float(x) for x in capsys.readouterr().out.split())
    assert abs(gain - tail) < 0.05


def test_no_unused_imports():
    problems = [msg for path in sorted(PACKAGE.glob("*.py")) for msg in unused_imports(path)]
    assert not problems, "\n".join(problems)


def test_all_names_resolve():
    missing = [name for name in rarl.__all__ if not hasattr(rarl, name)]
    assert not missing
    assert len(set(rarl.__all__)) == len(rarl.__all__)
