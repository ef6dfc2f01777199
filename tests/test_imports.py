"""Every module-level import of the package and the tests is used.

No linter runs on this repository, so this catches what a deletion most
often leaves behind: an import that nothing reads.
``dlde/__init__.py`` is exempt, as it exists to bind names.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    """The names that the module-level imports of ``path`` bind but that
    its code never reads and its ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_module_level_imports_are_used():
    paths = [*ROOT.glob("src/dlde/*.py"), *ROOT.glob("tests/*.py")]
    unused = {
        str(p.relative_to(ROOT)): names
        for p in sorted(paths)
        if p.name != "__init__.py" and (names := _unused_imports(p))
    }
    assert unused == {}
