"""Every module reads each name it imports.

An import that nothing reads is a leftover of a deleted or moved name. The
exceptions are the names a module imports only so that the benchmark can
wrap them as attributes of that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# "module.name": imported only for the benchmark to wrap
KEPT_FOR_THE_BENCHMARK = {
    "protocol.bind",
    "protocol.sample_secret",
    "protocol.unbind",
    "trainer.circconv_forward",
    "trainer.circconv_backward",
}


def _unread_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):  # a package re-exports the names in its __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return {f"{path.stem}.{name}" for name in imported - read}


def test_every_imported_name_is_read():
    paths = sorted((ROOT / "src" / "holobind").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    unread = set().union(*(_unread_imports(path) for path in paths))
    assert sorted(unread - KEPT_FOR_THE_BENCHMARK) == []
