import ast
import pathlib

import qshje


def test_all_matches_the_package_imports():
    # __all__ names exactly what __init__'s `from .x import ...` lines bind,
    # each once, and every name resolves on the package
    tree = ast.parse(pathlib.Path(qshje.__file__).read_text())
    bound = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(set(qshje.__all__)) == len(qshje.__all__)
    assert set(qshje.__all__) == set(bound)
    for name in qshje.__all__:
        assert hasattr(qshje, name), name
