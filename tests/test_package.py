"""Package surface tests."""
import ast
from pathlib import Path

import relcay

SOURCE_DIR = Path(relcay.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
