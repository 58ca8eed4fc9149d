"""Package surface tests."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relcay
import relcay.audit

SOURCE_DIR = Path(relcay.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    # neither ``from .audit import _name`` nor ``audit._name`` in another module
    paths = sorted(SOURCE_DIR.glob("*.py"))
    stems = {path.stem for path in paths}
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in stems - {path.stem}
                and node.attr.startswith("_")
            ):
                offenders.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert offenders == []


def package_imports(path):
    """The relcay modules a source file imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("relcay.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "relcay":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_graphs_observe_and_theorems_predict_without_oracles():
    # graphs and oracles observe, theorems predict, only the audit compares;
    # group_core, the group arithmetic, sits below them all
    forbidden = {
        "group_core.py": {"graphs", "oracles", "theorems", "audit", "cli"},
        "graphs.py": {"theorems", "audit"},
        "oracles.py": {"theorems", "audit"},
        "theorems.py": {"oracles", "audit"},
    }
    for name, layers in forbidden.items():
        assert package_imports(SOURCE_DIR / name) & layers == set(), name


def test_invariants_imports_no_audit_layer():
    # a fresh interpreter, so nothing another test imported is counted
    script = (
        "import contextlib, io, sys\n"
        "import relcay, relcay.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = relcay.cli.execute_command(\n"
        "        ['invariants', 'C64', '--subgroup', 'a2', '--conn', 'a,a63'])\n"
        "assert status == 0, status\n"
        "unused = ('relcay.audit', 'relcay.theorems', 'concurrent.futures',\n"
        "          'multiprocessing', 'csv', 'json')\n"
        "print(','.join(name for name in unused if name in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE_DIR.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_every_public_name_resolves():
    for name in relcay.__all__:
        assert getattr(relcay, name) is not None
    assert dir(relcay) == sorted(relcay.__all__)
    with pytest.raises(AttributeError):
        relcay.no_such_name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from relcay import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(relcay.__all__)
    assert namespace["run_audit"] is relcay.audit.run_audit
