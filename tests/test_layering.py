"""The slow test oracle stays out of the production import graph."""

import ast
import os
import subprocess
import sys

import dsreduce

PKG_DIR = os.path.dirname(dsreduce.__file__)


def imported_modules(path):
    """Dotted names a module imports, relative ones resolved in the package."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = ["dsreduce"] if node.level else []
            if node.module:
                parts.append(node.module)
            base = ".".join(parts)
            names.append(base)
            names += [f"{base}.{alias.name}" for alias in node.names]
    return names


def test_no_module_imports_the_oracle():
    offenders = []
    for fname in sorted(os.listdir(PKG_DIR)):
        if not fname.endswith(".py") or fname == "oracle.py":
            continue
        for name in imported_modules(os.path.join(PKG_DIR, fname)):
            if name == "dsreduce.oracle" or name.startswith("dsreduce.oracle."):
                offenders.append(f"{fname}: {name}")
    assert offenders == []


def test_cli_import_leaves_oracle_unloaded():
    # multiprocessing is for bench alone; every other command starts without it
    env = dict(os.environ)
    src = os.path.dirname(PKG_DIR)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, dsreduce.cli; "
        "print([m for m in ('dsreduce.oracle', 'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
