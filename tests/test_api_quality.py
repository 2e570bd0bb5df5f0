"""API-quality meta-tests: docstrings everywhere, clean exports.

Deliverable-level guarantees enforced mechanically: every public
module, class, function, and method in :mod:`repro` carries a
docstring, every name in an ``__all__`` actually exists and matches
its package's lazy ``_EXPORTS`` table, code under ``src/`` imports from
defining modules, and the package imports without warnings.
"""

import ast
import importlib
import inspect
import pkgutil
import warnings
from pathlib import Path

import pytest

import repro


def walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        if info.name == "repro.__main__":
            continue  # importing it runs the CLI
        yield importlib.import_module(info.name)


def walk_packages():
    return [module for module in walk_modules()
            if hasattr(module, "__path__")]


def public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.ismodule(member):
            continue
        defined_here = getattr(member, "__module__", None) == \
            module.__name__
        if defined_here and (inspect.isclass(member)
                             or inspect.isfunction(member)):
            yield name, member


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [module.__name__ for module in walk_modules()
                        if not (module.__doc__ or "").strip()]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in walk_modules():
            for name, member in public_members(module):
                if not (member.__doc__ or "").strip():
                    undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    def test_every_public_method_documented(self):
        undocumented = []
        for module in walk_modules():
            for class_name, cls in public_members(module):
                if not inspect.isclass(cls):
                    continue
                for name, method in vars(cls).items():
                    if name.startswith("_"):
                        continue
                    target = method
                    if isinstance(method, property):
                        target = method.fget
                    elif isinstance(method, (staticmethod, classmethod)):
                        target = method.__func__
                    elif not inspect.isfunction(method):
                        continue
                    if not (getattr(target, "__doc__", "") or "").strip():
                        undocumented.append(
                            f"{module.__name__}.{class_name}.{name}")
        assert undocumented == []


class TestExports:
    def test_all_lists_are_accurate(self):
        broken = []
        for module in walk_modules():
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            for name in exported:
                if not hasattr(module, name):
                    broken.append(f"{module.__name__}.{name}")
        assert broken == []

    def test_lazy_tables_match_all(self):
        broken = []
        for package in walk_packages():
            table = package._EXPORTS
            if set(table) != set(package.__all__):
                broken.append(f"{package.__name__}: table "
                              f"{sorted(set(table) ^ set(package.__all__))}")
            listed = dir(package)
            namespace = {}
            exec(f"from {package.__name__} import *", namespace)
            for name, target in table.items():
                module = importlib.import_module(
                    f"{package.__name__}.{target}")
                expected = module if target == name \
                    else getattr(module, name)
                if getattr(package, name) is not expected:
                    broken.append(f"{package.__name__}.{name} resolves "
                                  f"elsewhere than {target}")
                defined_in = getattr(expected, "__module__", module.__name__)
                if (inspect.isclass(expected) or inspect.isfunction(
                        expected)) and defined_in != module.__name__:
                    broken.append(f"{package.__name__}.{name} is defined "
                                  f"in {defined_in}, not {target}")
                if name not in listed:
                    broken.append(f"{package.__name__}.{name} not in dir()")
                if namespace.get(name) is not expected:
                    broken.append(f"{package.__name__}.{name} not bound "
                                  f"by import *")
        assert broken == []

    def test_src_imports_name_defining_modules(self):
        # A package's names resolve through its lazy table; code under
        # src/ imports from the module that defines a name instead.
        root = Path(repro.__file__).resolve().parent
        packages = {path.parent for path in root.rglob("__init__.py")}
        through_tables = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if node.level == 0:
                    if not (node.module or "").startswith("repro"):
                        continue
                    base = root.parent.joinpath(*node.module.split("."))
                else:
                    base = path.parent
                    for _ in range(node.level - 1):
                        base = base.parent
                    if node.module:
                        base = base.joinpath(*node.module.split("."))
                if base in packages:
                    through_tables.append(
                        f"{path.relative_to(root)}:{node.lineno}")
        assert through_tables == []

    def test_package_imports_cleanly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            importlib.reload(importlib.import_module("repro.units"))


class TestCliProcess:
    def test_python_dash_m_repro_works(self):
        import subprocess
        import sys
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "table1"],
            capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0
        assert "monitor" in completed.stdout

    def test_bad_usage_exits_nonzero(self):
        import subprocess
        import sys
        completed = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True, text=True, timeout=120)
        assert completed.returncode != 0
