"""Whole-program loading: modules, symbols, and import resolution.

Per-file rules see one AST at a time; the project rules
(:mod:`.rules_flow`, :mod:`.rules_unitflow`, :mod:`.rules_journal`)
need to follow a value across files.  This module builds the substrate
they share: every ``.py`` file under the given roots is parsed once
into a :class:`ModuleInfo` carrying its import table (alias → dotted
target, with relative imports resolved against the package layout on
disk), its module-level constant bindings, and a symbol table of every
function, method, and class.  :class:`Project` indexes those symbols
globally so a dotted reference (``repro.exec.scenario.seed_for``) or a
locally-imported alias resolves to the same :class:`FunctionInfo`
everywhere.

The loader is layout-driven, not import-driven: nothing is executed,
and the dotted name of a file is derived by walking parent directories
while ``__init__.py`` markers continue — which is what lets the test
fixture package under ``tests/fixtures/lintproj`` load exactly like
``src/repro`` does.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..visitor import dotted_name


def module_name_from_layout(path: Path) -> str:
    """Dotted module name derived from ``__init__.py`` package markers.

    Climbs from ``path``'s directory upward while each directory is a
    package (holds ``__init__.py``); a loose script resolves to its
    bare stem.
    """
    resolved = path.resolve()
    parts: List[str] = []
    if resolved.stem != "__init__":
        parts.append(resolved.stem)
    current = resolved.parent
    while (current / "__init__.py").is_file():
        parts.append(current.name)
        if current.parent == current:
            break
        current = current.parent
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method definition, with its parameter shape."""

    #: Fully qualified: ``repro.chaos.schedule.ChaosSchedule.generate``.
    qualname: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Positional-or-keyword parameter names, in order (``self``/``cls``
    #: excluded for methods).
    params: List[str]
    #: Keyword-only parameter names.
    kwonly: List[str]
    #: Parameter name -> default expression (for params with defaults).
    defaults: Dict[str, ast.AST] = field(default_factory=dict)
    #: Enclosing class name, or None for module-level functions.
    class_name: Optional[str] = None
    is_method: bool = False
    #: True for a ``__init__`` synthesized from ``@dataclass`` fields —
    #: it has no body; it stores each parameter into the same-named
    #: attribute.
    synthetic: bool = False

    @property
    def name(self) -> str:
        """The unqualified function name."""
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def all_params(self) -> List[str]:
        """Positional and keyword-only parameter names, in order."""
        return self.params + self.kwonly


@dataclass
class ClassInfo:
    """One class definition and its method table."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Method name -> FunctionInfo.
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Base-class expressions, rendered dotted where possible.
    bases: List[str] = field(default_factory=list)
    #: Instance attributes assigned a set value (``self.seen = set()``)
    #: anywhere in the class body — set-order taint sources.
    set_attrs: "set[str]" = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One parsed source file plus its local symbol and import tables."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: Local alias -> fully dotted target.  ``import os.path as osp``
    #: maps ``osp -> os.path``; ``from .scenario import seed_for`` maps
    #: ``seed_for -> repro.exec.scenario.seed_for``; a package's lazy
    #: ``_EXPORTS`` table adds its re-exports the same way.
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to constant literals.
    constants: Dict[str, ast.Constant] = field(default_factory=dict)
    #: Module-level function name -> FunctionInfo.
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class name -> ClassInfo.
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    is_package: bool = False

    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


def _param_shape(node: ast.AST) -> Tuple[List[str], List[str],
                                         Dict[str, ast.AST]]:
    """(positional, kwonly, defaults) for a function definition."""
    args = node.args  # type: ignore[attr-defined]
    positional = [a.arg for a in args.posonlyargs + args.args]
    kwonly = [a.arg for a in args.kwonlyargs]
    defaults: Dict[str, ast.AST] = {}
    if args.defaults:
        for name, default in zip(positional[-len(args.defaults):],
                                 args.defaults):
            defaults[name] = default
    for name, kw_default in zip(kwonly, args.kw_defaults):
        if kw_default is not None:
            defaults[name] = kw_default
    return positional, kwonly, defaults


def load_module(path: Path, source: str, tree: ast.Module) -> ModuleInfo:
    """Build the :class:`ModuleInfo` for one pre-parsed source file."""
    name = module_name_from_layout(path)
    info = ModuleInfo(name=name, path=path.as_posix(), source=source,
                      tree=tree, is_package=path.stem == "__init__")
    _collect_imports(info)
    if info.is_package:
        _collect_lazy_exports(info)
    _collect_symbols(info)
    return info


def _collect_imports(info: ModuleInfo) -> None:
    """Fill ``info.imports`` from top-level and nested import statements."""
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".", 1)[0]
                info.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(info, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = (f"{base}.{alias.name}"
                                       if base else alias.name)


def _collect_lazy_exports(info: ModuleInfo) -> None:
    """Read a package's ``_EXPORTS`` table (:mod:`repro._lazy`) as imports.

    A lazy package re-exports ``name`` from the submodule its table
    names, exactly as ``from .submodule import name`` would: ``"engine"``
    maps ``Engine -> <package>.engine.Engine``, ``"pam:select"`` maps
    ``select_multichain -> <package>.pam.select``, and a name equal to
    its submodule stands for the submodule itself.
    """
    for node in info.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_EXPORTS"
                and isinstance(node.value, ast.Dict)):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                    and isinstance(value, ast.Constant) \
                    and isinstance(value.value, str):
                name = key.value
                submodule, _, attr = value.value.partition(":")
                target = f"{info.name}.{submodule}"
                if attr:
                    target = f"{target}.{attr}"
                elif submodule != name:
                    target = f"{target}.{name}"
                info.imports[name] = target


def _resolve_from_base(info: ModuleInfo,
                       node: ast.ImportFrom) -> Optional[str]:
    """The absolute module a ``from X import ...`` pulls names out of."""
    if node.level == 0:
        return node.module or ""
    package_parts = info.package().split(".") if info.package() else []
    hops = node.level - 1
    if hops > len(package_parts):
        return None
    base_parts = package_parts[:len(package_parts) - hops]
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts)


def _collect_symbols(info: ModuleInfo) -> None:
    """Index module-level constants, functions, classes, and methods."""
    for node in info.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Constant):
            info.constants[node.targets[0].id] = node.value
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                isinstance(node.value, ast.Constant):
            info.constants[node.target.id] = node.value
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = _function_info(info, node, None)
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = _class_info(info, node)


def _function_info(info: ModuleInfo, node: ast.AST,
                   class_name: Optional[str]) -> FunctionInfo:
    positional, kwonly, defaults = _param_shape(node)
    is_method = class_name is not None
    if is_method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
    prefix = f"{info.name}.{class_name}." if class_name else f"{info.name}."
    return FunctionInfo(
        qualname=prefix + node.name,  # type: ignore[attr-defined]
        module=info.name, node=node, params=positional, kwonly=kwonly,
        defaults=defaults, class_name=class_name, is_method=is_method)


def _class_info(info: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    cls = ClassInfo(qualname=f"{info.name}.{node.name}", module=info.name,
                    node=node,
                    bases=[rendered for rendered in
                           (dotted_name(base) for base in node.bases)
                           if rendered is not None])
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[item.name] = _function_info(info, item, node.name)
    for inner in ast.walk(node):
        if isinstance(inner, ast.Assign) and _is_set_value(inner.value):
            for target in inner.targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    cls.set_attrs.add(target.attr)
    if "__init__" not in cls.methods and _is_dataclass(node):
        fields = [item.target.id for item in node.body
                  if isinstance(item, ast.AnnAssign) and
                  isinstance(item.target, ast.Name) and
                  "ClassVar" not in ast.unparse(item.annotation)]
        if fields:
            cls.methods["__init__"] = FunctionInfo(
                qualname=f"{cls.qualname}.__init__", module=info.name,
                node=node, params=fields, kwonly=[],
                class_name=node.name, is_method=True, synthetic=True)
    return cls


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class carries a ``@dataclass`` decorator."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) else \
            (target.id if isinstance(target, ast.Name) else "")
        if name == "dataclass":
            return True
    return False


def _is_set_value(node: ast.AST) -> bool:
    """Whether an expression evidently constructs a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and \
        node.func.id in ("set", "frozenset")


class Project:
    """Every loaded module, with global symbol resolution."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        #: Fully qualified function/method name -> FunctionInfo.
        self.functions: Dict[str, FunctionInfo] = {}
        #: Fully qualified class name -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        for module in modules:
            for function in module.functions.values():
                self.functions[function.qualname] = function
            for cls in module.classes.values():
                self.classes[cls.qualname] = cls
                for method in cls.methods.values():
                    self.functions[method.qualname] = method

    def module_for(self, path: str) -> Optional[ModuleInfo]:
        """The loaded module at filesystem ``path``, if any."""
        for module in self.modules.values():
            if module.path == path:
                return module
        return None

    # -- name resolution -----------------------------------------------------

    def resolve(self, module: ModuleInfo, name: str) -> Optional[str]:
        """Resolve a local ``name`` in ``module`` to a dotted target.

        Checks, in order: local imports, module-level functions and
        classes, and re-exports through package ``__init__`` chains
        (``"seed_for": "scenario"`` in the ``_EXPORTS`` table of
        ``repro.exec``, like ``from .scenario import seed_for``, makes
        ``repro.exec.seed_for`` an alias of the real definition).
        """
        if name in module.imports:
            return self._canonical(module.imports[name])
        if name in module.functions:
            return module.functions[name].qualname
        if name in module.classes:
            return module.classes[name].qualname
        return None

    def _canonical(self, dotted: str, _depth: int = 0) -> str:
        """Follow re-export chains to the defining module's name."""
        if _depth > 8:
            return dotted
        if dotted in self.functions or dotted in self.classes or \
                dotted in self.modules:
            return dotted
        if "." in dotted:
            head, tail = dotted.rsplit(".", 1)
            owner = self.modules.get(head)
            if owner is not None and tail in owner.imports:
                return self._canonical(owner.imports[tail], _depth + 1)
        return dotted

    def function_at(self, dotted: str) -> Optional[FunctionInfo]:
        """The FunctionInfo a dotted reference names, if it is ours.

        A class reference resolves to its ``__init__`` (the call shape
        of a constructor).
        """
        target = self._canonical(dotted)
        if target in self.functions:
            return self.functions[target]
        cls = self.classes.get(target)
        if cls is not None:
            init = cls.methods.get("__init__")
            if init is not None:
                return init
            return self._inherited_init(cls)
        return None

    def _inherited_init(self, cls: ClassInfo,
                        _depth: int = 0) -> Optional[FunctionInfo]:
        """Walk dotted base names looking for an inherited ``__init__``."""
        if _depth > 4:
            return None
        owner = self.modules.get(cls.module)
        for base in cls.bases:
            head = base.split(".", 1)[0]
            dotted = base
            if owner is not None and head in owner.imports:
                dotted = owner.imports[head] + base[len(head):]
            elif owner is not None and head in owner.classes:
                dotted = f"{cls.module}.{base}"
            parent = self.classes.get(self._canonical(dotted))
            if parent is None:
                continue
            init = parent.methods.get("__init__")
            if init is not None:
                return init
            deeper = self._inherited_init(parent, _depth + 1)
            if deeper is not None:
                return deeper
        return None


def build_project(files: Sequence[Tuple[Path, str, ast.Module]]) -> Project:
    """Assemble a :class:`Project` from pre-parsed (path, source, tree)."""
    return Project([load_module(path, source, tree)
                    for path, source, tree in files])
