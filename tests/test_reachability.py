"""Every module under ``src/repro`` runs from the CLI, or says what runs it.

A module that only its own unit tests import is code nothing runs: it
is either given a caller or deleted with those tests.  The walk starts
at :mod:`repro.cli` and follows every import statement in a module,
function-local ones included, since each CLI handler imports what only
it runs.  A ``from package import name`` also follows the package's lazy
``_EXPORTS`` table (:mod:`repro._lazy`) to the submodule defining
``name``, and reaching a module reaches its parent packages, whose
``__init__`` runs first.

Modules that nothing under ``src/`` imports, but something else runs,
are listed in :data:`REACHED_ELSEWHERE` with what runs them.  The list
must stay exact: an entry whose module the CLI now reaches, or that no
longer exists, fails as surely as an unlisted unreached module.
"""

import ast
from importlib.util import resolve_name
from pathlib import Path
from typing import Dict, Set

import repro

SRC = Path(repro.__file__).resolve().parent

_LINT_ENGINE = "imported by name when the linter builds its rule registry"
_ABLATION = "an EXPERIMENTS.md ablation, run by benchmarks/bench_*.py"

#: Unreached from :mod:`repro.cli` -> what runs the module instead.
REACHED_ELSEWHERE = {
    "repro.__main__": "python -m repro",
    "repro.analysis.lint.rules_events": _LINT_ENGINE,
    "repro.analysis.lint.rules_exceptions": _LINT_ENGINE,
    "repro.analysis.lint.project.rules_flow": _LINT_ENGINE,
    "repro.analysis.lint.project.rules_journal": _LINT_ENGINE,
    "repro.analysis.lint.project.rules_unitflow": _LINT_ENGINE,
    "repro.chain.graph": _ABLATION + " (bench_graph.py)",
    "repro.core.graph_pam": _ABLATION + " (bench_graph.py)",
    "repro.baselines.scaleout": _ABLATION + " (bench_scaleout.py)",
    "repro.baselines.greedy_border":
        _ABLATION + " (bench_ablation_selection.py)",
    "repro.baselines.random_policy":
        _ABLATION + " (bench_ablation_selection.py)",
    "repro.migration.incremental": _ABLATION + " (bench_incremental.py)",
    "repro.telemetry.estimator": _ABLATION + " (bench_estimator.py)",
    "repro.harness.curves": _ABLATION + " (bench_curves.py)",
    "repro.devices.fpga": _ABLATION + " (bench_fpga.py)",
    "repro.telemetry.histogram": "examples/failure_drill.py",
    "repro.analysis.queueing":
        "the M/D/1 reference model tests/test_queueing.py checks the "
        "simulator against",
    "repro.traffic.trace": "benchmarks/perf/spans.py",
}


def _modules(root: Path = SRC) -> Dict[str, Path]:
    """Dotted module name -> source file, for the package at ``root``."""
    modules = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _lazy_table(tree: ast.Module) -> Dict[str, str]:
    """A package's ``_EXPORTS`` table: public name -> submodule."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_EXPORTS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    return {}


def _import_graph(modules: Dict[str, Path]) -> Dict[str, Set[str]]:
    """Module -> every module in ``modules`` one of its imports loads."""
    trees = {name: ast.parse(path.read_text())
             for name, path in modules.items()}
    tables = {name: _lazy_table(tree) for name, tree in trees.items()}
    graph = {}
    for name, tree in trees.items():
        is_package = modules[name].name == "__init__.py"
        package = name if is_package else name.rpartition(".")[0]
        edges = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                edges.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = resolve_name(
                    "." * node.level + (node.module or ""), package)
                edges.add(base)
                for alias in node.names:
                    submodule = f"{base}.{alias.name}"
                    if submodule in modules:
                        edges.add(submodule)
                    elif alias.name in tables.get(base, {}):
                        edges.add(f"{base}.{tables[base][alias.name]}")
        graph[name] = {edge for edge in edges if edge in modules}
    return graph


def _reached(graph: Dict[str, Set[str]], root: str) -> Set[str]:
    """Every module loaded by importing ``root`` and running all of it."""
    reached: Set[str] = set()
    pending = [root]
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        pending.extend(graph[name])
        parent = name.rpartition(".")[0]
        if parent:
            pending.append(parent)
    return reached


class TestReachability:
    def test_every_module_runs_from_the_cli_or_says_what_runs_it(self):
        modules = _modules()
        unreached = set(modules) - _reached(_import_graph(modules),
                                            "repro.cli")
        listed = set(REACHED_ELSEWHERE)
        unlisted = sorted(unreached - listed)
        assert not unlisted, (
            f"nothing reaches {unlisted} from repro.cli: give each a "
            f"caller, delete it with its tests, or list what runs it")
        now_reached = sorted(listed & set(modules) - unreached)
        assert not now_reached, (
            f"repro.cli now reaches {now_reached}: unlist them")
        gone = sorted(listed - set(modules))
        assert not gone, f"listed modules {gone} no longer exist"

    def test_walk_counts_every_import_statement(self, tmp_path):
        # Two function-local imports bound to one alias are two edges,
        # and a lazy table entry leads to the submodule it names.
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        sources = {
            "__init__.py": '_EXPORTS = {"Thing": "impl"}\n',
            "impl.py": "Thing = 1\n",
            "cli.py": ("def main():\n"
                       "    from . import Thing\n"
                       "    from .sub.leaf import value\n"
                       "    import pkg.alone as load\n"
                       "    import pkg.other as load\n"),
            "sub/__init__.py": "",
            "sub/leaf.py": "value = 1\n",
            "alone.py": "",
            "other.py": "",
            "orphan.py": "",
        }
        for name, source in sources.items():
            (package / name).write_text(source)
        modules = _modules(package)
        reached = _reached(_import_graph(modules), "pkg.cli")
        assert set(modules) - reached == {"pkg.orphan"}
