"""The package names the benchmark reads must keep existing.

``bench/run.py`` wraps ``losanova.<module>.<name>`` for every name in its
``TIMED`` and ``COUNTED`` tables, and calls a few more names of the
``power``, ``cli`` and ``model`` modules directly; ``bench/spans.py`` reads
attributes of the design matrix that each fit receives. A name that no
longer resolves stops a benchmark run. The names are read from the source,
without importing the benchmark.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from losanova.linmod import DesignMatrix

BENCH = Path(__file__).resolve().parents[1] / "bench"
RUN = BENCH / "run.py"
SPANS = BENCH / "spans.py"


def _traced_names() -> list[tuple[str, str]]:
    tables = {}
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("TIMED", "COUNTED"):
                    tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"TIMED", "COUNTED"}
    return [(module, name) for table in tables.values()
            for module, names in table.items() for name in names]


def test_bench_traced_names_are_callables():
    names = _traced_names()
    assert names
    missing = [
        f"losanova.{module}.{name}" for module, name in names
        if not callable(getattr(importlib.import_module(f"losanova.{module}"), name, None))
    ]
    assert not missing


def _module_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every ``from losanova.<module> import <name>`` and
    every ``<module>.<name>`` or ``self.<module>.<name>`` read, where
    ``<module>`` is a module that ``from losanova import ...`` binds."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "losanova":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("losanova."):
            module = node.module.removeprefix("losanova.")
            reads.update((module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) \
                and owner.value.id == "self":
            owner_name = owner.attr
        elif isinstance(owner, ast.Name):
            owner_name = owner.id
        else:
            continue
        if owner_name in modules:
            reads.add((owner_name, node.attr))
    return reads


def test_bench_direct_reads_resolve():
    reads = _module_reads(RUN)
    # the names the benchmark calls outside its tables
    assert {("power", "all_effects"), ("power", "effect_label"), ("power", "PowerSpec"),
            ("power", "power_of_test"), ("model", "FactorLayout"),
            ("cli", "cli_main")} <= reads
    missing = [f"losanova.{module}.{name}" for module, name in sorted(reads)
               if not hasattr(importlib.import_module(f"losanova.{module}"), name)]
    assert not missing


def test_design_matrix_keeps_the_fields_spans_reads():
    # bench/spans.py counts each fit's rows as X.n_rows
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "X"}
    assert "n_rows" in read
    fields = {f.name for f in dataclasses.fields(DesignMatrix)}
    assert read <= fields
