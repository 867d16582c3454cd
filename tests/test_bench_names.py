"""The package functions the benchmark traces by name must keep existing.

``bench/run.py`` wraps ``losanova.<module>.<name>`` for every name in its
``TIMED`` and ``COUNTED`` tables; a name that no longer resolves stops a
traced run. The tables are read from the source, without importing the
benchmark.
"""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


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
