"""Modules imported at their first use rather than at import time.

Importing ``scipy.special`` costs a fresh process about 0.2 s on top of
numpy, which a process that never evaluates a distribution (``synth``,
``diagnose``, ``--help``, ``--version``, a usage or ingest error) should not pay.
"""

from __future__ import annotations

import importlib


class LazyModule:
    """Stands in for the module ``name``, imported at the first read of one
    of its attributes. Each attribute read is then kept on the stand-in, so
    only an attribute's first read goes through the import machinery."""

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        if attr.startswith("__"):  # protocol probes (copy, inspect) import nothing
            raise AttributeError(attr)
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value
