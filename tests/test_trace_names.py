"""The functions the benchmark's --trace 1 mode wraps must keep existing.

perfbench/layers.py names each timed function by module and attribute
path and resolves it with getattr when tracing starts, so deleting or
renaming one of them breaks the traced run without failing any other
test.  The file is loaded here without importing it as a package module.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file beside the benchmark
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves() -> None:
    layers = _load_layers()
    missing = []
    for group, targets in layers.GROUPS.items():
        for module_name, path in targets:
            obj = importlib.import_module(f"{layers.PACKAGE}.{module_name}")
            for name in path.split("."):
                obj = getattr(obj, name, None)
            if not callable(obj):
                missing.append(f"{group}: {module_name}.{path}")
    assert missing == []
