"""The benchmark's layer trace wraps sixvertex functions by module and name."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)  # defines names only
    missing = [f"{mod}.{attr}" for mod, attr in layertrace.TARGETS
               if not callable(getattr(importlib.import_module(f"sixvertex.{mod}"), attr, None))]
    assert len(layertrace.TARGETS) > 20 and missing == []
