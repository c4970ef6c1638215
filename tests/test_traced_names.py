"""Every function the benchmark's tracer wraps must still exist by its name.

`perfbench/tracing.py` looks each target up as `dsheffer.<module>.<attr>` and
fails the traced run if one is gone; this test reads the same table, so a
rename or a removal fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for module_name, path, name, _ in targets:
        owner = importlib.import_module(f"dsheffer.{module_name}")
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        # the tracer reads class attributes from __dict__ and module ones by name
        if owner is None or attr not in vars(owner) or not callable(vars(owner)[attr]):
            missing.append(name)
    assert missing == []
