"""Every function the benchmark tracer wraps must still exist under its name.

bench/tracer.py looks its targets up by module and qualified name; a rename
under src/ would make a traced benchmark run fail at install time.  This only
resolves the names and installs no wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("repstab_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for module_name, qualname, _stem, _kind in load_targets():
        module = importlib.import_module(module_name)
        owner, _, attr = qualname.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        if holder is None or attr not in vars(holder):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, missing
