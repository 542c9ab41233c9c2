"""Every callable that the benchmark's tracer wraps resolves in its home
module.

The tracer in verdictbench/tracing.py skips a name it cannot find, but the
benchmark's own tests look each one up without a default, and this suite
does not collect them. So deleting a listed name would break only the
benchmark; this test makes such a deletion fail here instead.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "verdictbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("verdictbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_home_module():
    tracing = load_tracing()
    missing = []
    for layer, names in tracing.LAYERS.items():
        home = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for dotted in names:
            if "." in dotted:
                cls_name, attr = dotted.split(".")
                found = attr in vars(getattr(home, cls_name, object))
            else:
                found = callable(getattr(home, dotted, None))
            if not found:
                missing.append(f"{layer}.{dotted}")
    assert not missing
