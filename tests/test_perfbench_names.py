"""Every corrbern name the traced benchmark run wraps must exist.

`perfbench/layers.py` patches functions by (module, attribute) and the
traced run raises on a missing one.  This test runs the same `install`
against a recording stub, so a renamed or dropped name fails here too.
The file is read and executed, never imported, so nothing is written
under `perfbench/`.
"""

import importlib
import pathlib
import types

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
MODULES = ("cli", "experiment", "stats", "balance", "oracle", "linsys", "verify")


class RecordingTracer:
    def __init__(self):
        self.patched = []

    def patch(self, module, attr, name, count=None, rename=None):
        self.patched.append((module, attr))


def test_traced_names_exist():
    layers = types.ModuleType("layers")
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), layers.__dict__)
    modules = {name: importlib.import_module(f"corrbern.{name}") for name in MODULES}
    tracer = RecordingTracer()
    layers.install(tracer, modules, {}, per_pair=True)
    assert tracer.patched
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in tracer.patched
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
