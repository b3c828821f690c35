"""The benchmark's tracer wraps the program's functions by name. A binding
it cannot resolve is reported absent and its per-layer numbers read zero,
so a refactor of ``src/`` that moves or renames a traced function must
not go unnoticed. This loads ``perfbench/tracing.py`` without writing
anything next to it and resolves every binding it traces."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# bindings of code that an earlier engine had and the present one does not
DEAD_BINDINGS = {
    "aersnn.event_engine.EventFifo.push",
    "aersnn.event_engine.EventFifo.pop",
    "aersnn.numerics.leak_toward_raw",
    "aersnn.event_engine.leak_toward_raw",
    "aersnn.numerics.leak_decay_raw",
    "aersnn.event_engine.leak_decay_raw",
    "aersnn.event_engine.trunc_shift_raw",
    "aersnn.event_engine.convert_raw_array",
}


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_live_traced_binding_resolves():
    tracing = load_tracing()
    absent = {f"{module}.{path}"
              for bindings in tracing.SPANS.values()
              for module, path in bindings
              if tracing._resolve(module, path) is None}
    assert absent <= DEAD_BINDINGS, f"newly absent: {sorted(absent - DEAD_BINDINGS)}"
