"""Span tracing installed from the benchmark's side of the program.

Wrappers replace the program's functions at every binding its call sites
look up (module globals, class attributes and the CLI's command table),
so nothing under ``src/`` changes. Each call records one span: name,
parent span, start and end, kept in compact in-memory arrays and turned
into per-layer numbers when a round ends. A layer's self time is its
span time minus the time of the spans it caused.

A binding the program no longer has is reported as absent instead of
raising, so the trace keeps working while the engine is rewritten.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

# span name -> the bindings to wrap, as (module, attribute path). An
# attribute path is "name", "Class.name" or "table[key]".
SPANS = {
    "encoders.poisson_encode": [
        ("aersnn.encoders", "poisson_encode"),
        ("aersnn.evaluator", "poisson_encode"),
        ("aersnn.cli", "poisson_encode"),
    ],
    "encoders.load": [
        ("aersnn.encoders", "load_mnist"),
        ("aersnn.encoders", "load_ecg_beats"),
        ("aersnn.cli", "load_mnist"),
        ("aersnn.cli", "load_ecg_beats"),
    ],
    "event_engine.integrate_handler": [("aersnn.event_engine", "EventEngine.integrate_handler")],
    "event_engine.leak_handler": [("aersnn.event_engine", "EventEngine.leak_handler")],
    "event_engine.fire_handler": [("aersnn.event_engine", "EventEngine.fire_handler")],
    "event_engine.apply_accumulated_updates": [
        ("aersnn.event_engine", "EventEngine.apply_accumulated_updates")],
    "event_engine.run": [("aersnn.event_engine", "EventEngine.run")],
    "event_engine.fifo.push": [("aersnn.event_engine", "EventFifo.push")],
    "event_engine.fifo.pop": [("aersnn.event_engine", "EventFifo.pop")],
    "event_engine.read_aer_file": [
        ("aersnn.event_engine", "read_aer_file"),
        ("aersnn.cli", "read_aer_file"),
    ],
    "event_engine.write_aer_file": [
        ("aersnn.event_engine", "write_aer_file"),
        ("aersnn.cli", "write_aer_file"),
    ],
    "topology.queue_inhibition": [
        ("aersnn.topology", "queue_inhibition"),
        ("aersnn.event_engine", "queue_inhibition"),
    ],
    "topology.reset_for_sample": [
        ("aersnn.topology", "reset_for_sample"),
        ("aersnn.evaluator", "reset_for_sample"),
        ("aersnn.cli", "reset_for_sample"),
    ],
    "topology.build_network": [
        ("aersnn.topology", "build_network"),
        ("aersnn.evaluator", "build_network"),
    ],
    "topology.save_store": [("aersnn.topology", "save_store"), ("aersnn.cli", "save_store")],
    "topology.load_store": [("aersnn.topology", "load_store"), ("aersnn.cli", "load_store")],
    "evaluator.train_pass": [("aersnn.evaluator", "train_pass")],
    "evaluator.assign_labels": [("aersnn.evaluator", "assign_labels")],
    "evaluator.evaluate": [("aersnn.evaluator", "evaluate")],
    "evaluator.classify": [("aersnn.evaluator", "classify")],
    "cli.encode": [("aersnn.cli", "cmd_encode"), ("aersnn.cli", "_COMMANDS[encode]")],
    "cli.eval_replay": [("aersnn.cli", "_replay_trace")],
}
for _kernel in ("leak_toward_raw", "leak_decay_raw", "trunc_shift_raw", "convert_raw_array"):
    SPANS[f"numerics.{_kernel}"] = [("aersnn.numerics", _kernel),
                                    ("aersnn.event_engine", _kernel)]

RUN_STATS = ("packets_in", "packets_integrated", "packets_out", "packets_dropped",
             "timesteps", "idle_steps")


def _resolve(module: str, path: str):
    """Return (owner, key, is_table) for a binding, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    if path.endswith("]"):
        table, key = path[:-1].split("[")
        owner = getattr(owner, table, None)
        if not isinstance(owner, dict) or key not in owner:
            return None
        return owner, key, True
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name, False


class Tracer:
    """Records spans while installed; ``take`` turns them into totals."""

    def __init__(self):
        self.names = list(SPANS) + ["round"]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.absent_bindings: list[str] = []
        self.absent_spans: list[str] = []
        self.last_spans: dict[str, np.ndarray] | None = None
        self._originals = []

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _after_hook(self, name: str):
        if name == "event_engine.run":
            def hook(args, kwargs, result):
                stats = getattr(result, "stats", None)
                for key in RUN_STATS:
                    value = getattr(stats, key, None)
                    if value is not None:
                        self._count(f"run.{key}", value)
            return hook
        counter = {"event_engine.read_aer_file": "aer.bytes",
                   "event_engine.write_aer_file": "aer.bytes",
                   "topology.save_store": "checkpoint.bytes",
                   "topology.load_store": "checkpoint.bytes"}.get(name)
        if counter is None:
            return None

        def hook(args, kwargs, result):
            self._count(counter, os.path.getsize(args[0]))
        return hook

    def _wrap(self, fn, nid: int, after):
        stack = self.stack
        end = self.end
        push_name = self.name_id.append
        push_parent = self.parent.append
        push_start = self.start.append
        push_end = end.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(end)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0.0)
            stack.append(sid)
            push_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def open_span(self, name: str) -> int:
        sid = len(self.end)
        self.name_id.append(self.names.index(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close_span(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.absent_bindings = []
        self.absent_spans = []
        for nid, (name, bindings) in enumerate(SPANS.items()):
            found = 0
            for module, path in bindings:
                resolved = _resolve(module, path)
                if resolved is None:
                    self.absent_bindings.append(f"{module}.{path}")
                    continue
                owner, key, is_table = resolved
                original = owner[key] if is_table else getattr(owner, key)
                wrapper = self._wrap(original, nid, self._after_hook(name))
                if is_table:
                    owner[key] = wrapper
                else:
                    setattr(owner, key, wrapper)
                self._originals.append((owner, key, is_table, original))
                found += 1
            if not found:
                self.absent_spans.append(name)

    def uninstall(self) -> None:
        for owner, key, is_table, original in reversed(self._originals):
            if is_table:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._originals = []

    # -- results -----------------------------------------------------------

    def take(self) -> dict:
        """Per-span calls and self time plus counters since the last take;
        clears the recorded spans and keeps them for ``write``."""
        nid = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_time = dur - covered
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=self_time, minlength=len(self.names))
        out = {"spans": {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                         for i, name in enumerate(self.names)},
               "counters": dict(self.counters)}
        self.last_spans = {"name_id": nid, "parent": parent, "start": start, "end": end}
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.stack[1:] = []
        self.counters = {}
        return out

    def write(self, path) -> None:
        """Write the spans of the last taken interval, once, at the end."""
        if self.last_spans is not None:
            np.savez(path, names=np.array(self.names), **self.last_spans)
