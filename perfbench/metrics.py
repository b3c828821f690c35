"""Metric definitions and their reduction from raw per-round records.

Standard library only: ``run.py`` imports this without numpy.

End-to-end metrics come from untraced rounds. Every workload reports
every one, because each workload has an ingest stage and an eval stage:

    ingest  digits_float, ecg_fixed: online training (``train_pass``)
            trace_replay: the ``aersnn encode`` command
    eval    digits_float, ecg_fixed: frozen labeling + evaluation
            trace_replay: the ``aersnn eval`` trace-replay command

A round repeats identical, deterministic work. Each round's stage time
is calibrated against the pass of the host-speed reference loop timed
just before that round (see ``calibrate.py``): calibrated time = stage
time x NOMINAL_S / loop time, so a slow spell that covers both cancels
out. A throughput is the median over rounds of work / calibrated time.
Set-up is calibrated the same way, probe by probe, against loops timed
in the probe's process, and is the median over probes.

Per-layer metrics come from traced rounds. A span or counter value is the
worker's traced set-up plus the median over traced rounds (every round
does identical work, so counts repeat exactly and times vary).
"""

from __future__ import annotations

import statistics

# The reference loop's time on the host where the baseline was
# recorded (2-core Xeon, KVM guest) with no visible contention. Part of
# the metric definitions: changing it rescales every calibrated metric.
NOMINAL_S = 0.078

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ingest_samples_per_s", "samples/s", "higher"),
    ("eval_samples_per_s", "samples/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Spans with both a call count and a self time.
_TIMED = [
    "encoders.poisson_encode",
    "event_engine.integrate_handler",
    "event_engine.leak_handler",
    "event_engine.fire_handler",
    "event_engine.apply_accumulated_updates",
    "event_engine.run",
    "topology.queue_inhibition",
    "topology.reset_for_sample",
    "numerics.leak_toward_raw",
    "numerics.leak_decay_raw",
    "numerics.trunc_shift_raw",
    "numerics.convert_raw_array",
    "evaluator.classify",
]
# Spans with only a self time.
_SELF_ONLY = [
    "encoders.load",
    "event_engine.read_aer_file",
    "event_engine.write_aer_file",
    "topology.build_network",
    "topology.save_store",
    "topology.load_store",
    "evaluator.train_pass",
    "evaluator.assign_labels",
    "evaluator.evaluate",
    "cli.encode",
    "cli.eval_replay",
]

# name -> (unit, better, spans it depends on; empty = harness-measured)
PER_LAYER: dict[str, tuple[str, str, tuple[str, ...]]] = {}
for _span in _TIMED:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower", (_span,))
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower", (_span,))
for _span in _SELF_ONLY:
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower", (_span,))
_FIFO = ("event_engine.fifo.push", "event_engine.fifo.pop")
_RUN = ("event_engine.run",)
_AER = ("event_engine.read_aer_file", "event_engine.write_aer_file")
PER_LAYER.update({
    "encoders.packets_per_sample": ("packets", "higher", ()),
    "event_engine.fifo.push_calls": ("count", "lower", _FIFO[:1]),
    "event_engine.fifo.pop_calls": ("count", "lower", _FIFO[1:]),
    "event_engine.fifo.self_s": ("s", "lower", _FIFO),
    "event_engine.aer.bytes": ("bytes", "lower", _AER),
    "event_engine.packets_in": ("count", "higher", _RUN),
    "event_engine.packets_out": ("count", "lower", _RUN),
    "event_engine.packets_dropped": ("count", "lower", _RUN),
    "event_engine.timesteps": ("count", "higher", _RUN),
    "event_engine.idle_steps": ("count", "higher", _RUN),
    "event_engine.fired_per_step": ("neurons/step", "lower", _RUN),
    "event_engine.integrated_ratio": ("fraction", "higher", _RUN),
    "event_engine.host_us_per_packet": ("us", "lower", _RUN),
    "topology.checkpoint.bytes": ("bytes", "lower",
                                  ("topology.save_store", "topology.load_store")),
    "evaluator.accuracy": ("fraction", "higher", ()),
    "cli.artifact.bytes": ("bytes", "lower", ()),
    "trace.overhead_ratio": ("ratio", "lower", ()),
})


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def untraced(rounds: list[dict]) -> list[dict]:
    return [r for r in rounds if not r.get("traced") and "ingest_s" in r]


def raw(rounds: list[dict], work: str, seconds: str) -> float:
    """Median uncalibrated work per second over the rounds."""
    return median(r[work] / r[seconds] for r in rounds)


def host_scale(rounds: list[dict]) -> float:
    """Median reference loop time over its nominal time: above 1 on a slow host."""
    return median((r["ref_s"] for r in rounds), NOMINAL_S) / NOMINAL_S


def calibrated_s(rounds: list[dict], seconds: str) -> list[float]:
    """Each round's stage time at the nominal host speed."""
    return [r[seconds] * NOMINAL_S / r["ref_s"] for r in rounds]


def calibrated(rounds: list[dict], work: str, seconds: str) -> float:
    """Median over rounds of work per calibrated second."""
    return median(r[work] / t for r, t in zip(rounds, calibrated_s(rounds, seconds)))


def end_to_end(rounds: list[dict], setup_probes: list[dict], peak_rss_mb: float) -> dict:
    timed = untraced(rounds)
    return {
        "setup_s": median(p["setup_s"] * NOMINAL_S / p["ref_s"] for p in setup_probes),
        "ingest_samples_per_s": calibrated(timed, "ingest_samples", "ingest_s"),
        "eval_samples_per_s": calibrated(timed, "eval_samples", "eval_s"),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(setup: dict, traced: list[dict], rounds: list[dict],
              absent_spans: list[str]) -> tuple[dict, list[str]]:
    """Reduce traced intervals to the PER_LAYER metrics. Returns the
    values and the names whose spans are all absent (reported as 0)."""

    def span(name: str, stat: str) -> float:
        return setup["spans"][name][stat] + median(t["spans"][name][stat] for t in traced)

    def counter(key: str) -> float:
        return setup["counters"].get(key, 0) + median(
            t["counters"].get(key, 0) for t in traced)

    values = {}
    for name, (_, _, spans) in PER_LAYER.items():
        base, _, stat = name.rpartition(".")
        if spans == (base,):
            values[name] = span(base, stat)
    values["event_engine.fifo.push_calls"] = span(_FIFO[0], "calls")
    values["event_engine.fifo.pop_calls"] = span(_FIFO[1], "calls")
    values["event_engine.fifo.self_s"] = span(_FIFO[0], "self_s") + span(_FIFO[1], "self_s")
    values["event_engine.aer.bytes"] = counter("aer.bytes")
    values["topology.checkpoint.bytes"] = counter("checkpoint.bytes")
    for key in ("packets_in", "packets_out", "packets_dropped", "timesteps", "idle_steps"):
        values[f"event_engine.{key}"] = counter(f"run.{key}")
    packets_in = values["event_engine.packets_in"]
    values["event_engine.fired_per_step"] = (
        values["event_engine.packets_out"] / values["event_engine.timesteps"]
        if values["event_engine.timesteps"] else 0.0)
    values["event_engine.integrated_ratio"] = (
        counter("run.packets_integrated") / packets_in if packets_in else 0.0)

    timed = untraced(rounds)
    plain_round_s = median(calibrated_s(timed, "wall_s"))
    traced_round_s = median(calibrated_s([r for r in rounds if r.get("traced")], "wall_s"))
    round_packets = median(t["counters"].get("run.packets_in", 0) for t in traced)
    values["event_engine.host_us_per_packet"] = (
        plain_round_s / round_packets * 1e6 if round_packets else 0.0)
    values["encoders.packets_per_sample"] = median(r["packets_per_sample"] for r in timed)
    values["evaluator.accuracy"] = median(r.get("accuracy", 0.0) for r in timed)
    values["cli.artifact.bytes"] = median(r.get("artifact_bytes", 0) for r in timed)
    values["trace.overhead_ratio"] = (
        traced_round_s / plain_round_s - 1.0 if plain_round_s else 0.0)

    absent = sorted(name for name, (_, _, spans) in PER_LAYER.items()
                    if spans and all(s in absent_spans for s in spans))
    for name in absent:
        values[name] = 0.0
    return {name: values[name] for name in PER_LAYER}, absent
