"""Child process of the benchmark: one fresh interpreter per step.

    worker.py generate --workload W --seed N --scale S --work DIR
    worker.py setup    --workload W --seed N --scale S --work DIR
    worker.py measure  --workload W --seed N --scale S --work DIR
                       --seconds T --trace 0|1 --fault F --result FILE
                       --spans FILE

``setup`` prints the seconds from before ``import aersnn`` to a built
engine, and the fastest of two passes of the host-speed reference
loop. ``measure`` runs closed-loop rounds for about T seconds and writes
the raw per-round record to FILE (and, when traced, the spans of the
last traced round to the --spans file). ``run.py`` starts these; they are not
meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("generate", "setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="paper")
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--fault", default="none")
    parser.add_argument("--result")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    return parser.parse_args(argv)


def measure(args, workload) -> dict:
    import numpy as np

    import metrics
    from calibrate import reference_seconds
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        setup_sid = tracer.open_span("round")
    workload.setup()
    if tracer:
        tracer.close_span(setup_sid)
        setup_trace = tracer.take()
        tracer.uninstall()
    oracle = workload.oracle_check(args.fault)
    workload.install_recorders()

    rounds = []
    traced_rounds = []
    spent = 0.0
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        ref_s = reference_seconds()
        if traced:
            tracer.install()
            sid = tracer.open_span("round")
        started = time.perf_counter()
        try:
            record = workload.run_round(args.fault)
        except Exception as exc:  # a program failure is counted, not fatal
            record = {"attempted": workload.attempted_per_round,
                      "failed": workload.attempted_per_round,
                      "error": f"{type(exc).__name__}: {exc}"}
        wall = time.perf_counter() - started
        if traced:
            tracer.close_span(sid)
            traced_rounds.append(tracer.take())
            tracer.uninstall()
        record.update(wall_s=wall, traced=traced, ref_s=ref_s)
        rounds.append(record)
        spent += wall + ref_s
        typical = statistics.median(r["wall_s"] + r["ref_s"] for r in rounds)
        enough = len(rounds) >= 2 and (not tracer or traced_rounds)
        if enough and spent + typical > args.seconds:
            break
        if record.get("error"):
            break
    if args.fault == "digest" and len(rounds) > 1 and "digests" in rounds[-1]:
        first = next(iter(rounds[-1]["digests"]))
        rounds[-1]["digests"][first] = "0" * 64

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "config_hash": workload.config_hash,
        "input": workload.input_stats(),
        "oracle": oracle,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer:
        result["layers"], result["absent"] = metrics.per_layer(
            setup_trace, traced_rounds, rounds, tracer.absent_spans)
        result["absent_bindings"] = tracer.absent_bindings
        tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(args.work)
    started = time.perf_counter()
    import workloads  # imports aersnn: part of the timed set-up

    workload = workloads.make(args.workload, args.scale, args.seed)
    if args.mode == "generate":
        os.makedirs("inputs", exist_ok=True)
        workload.generate()
        return 0
    if args.mode == "setup":
        workload.setup()
        setup_s = time.perf_counter() - started
        from calibrate import reference_seconds

        ref_s = min(reference_seconds() for _ in range(2))
        print(json.dumps({"setup_s": setup_s, "ref_s": ref_s}))
        return 0
    result = measure(args, workload)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
