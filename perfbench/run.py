"""Benchmark of the aersnn processor model.

    python3 perfbench/run.py --workload digits_float --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in fresh single-threaded processes (OMP, OpenBLAS and
MKL pinned to one thread): one generates the inputs from ``--seed``,
several measure set-up, and one runs closed-loop rounds for about
``--seconds`` seconds. The load is one process with no extra threads;
samples and commands run one after another, as the program runs them.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics, including the tracing overhead between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every correctness gate passed: bit-identity with the dense
oracle (digits_float), identical output digests across the rounds of one
invocation, agreement of the three packet counts (trace_replay) and no
failed sample or command. Without the program's sources next to this
directory it exits 2 without printing a result.

All times are host wall-clock time on a shared host; no hardware counters
are read. Simulated statistics (packets, spikes, accuracy) are
deterministic for a seed and are reported as counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("digits_float", "ecg_fixed", "trace_replay")
SETUP_REPEATS = 4  # before and again after the measuring process
DEADLINE_S = 170.0
LIMITS = ("host wall-clock time only; no hardware counters; shared host, so "
          "timings include interference from other tenants")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="tiny is for the harness self-test only")
    parser.add_argument("--fault", choices=("none", "digest", "oracle", "packets"),
                        default="none",
                        help="corrupt one checked value to prove the gate trips")
    parser.add_argument("--out", type=Path, help="write the full record here as JSON")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


class Failure(Exception):
    pass


def worker(mode: str, args, workload: str, work: Path, deadline: float,
           *extra: str) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(args.seed), "--scale", args.scale, "--work", str(work), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Failure(f"{mode}: out of time")
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Failure(f"{mode}: timed out") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise Failure(f"{mode} exited {proc.returncode}: {tail[0]}")
    return proc.stdout


def gates(record: dict) -> list[str]:
    """Every correctness check that failed, as one line each."""
    problems = []
    rounds = record["rounds"]
    for r in rounds:
        if r.get("failed"):
            problems.append(f"round failed: {r.get('error', 'no detail')}")
    oracle = record["oracle"]
    if oracle.get("ran") and not oracle["ok"]:
        problems.extend(f"oracle: {m}" for m in oracle["mismatches"])
    digests = [r["digests"] for r in rounds if "digests" in r]
    for key in (digests[0] if digests else {}):
        if len({d[key] for d in digests}) != 1:
            problems.append(f"digest {key} differs between rounds")
    for r in rounds:
        if "packet_counts_agree" in r and not r["packet_counts_agree"]:
            problems.append(f"packet counts disagree: {r['packet_counts']}")
    if not metrics.untraced(rounds):
        problems.append("no successful untraced round")
    return problems


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        worker("generate", args, workload, work, deadline)
        setup_probes = []

        def probe_setup():
            for _ in range(SETUP_REPEATS):
                out = worker("setup", args, workload, work, deadline)
                setup_probes.append(json.loads(out.strip().splitlines()[-1]))

        if not args.trace:
            worker("setup", args, workload, work, deadline)  # fills caches
            probe_setup()
        result_file = work / "result.json"
        spans = WORK / f"spans-{workload}-{args.seed}.npz"
        worker("measure", args, workload, work, deadline, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--fault", args.fault,
               "--result", str(result_file), "--spans", str(spans))
        record = json.loads(result_file.read_text(encoding="utf-8"))
        if not args.trace:
            probe_setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["setup_probes"] = setup_probes
    if args.trace:
        record["spans_file"] = str(spans.relative_to(ROOT))
    timed = metrics.untraced(record["rounds"])
    if timed:
        record["input"]["packets_per_sample"] = timed[0]["packets_per_sample"]
    record["problems"] = gates(record)
    record["attempted"] = sum(r["attempted"] for r in record["rounds"])
    record["failed"] = sum(r.get("failed", 0) for r in record["rounds"])
    if args.trace:
        record["metrics"] = {name: {"value": value, "unit": metrics.PER_LAYER[name][0]}
                             for name, value in record["layers"].items()}
    else:
        values = metrics.end_to_end(record["rounds"], setup_probes, record["peak_rss_mb"])
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        record["metrics"] = {name: {"value": values[name], "unit": units[name]}
                             for name in units}
    return record


# What each workload's generic throughputs are, under the names of the
# stages they time.
STAGE_NAMES = {
    "digits_float": {"ingest_samples_per_s": "train_samples_per_s",
                     "eval_samples_per_s": "label+eval samples/s"},
    "ecg_fixed": {"ingest_samples_per_s": "train_samples_per_s",
                  "eval_samples_per_s": "label+eval samples/s"},
    "trace_replay": {"ingest_samples_per_s": "aersnn encode samples/s",
                     "eval_samples_per_s": "aersnn eval replay samples/s"},
}


def details(record: dict) -> list[tuple[str, float, str]]:
    """Figures the metric lines do not already give, for the human-readable
    report: the failure ratio, accuracy, the replay stages in packets per
    second, the raw (uncalibrated) throughputs and the host slowdown."""
    timed = metrics.untraced(record["rounds"])
    attempted = record["attempted"]
    rows = [("failed_ratio", record["failed"] / attempted if attempted else 0.0, "fraction")]
    if not timed:
        return rows
    if record["workload"] == "trace_replay":
        rows.append(("encode_packets_per_s",
                     metrics.calibrated(timed, "packets", "ingest_s"), "packets/s"))
        rows.append(("replay_packets_per_s",
                     metrics.calibrated(timed, "packets", "eval_s"), "packets/s"))
    else:
        rows.append(("accuracy", timed[0]["accuracy"], "fraction"))
    rows.append(("ingest_samples_per_s_raw",
                 metrics.raw(timed, "ingest_samples", "ingest_s"), "samples/s"))
    rows.append(("eval_samples_per_s_raw",
                 metrics.raw(timed, "eval_samples", "eval_s"), "samples/s"))
    rows.append(("host_scale", metrics.host_scale(timed), "ratio"))
    return rows


def report(record: dict) -> None:
    timed = metrics.untraced(record["rounds"])
    print(f"workload {record['workload']} seed {record['seed']} "
          f"config_hash {record['config_hash']}")
    print("input " + json.dumps(record["input"], sort_keys=True))
    print(f"host cores {os.cpu_count()} python {record['python']} numpy {record['numpy']} "
          f"git {record['git_sha']}")
    print(f"limits {LIMITS}")
    walls = [r["wall_s"] for r in timed]
    print(f"rounds {len(record['rounds'])} ({sum(r['traced'] for r in record['rounds'])} traced)"
          + (f" untraced round_s fastest {min(walls):.3f} median {metrics.median(walls):.3f}"
             if walls else ""))
    oracle = record["oracle"]
    if oracle.get("ran"):
        print(f"oracle dense_simulate on {oracle['samples']} samples: "
              f"{'bit-identical' if oracle['ok'] else 'MISMATCH'}")
    else:
        print(f"oracle none: {oracle['note']}")
    for key, value in sorted((timed[0].get("digests") if timed else {}).items()):
        print(f"digest {key} {value}")
    if record.get("absent"):
        print("absent " + " ".join(record["absent"]))
    stage_names = STAGE_NAMES[record["workload"]]
    for name, entry in record["metrics"].items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}"
              + (f" ({stage_names[name]})" if name in stage_names else ""))
    if not record.get("layers"):
        for name, value, unit in details(record):
            print(f"detail {name} {value:.6g} {unit}")
    for problem in record["problems"]:
        print(f"GATE FAILED {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aersnn" / "__init__.py").is_file():
        print(f"error: the aersnn sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    sha = git_sha()
    records = []
    for name in names:
        try:
            record = run_workload(args, name)
        except Failure as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        record.update(git_sha=sha, host_cores=os.cpu_count(),
                      platform=platform.platform(), limits=LIMITS)
        report(record)
        records.append(record)
    if args.out:
        args.out.write_text(json.dumps(records, indent=1, sort_keys=True), encoding="utf-8")
    correct = all(not r["problems"] for r in records)
    if len(records) == 1:
        merged = records[0]["metrics"]
    else:
        merged = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": merged}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
