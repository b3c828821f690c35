"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 30 --out perfbench/results/set_a.json
    python3 perfbench/repeat.py --seeds 11-20 --out set_b.json --compare set_a.json

For each workload and end-to-end metric it reports the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, against the metric's bound from
``BENCHMARK.json``. With ``--compare`` it also reports how much worse each
median is than the one in an earlier result file. Each run is a separate
``run.py`` invocation, one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = ROOT / ".perfbench_work" / f"repeat-{workload}-{seed}.json"
    out.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text(encoding="utf-8"))[0]
    out.unlink()
    keep = ("config_hash", "input", "oracle", "problems", "setup_probes", "git_sha",
            "host_cores", "python", "numpy", "absent")
    digests = next((r["digests"] for r in record["rounds"] if "digests" in r), {})
    return {"seed": seed, "exit_code": proc.returncode, **last, "digests": digests,
            "rounds": len(record["rounds"]), **{k: record.get(k) for k in keep}}


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        p90 = statistics.quantiles(values, n=10)[-1] if len(values) > 1 else med
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "n": len(values),
                         "median": med, "q1": q1, "q3": q3, "p90": p90,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "bound": bounds[name],
                         "git_sha": runs[0]["git_sha"], "config_hash": runs[0]["config_hash"],
                         "host_cores": runs[0]["host_cores"]}
    return summary


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old`` as a share of ``old``."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path, help="an earlier result file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None
    result = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, args.seconds)
            runs.append(run)
            ok &= run["exit_code"] == 0 and run["correct"]
            print(f"{workload} seed {seed} exit {run['exit_code']} correct {run['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()),
                  flush=True)
        summary = summarise(runs, bounds)
        result["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            line = (f"{workload:13s} {name:24s} median {s['median']:.4g} {s['unit']} "
                    f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f} "
                    f"bound {s['bound']} (third {s['bound'] / 3:.3f})")
            if earlier and workload in earlier["workloads"]:
                old = earlier["workloads"][workload]["summary"][name]["median"]
                line += f" worse_than_earlier {worse_by(s['median'], old, better[name]):+.3f}"
            print(line, flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
