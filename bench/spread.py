"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads A,B] [--seeds 1-10] [--seconds S]
                            [--trace 0|1] [--json FILE]

For every workload and metric it prints the median, the quartiles and the
spread (interquartile range over median, from ``statistics.quantiles(n=4)``)
across the seeds, next to the metric's bound from ``BENCHMARK.json``.  Runs
are made one after another, each in its own process.  For ``--trace 0`` it
also gives the spreads of the raw (not speed-normalised) times of the same
runs, and flags runs whose fixed tail percentile had fewer than ten
samples beyond it.  With ``--json`` the
table and the environment are also written to FILE, which is how
``bench/baseline.json`` (``--trace 0``) and ``bench/baseline_trace.json``
(``--trace 1``) are made.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RAW = ("raw_ops_per_s", "raw_op_p50_ms", "raw_op_tail_ms", "raw_setup_s")
RUN_DETAIL = ("speed_vs_nominal", "op_tail_percentile", "op_tail_samples_beyond",
              "op_tail_rule_percentile", "latency_samples") + RAW


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def command(workload: str, seed, seconds: float, trace: int) -> list[str]:
    return ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def git_sha() -> str | None:
    """The checkout's commit, when it is a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result line of one run, and its record file from ``bench/out/``."""
    argv = command(workload, seed, seconds, trace)
    proc = subprocess.run(
        [sys.executable] + argv[1:], cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    record = BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            json.loads(record.read_text(encoding="utf-8")))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the table here")
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    table: dict = {}
    for workload in args.workloads.split(","):
        runs, records = zip(*(run_once(workload, seed, args.seconds, args.trace)
                              for seed in args.seeds))
        rows = {}
        print(f"{workload}: {len(runs)} seeds, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}, "
              f"correct {all(r['correct'] for r in runs)}")
        for metric in metrics:
            row = summarize([r["metrics"][metric["name"]]["value"] for r in runs])
            rows[metric["name"]] = row
            bound = metric.get("bound")
            flag = "" if bound is None or row["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {metric['name']:34s} median {row['median']:12.6g} {metric['unit']:6s} "
                  f"spread {row['spread']:7.4f}" + (f"  bound {bound}" if bound else "") + flag)
        table[workload] = {"command": " ".join(command(workload, "<seed>", args.seconds, args.trace)),
                           "seeds": args.seeds, "attempted": [r["attempted"] for r in runs],
                           "failed": [r["failed"] for r in runs], "metrics": rows}
        if not args.trace:
            raw = {name: summarize([rec[name] for rec in records]) for name in RAW}
            for name, row in raw.items():
                print(f"  {name:34s} median {row['median']:12.6g}        spread {row['spread']:7.4f}")
            thin = [seed for seed, rec in zip(args.seeds, records) if rec["op_tail_samples_beyond"] < 10]
            if thin:
                print(f"  fewer than 10 samples beyond the tail percentile at seeds {thin}")
            table[workload]["raw_metrics"] = raw
            table[workload]["runs"] = [{name: rec[name] for name in RUN_DETAIL} for rec in records]
    if args.json:
        sys.path.insert(0, str(BENCH_DIR))
        from run import environment

        args.json.write_text(json.dumps({
            "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
            "environment": environment(), "workloads": table,
        }, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
