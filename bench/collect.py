"""Run the benchmark over several seeds and summarise it.

    python3 bench/collect.py --seeds 1-10 [--traced] [--out bench/results/FILE.json]

For each workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread of a third of the bound or
more is flagged: such a metric cannot resolve a change of its bound.
``--traced`` adds one traced run per workload at the first seed. ``--out``
writes every value, the summary and the machine to a JSON file, the form
in which results are recorded under ``bench/results/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = run_once(name, seed, spec["run_seconds"], 0)
            runs[name].append(dict(result, seed=seed))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    summary = {}
    for name in names:
        summary[name] = {}
        print(f"\n{name}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            stats = summarise(values, metric["bound"])
            summary[name][metric["name"]] = stats
            flag = "" if stats["steady"] else "   <-- spread >= bound/3"
            print(f"  {metric['name']:12} median {stats['median']:12.4f} {metric['unit']:5} "
                  f"spread {stats['spread']:.4f} (bound {metric['bound']}){flag}")

    traced = {}
    if args.traced:
        for name in names:
            result = run_once(name, seeds[0], spec["run_seconds"], 1)
            traced[name] = {m: v["value"] for m, v in result["metrics"].items()}
            traced[name]["correct"] = result["correct"]

    if args.out:
        record = {
            "machine": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "runs": {n: [{"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"]} for r in runs[n]] for n in names},
            "summary": summary,
            "traced_seed": seeds[0] if args.traced else None,
            "traced": traced,
        }
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
