"""conecalc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is used from the
checkout's ``src`` directory, so nothing needs building or installing.
With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``: a closed loop with one caller for S seconds, and the
median of fresh-interpreter setups taken before and after it. With
``--trace 1`` it reports the per-layer metrics from a separate traced run.
Every output is checked; the last stdout line is the JSON result, and a
copy goes to ``.bench_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("zariski_batch", "surface_cones", "ring_eval", "cli_session")
SETUP_SAMPLES = 9  # before the timed phase, and as many again after it
DEADLINE_S = 170  # the whole run, every child process included


class RunError(Exception):
    pass


# a CLI call starts from a bare interpreter that imports conecalc
CLI_SETUP = "import time, conecalc; print(repr(time.monotonic()))"


def _child(argv, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time")
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, cwd=ROOT, env=env, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{argv[1:3]} did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _worker(mode, args, env, deadline):
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), mode, args.workload]
    return _child(argv + [str(args.seed), str(args.seconds)], env, deadline)


def _setup(args, env, deadline):
    if args.workload == "cli_session":
        return _child([sys.executable, "-c", CLI_SETUP], env, deadline)
    return _worker("setup", args, env, deadline)


def _setup_samples(args, env, deadline):
    """Times from spawning a fresh interpreter until its first op could start."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        ready = float(_setup(args, env, deadline))
        samples.append(ready - spawned)
    return samples


def measure(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result = json.loads(_worker("trace", args, env, deadline))
    else:
        _setup(args, env, deadline)  # fills the bytecode cache; not counted
        setup = _setup_samples(args, env, deadline)
        result = json.loads(_worker("run", args, env, deadline))
        setup += _setup_samples(args, env, deadline)
        result["metrics"]["setup_s"] = statistics.median(setup)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "conecalc", "__init__.py")):
        print(f"error: no conecalc sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    try:
        result = measure(args)
    except (RunError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in listed
        if m["name"] in measured
    }
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']!r} {entry['unit']}")
    for text in result["failures"] + result["problems"]:
        print(f"problem: {text}")
    for code, traceback, ok in result.get("defects", []):
        verdict = "meets" if ok else "breaks"
        tail = ", traceback" if traceback else ""
        print(f"known-defect input: exit {code}{tail}, {verdict} the exit-2 contract")
    print(f"golden digests checked: {'yes' if result['golden'] else 'no (other seed)'}")

    line = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as handle:
        json.dump(dict(result, **line), handle, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
