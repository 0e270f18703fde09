"""Checks of the benchmark itself.

    python3 bench/selfcheck.py

1. The default seed gives the same inputs and the same output digests when
   built and run twice, and the digests equal the recorded golden ones.
2. The held-out seed gives different inputs.
3. A short untraced and a short traced run of every workload print a
   correct result naming every metric of BENCHMARK.json with its unit.
4. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def _output_digests(wl, cases):
    run = wl.run_in_process if wl.name == "cli_session" else wl.run
    return [workloads.digest(wl.canonical(case, run(case))) for case in cases]


def check_determinism(problems):
    for name, make in workloads.WORKLOADS.items():
        first, second = make(), make()
        cases_a = first.cases(workloads.DEFAULT_SEED)
        cases_b = second.cases(workloads.DEFAULT_SEED)
        inputs = workloads.inputs_digest(first, cases_a)
        if inputs != workloads.inputs_digest(second, cases_b):
            problems.append(f"{name}: the default seed gave different inputs twice")
        outputs = _output_digests(first, cases_a)
        if outputs != _output_digests(second, cases_b):
            problems.append(f"{name}: the default seed gave different outputs twice")
        golden = workloads.load_golden(name, workloads.DEFAULT_SEED)
        if golden is None:
            problems.append(f"{name}: no golden digests for the default seed")
        elif golden["inputs"] != inputs or golden["outputs"] != outputs:
            problems.append(f"{name}: inputs or outputs differ from the golden digests")
        held_out = make()
        if workloads.inputs_digest(held_out, held_out.cases(workloads.HELD_OUT_SEED)) == inputs:
            problems.append(f"{name}: the held-out seed gave the default seed's inputs")
        print(f"{name}: {len(cases_a)} cases, inputs {inputs}", flush=True)


def _run(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed"]
    argv += [str(workloads.HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=300)


def check_metrics(problems):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for name in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(ROOT, name, trace)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(line) != ["attempted", "correct", "failed", "metrics"] or not line["correct"]:
                problems.append(f"{label}: result line {sorted(line)}, correct={line.get('correct')}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ: {sorted(set(want) ^ set(got))}")
            lines = proc.stdout.splitlines()
            unprinted = [
                k for k, unit in want.items()
                if not any(t.startswith(f"{k}: ") and t.endswith(f" {unit}") for t in lines)
            ]
            if unprinted:
                problems.append(f"{label}: not printed with a unit: {unprinted}")
            print(f"{label}: {len(got)} metrics", flush=True)


def check_bare_directory(problems):
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "zariski_batch", 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("the benchmark ran without the program's sources")
    shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}", flush=True)


def main():
    problems = []
    check_determinism(problems)
    check_metrics(problems)
    check_bare_directory(problems)
    for text in problems:
        print(f"FAIL {text}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
