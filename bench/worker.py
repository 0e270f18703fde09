"""One benchmark process: set a workload up, then time it or trace it.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS

MODE is one of

* ``setup``: build the workload's inputs as a timed run does, print the
  ready time on the system-wide monotonic clock, exit. ``run.py`` takes
  setup time from these.
* ``run``: closed loop, one caller: cycle through the cases for SECONDS
  (at least ``MIN_OPS`` ops), timing each op alone. Checks and digests run
  between ops, outside the timed intervals.
* ``trace``: the per-layer run (selftest checks, a pass of fresh-process
  CLI calls, then untraced and traced passes over the cases).
* ``golden``: run every case once, check it, and record the digests of the
  outputs for this seed.

``run``, ``trace`` and ``golden`` print one JSON object as the last line.
Needs ``PYTHONPATH`` to point at the checkout's ``src``.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

import conecalc
import tracing
import workloads
from conecalc import selftest

MIN_OPS = 110  # so that at least ten samples lie beyond the 90th percentile
TRACE_ROUNDS = 3
OUT_DIR = os.path.join(workloads.ROOT, ".bench_out")


class Checker:
    """Checks every output: the first output of a case against the
    workload's own check and the golden digest, repeats against the first.
    Every op whose output is wrong counts as failed, repeats included."""

    def __init__(self, wl, cases, seed):
        self.wl = wl
        self.cases = cases
        self.first = {}
        self.failures = []
        self.golden = workloads.load_golden(wl.name, seed)
        self.problems = []
        prepare = getattr(wl, "prepare_checks", None)
        if prepare is not None:
            prepare(cases)
        if self.golden is not None and self.golden["inputs"] != workloads.inputs_digest(wl, cases):
            self.problems.append("inputs differ from the ones the golden digests were taken of")

    def __call__(self, index, out, error):
        case_index = index % len(self.cases)
        if error is None:
            try:
                text_digest = workloads.digest(self.wl.canonical(self.cases[case_index], out))
                if case_index in self.first:
                    # a repeat of a wrong output is as wrong as the first one
                    first_digest, error = self.first[case_index]
                    if first_digest != text_digest:
                        error = "output drifted between repeats of the same input"
                else:
                    error = self.wl.check(self.cases[case_index], out)
                    golden = self.golden["outputs"] if self.golden else None
                    if error is None and golden and golden[case_index] != text_digest:
                        error = "output differs from the golden digest"
                    self.first[case_index] = (text_digest, error)
            except Exception as exc:  # a broken output must count, not abort
                error = f"check raised {exc!r}"
        if error is not None:
            self.failures.append(f"case {case_index}: {error}")

    def result(self, attempted, metrics):
        return {
            "attempted": attempted,
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "golden": self.golden is not None,
            "problems": self.problems,
            "metrics": metrics,
        }


def _call(fn, case):
    try:
        return fn(case), None
    except Exception as exc:  # counted as a failed op
        return None, f"raised {exc!r}"


def timed_run(wl, cases, seed, seconds):
    check = Checker(wl, cases, seed)
    latencies = array("d")
    clock = time.perf_counter
    deadline = clock() + seconds
    index = 0
    while index < MIN_OPS or clock() < deadline:
        case = cases[index % len(cases)]
        start = clock()
        out, error = _call(wl.run, case)
        latencies.append(clock() - start)
        check(index, out, error)
        index += 1
    # cli_session ops run in child processes; ru_maxrss of children is the largest
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_session" else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": index / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    result = check.result(index, metrics)
    if wl.name == "cli_session":
        result["defects"] = workloads.defect_probes()
    return result


def _cli_layer(seed):
    """Fresh-process CLI calls, untraced: per-command latency and exit codes."""
    session = workloads.CliSession()
    cases = session.cases(seed)
    check = Checker(session, cases, seed)
    by_group = {g: [] for g in workloads.GROUPS}
    exits = {0: 0, 1: 0, 2: 0, 3: 0}
    tracebacks = 0
    for index, case in enumerate(cases):
        start = time.perf_counter()
        out, error = _call(session.run, case)
        by_group[case["group"]].append(time.perf_counter() - start)
        check(index, out, error)
        if out is not None:
            exits[out[0]] = exits.get(out[0], 0) + 1
            tracebacks += "Traceback" in out[2]
    defects = workloads.defect_probes()
    for code, traceback, _ in defects:
        exits[code] = exits.get(code, 0) + 1
        tracebacks += traceback
    metrics = {f"cli.{g}.p50_ms": statistics.median(v) * 1e3 for g, v in by_group.items() if v}
    metrics.update({f"cli.exit.{code}": count for code, count in exits.items()})
    metrics["cli.traceback"] = tracebacks
    metrics["cli.contract_violations"] = sum(not ok for _, _, ok in defects)
    for name, code in (("bare_python", "pass"), ("import", "import conecalc")):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=workloads.ROOT)
            samples.append(time.perf_counter() - start)
        metrics[f"cli.{name}_ms"] = statistics.median(samples) * 1e3
    return metrics, check.failures + check.problems


def traced_run(wl, cases, seed, seconds):
    metrics = {}
    problems = []
    for index, (name, _, _) in enumerate(selftest.CHECKS):
        start = time.perf_counter()
        _, ok, detail = selftest.run_check(index)
        metrics[f"selftest.{name.replace(' ', '_')}.s"] = time.perf_counter() - start
        if not ok:
            problems.append(f"selftest {name}: {detail}")

    cli_metrics, cli_problems = _cli_layer(seed)
    metrics.update(cli_metrics)
    problems += [f"cli pass: {text}" for text in cli_problems[:5]]

    # cli_session ops go in process here, through conecalc.cli.main
    run = wl.run_in_process if wl.name == "cli_session" else wl.run
    check = Checker(wl, cases, seed)
    plain = [_call(run, case) for case in cases]  # also the warm-up
    for index, (out, error) in enumerate(plain):
        check(index, out, error)

    # alternate untraced and traced passes; the overhead compares their sums
    untraced_s = traced_s = 0.0
    for _ in range(TRACE_ROUNDS):
        start = time.perf_counter()
        for case in cases:
            _call(run, case)
        untraced_s += time.perf_counter() - start
        tracer = tracing.Tracer()
        tracer.install()
        traced = []
        start = time.perf_counter()
        try:
            for index, case in enumerate(cases):
                tracer.op = index
                traced.append(_call(run, case))
        finally:
            traced_s += time.perf_counter() - start
            tracer.uninstall()
    for (out, error), (out0, error0), case in zip(traced, plain, cases):
        if (error is None) != (error0 is None) or (
            error is None and wl.canonical(case, out) != wl.canonical(case, out0)
        ):
            problems.append("traced output differs from the untraced one")
            break

    metrics.update(tracer.metrics(len(cases)))
    metrics["bench.trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics["bench.failed_frac"] = len(check.failures) / len(cases)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl"))
    check.problems += problems
    return check.result(len(cases), metrics)


def record_golden(wl, cases, seed, seconds):
    outputs = []
    failures = []
    for index, case in enumerate(cases):
        out = wl.run(case)
        error = wl.check(case, out)
        if error:
            failures.append(f"case {index}: {error}")
        outputs.append(workloads.digest(wl.canonical(case, out)))
    if failures:
        return {"written": False, "failures": failures[:5]}
    record = {"seed": seed, "inputs": workloads.inputs_digest(wl, cases), "outputs": outputs}
    path = workloads.golden_path(wl.name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=0)
        handle.write("\n")
    return {"written": True, "cases": len(cases), "path": os.path.relpath(path, workloads.ROOT)}


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    wl = workloads.WORKLOADS[workload]()
    cases = wl.cases(seed)
    if mode == "setup":
        print(repr(time.monotonic()), flush=True)
        return 0
    src = os.path.join(workloads.ROOT, "src")
    if not os.path.abspath(conecalc.__file__).startswith(src + os.sep):
        raise SystemExit(f"conecalc imported from {conecalc.__file__}, not from {src}")
    modes = {"run": timed_run, "trace": traced_run, "golden": record_golden}
    print(json.dumps(modes[mode](wl, cases, seed, seconds), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
