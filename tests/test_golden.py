"""Golden outputs: every benchmark workload's seed-1 inputs and outputs hash
to the digests recorded in bench/golden/.

The workloads module is loaded from bench/ as it is, so these tests see the
same cases and canonical output texts as the benchmark. A digest that moves
means some report, certificate or normal form changed its bytes.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_workloads():
    path = os.path.join(ROOT, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_digests(name, monkeypatch):
    wl = workloads.WORKLOADS[name]()
    golden = workloads.load_golden(name, workloads.DEFAULT_SEED)
    assert golden is not None, f"no seed-{workloads.DEFAULT_SEED} golden record for {name}"
    cases = wl.cases(workloads.DEFAULT_SEED)
    assert workloads.inputs_digest(wl, cases) == golden["inputs"]
    # CLI calls go through conecalc.cli.main in this process; the workspace
    # paths are relative to the repository root
    monkeypatch.chdir(ROOT)
    run = getattr(wl, "run_in_process", wl.run)
    outputs = [workloads.digest(wl.canonical(case, run(case))) for case in cases]
    moved = [i for i, (got, want) in enumerate(zip(outputs, golden["outputs"])) if got != want]
    assert len(outputs) == len(golden["outputs"])
    assert not moved, f"{len(moved)} of {len(outputs)} outputs moved; first at case {moved[0]}"
