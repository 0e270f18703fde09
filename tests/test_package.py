"""The package's public names, its value records, and what one CLI call imports."""

import copy
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import conecalc
from conecalc.bundles import HNCurveBundle, SurfaceBundleData
from conecalc.catalog import ConeReport, miyaoka_cones
from conecalc.cones import Pairing
from conecalc.ring import NumClass, SpacePreset, build_fibre_product_ring
from conecalc.zariski import (
    ReductionStep,
    VerifyResult,
    ZariskiCertificate,
    decompose,
    reduce_step,
)

ROOT = Path(__file__).resolve().parents[1]
FIBRE_WS = str(ROOT / "bench" / "workspaces" / "fibre.json")
CURVE_WS = str(ROOT / "bench" / "workspaces" / "curve.json")
RHO1_WS = str(ROOT / "bench" / "workspaces" / "rho1.json")
BAD_JSON_WS = str(ROOT / "bench" / "workspaces" / "bad_json.json")

# public names deleted because nothing but their own tests used them
REMOVED = ("extremal_ray_decompositions", "sym_twist_c1")


def test_every_export_imports():
    for name in conecalc.__all__:
        namespace = {}
        exec(f"from conecalc import {name}", namespace)
        assert namespace[name] is getattr(conecalc, name)
    assert not set(REMOVED) & set(conecalc.__all__)


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name",) + REMOVED:
        with pytest.raises(AttributeError, match=name):
            getattr(conecalc, name)
    # an unknown name falls through to the submodule import
    from conecalc import selftest

    assert selftest.__name__ == "conecalc.selftest"


def _load_tracing():
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    """Each traced callable exists where the benchmark's tracer looks: a
    method in its class's own namespace, anything else in its module. The
    tracer skips a missing one, and its metrics then drop out of the run."""
    missing = []
    for _, modname, label in _load_tracing().TARGETS:
        module = importlib.import_module(f"conecalc.{modname}")
        owner, _, attr = label.rpartition(".")
        found = attr in vars(getattr(module, owner, object)) if owner else hasattr(module, label)
        if not found:
            missing.append(f"{modname}.{label}")
    assert not missing, (
        f"trace targets gone from the package: {missing}; BENCHMARK.json names their "
        "metrics, so they leave only with those metrics (ROADMAP item 4)"
    )


# one factory per record class; each call builds a new, equal instance
RECORDS = {
    HNCurveBundle: lambda: HNCurveBundle(3, 4, [(1, 0), (2, 4)]),
    SurfaceBundleData: lambda: SurfaceBundleData(2, (1,), Fraction(1, 4), True),
    Pairing: lambda: Pairing(((1, 0), (0, 2))),
    SpacePreset: lambda: SpacePreset.fibre_product(2, 3, 0, 1),
    NumClass: lambda: build_fibre_product_ring(2, 3, 0, 1).normal_form("xi - 2*F"),
    ConeReport: lambda: miyaoka_cones(HNCurveBundle(3, 4, [(1, 0), (2, 4)])),
    ReductionStep: lambda: reduce_step(HNCurveBundle(4, 0, [(1, -3), (3, 3)]), (1, 1, 1)),
    ZariskiCertificate: lambda: decompose(
        HNCurveBundle(3, 4, [(1, 0), (2, 4)]), HNCurveBundle(2, 0), (1, 1, 5)
    ),
    VerifyResult: lambda: VerifyResult(False, ("P not nef",)),
}
# records holding a dict or a cone
UNHASHABLE = (NumClass, ConeReport, ZariskiCertificate)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_frozen_values(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and a != object()
    assert copy.copy(a) == a
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls.__slots__)
    assert repr(a) == f"{cls.__name__}({fields})"
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(a, cls.__slots__[0], None)
    with pytest.raises(AttributeError):
        a.extra = 1


# how many trailing fields have a default; every other record takes them all
DEFAULTED = {HNCurveBundle: 2, SpacePreset: 9}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_constructors_check_the_field_count(cls):
    record = RECORDS[cls]()
    values = tuple(getattr(record, name) for name in cls.__slots__)
    assert cls(*values) == record
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[: len(values) - DEFAULTED.get(cls, 0) - 1])


def test_record_repr_and_equality_examples():
    assert repr(HNCurveBundle(2, 0)) == (
        "HNCurveBundle(rank=2, degree=0, quotients=((2, 0),), name='E')"
    )
    assert repr(VerifyResult(True, ())) == "VerifyResult(ok=True, reasons=())"
    # every field takes part, the display name included
    assert HNCurveBundle(2, 0) != HNCurveBundle(2, 0, name="F")
    assert SpacePreset.curve(2, 0) != SpacePreset.curve(2, 1)


def _added_modules(argv):
    """Modules a fresh interpreter adds to its own start-up set (which a .pth
    file may extend) while it runs ``conecalc.cli.main(argv)``."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import conecalc.cli\n"
        f"conecalc.cli.main({argv!r})\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_call_imports_only_what_its_command_needs():
    seen = []

    def added_modules(argv):
        seen.append(_added_modules(argv))
        return seen[-1]

    added = added_modules(["-w", FIBRE_WS, "cone", "nef"])
    assert {"conecalc.cli", "conecalc.catalog"} <= added
    assert not {"dataclasses", "inspect", "conecalc.zariski", "conecalc.selftest"} & added
    added = added_modules(["-w", FIBRE_WS, "ring", "eval", "xi*zeta"])
    assert "conecalc.ring" in added and "conecalc.catalog" not in added
    # presets and classes need no rewriting engine: curve-side cones and
    # membership, decompositions and invalid workspaces never load the ring
    for argv in (
        ["-w", FIBRE_WS, "cone", "nef"],
        ["-w", CURVE_WS, "member", "1,-5"],
        ["-w", FIBRE_WS, "zariski", "1,1,0"],
    ):
        assert "conecalc.ring" not in added_modules(argv)
    added = added_modules(["-w", BAD_JSON_WS, "cone", "psef"])
    assert not {"conecalc.ring", "conecalc.catalog"} & added
    # first-principles surface cones in codimension 2 do
    assert "conecalc.ring" in added_modules(["-w", RHO1_WS, "cone", "nef", "--k", "2"])
    # argv is read without argparse, and so without the gettext it loads,
    # also where argv itself is the error or asks for help
    added_modules(["--json", "-w"])
    added_modules(["-h"])
    assert not any({"argparse", "gettext"} & added for added in seen)
