"""Command-line front end.

A workspace JSON file names the base, the bundles, and the selected total
space; subcommands then evaluate ring expressions, print cones, test
membership, decompose classes, check k-homogeneity, or run the built-in
selftest. Exit codes: 0 success, 1 negative answer to a yes/no question,
2 invalid input, 3 internal invariant violation.
"""

import argparse
import io
import json
import re
import sys
from time import perf_counter

from .bundles import HNCurveBundle, SurfaceBundleData
from .errors import InputError, InternalError
from .rationals import format_rational, parse_rational
from .ring import SpacePreset, _KINDS

# The cone, zariski and selftest layers are imported inside the commands that
# use them, so that one call loads only what its command needs.


# Largest bundle rank a workspace may give. The cost of a surface cone report
# grows with rank; the worst cone or homog call at this rank takes about
# 30 ms in-process (2-CPU Xeon, Python 3.11), and about 55 ms at rank 32.
MAX_RANK = 24


class WorkspaceSpec:
    """Validated workspace: base kind, named bundles, selected space.

    ``factors`` is the tuple of bundle objects the selected space is built
    from: one for a projectivized bundle, two for a fibre product.
    ``preset`` is the matching ring preset, whose kind tells the two apart.
    ``classes`` maps optional names to coordinate tuples.
    """

    def __init__(self, base_kind, bundles, factors, preset, classes):
        self.base_kind = base_kind
        self.bundles = dict(bundles)
        self.factors = tuple(factors)
        self.preset = preset
        self.classes = dict(classes)


def _fail(path, message):
    raise InputError(f"{path}: {message}")


def _rescope(path, exc):
    return InputError(f"{path}: {exc}", reasons=exc.reasons)


def parse_workspace(data):
    """Parse and validate workspace JSON given as bytes or str."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            raise InputError("workspace: file is not UTF-8") from None
    try:
        obj = json.loads(data)
    except ValueError as err:  # JSONDecodeError, or an integer too long to convert
        raise InputError(f"workspace: not valid JSON ({err})") from None
    if not isinstance(obj, dict):
        _fail("workspace", "top level must be an object")

    base = obj.get("base")
    if not isinstance(base, dict):
        _fail("base", "missing or not an object")
    base_kind = base.get("kind")
    # the kind record of a surface base; None over a curve
    surface = None
    if base_kind != "curve":
        surface = next(
            (s for s in _KINDS.values() if s.base is not None and s.base == base_kind), None
        )
        if surface is None:
            _fail("base.kind", f"unknown base kind {base_kind!r}")
        path = f"base.{surface.param}"
        try:
            param = parse_rational(base[surface.param])
        except KeyError:
            _fail(path, "missing")
        except InputError as err:
            raise _rescope(path, err) from None
        if surface.positive and param <= 0:
            _fail(path, "must be positive")

    records = obj.get("bundles")
    if not isinstance(records, list) or not records:
        _fail("bundles", "missing or empty list")
    bundles = {}
    for i, record in enumerate(records):
        path = f"bundles[{i}]"
        if not isinstance(record, dict):
            _fail(path, "must be an object")
        name = record.get("name")
        if not isinstance(name, str) or not name:
            _fail(f"{path}.name", "missing bundle name")
        if name in bundles:
            _fail(f"{path}.name", f"duplicate bundle name {name!r}")
        try:
            if surface is None:
                bundles[name] = HNCurveBundle.from_json(record)
            else:
                want = len(surface.divisors)
                c1 = record.get("c1", ())
                if not isinstance(c1, list) or len(c1) != want:
                    _fail(f"{path}.c1", f"needs {want} coordinate(s) for this base")
                bundles[name] = SurfaceBundleData.from_json(record)
        except InputError as err:
            raise _rescope(path, err) from None
        if bundles[name].rank > MAX_RANK:
            _fail(f"{path}.rank", f"rank {bundles[name].rank} is above the limit of {MAX_RANK}")

    space = obj.get("space")
    if not isinstance(space, dict):
        _fail("space", "missing or not an object")
    space_kind = space.get("kind")

    def resolve(path, name):
        if not isinstance(name, str) or name not in bundles:
            _fail(path, f"unknown bundle {name!r}")
        return bundles[name]

    if space_kind == "proj_bundle":
        bundle = resolve("space.bundle", space.get("bundle"))
        try:
            if surface is None:
                preset = SpacePreset.curve(bundle.rank, bundle.degree)
            elif not bundle.semistable:
                _fail("space.bundle", "surface presets need a semistable bundle")
            else:
                preset = surface.from_base(bundle.rank, param, bundle.c1, bundle.c2)
        except InputError as err:
            raise _rescope("space", err) from None
        factors = (bundle,)
    elif space_kind == "fibre_product":
        if surface is not None:
            _fail("space", "fibre products are supported over curve bases only")
        names = space.get("factors")
        if not isinstance(names, list) or len(names) != 2:
            _fail("space.factors", "needs exactly two bundle names")
        first = resolve("space.factors[0]", names[0])
        second = resolve("space.factors[1]", names[1])
        try:
            preset = SpacePreset.fibre_product(
                first.rank, second.rank, first.degree, second.degree
            )
        except InputError as err:
            raise _rescope("space", err) from None
        factors = (first, second)
    else:
        _fail("space.kind", f"unknown space kind {space_kind!r}")

    classes = {}
    payload = obj.get("classes", {})
    if not isinstance(payload, dict):
        _fail("classes", "must map names to coordinate lists")
    for name, coords in payload.items():
        path = f"classes[{name!r}]"
        if not isinstance(coords, list):
            _fail(path, "must be a list of rationals")
        try:
            classes[name] = tuple(parse_rational(x) for x in coords)
        except InputError as err:
            raise _rescope(path, err) from None

    return WorkspaceSpec(base_kind, bundles, factors, preset, classes)


# ---------------------------------------------------------------------------
# command plumbing


def _split_flags(tokens, allowed):
    positional = []
    flags = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.startswith("--"):
            name, eq, value = token[2:].partition("=")
            if name not in allowed:
                raise InputError(f"unknown flag --{name}")
            if not eq:
                i += 1
                if i >= len(tokens):
                    raise InputError(f"flag --{name} needs a value")
                value = tokens[i]
            flags[name] = value
        else:
            positional.append(token)
        i += 1
    return positional, flags


def _parse_k(flags, default=1):
    raw = flags.get("k")
    if raw is None:
        return default
    # ASCII digits only: int() would also take "0_2", " +2" or other scripts' digits
    if not re.fullmatch(r"[+-]?[0-9]+", raw):
        raise InputError(f"flag --k needs an integer, got {raw[:20]!r}")
    # far past any rank; int() of a long digit string is slow, or refused
    if len(raw.lstrip("+-").lstrip("0")) > 9:
        raise InputError(f"k out of range: {raw[:20]}...")
    return int(raw)


def _parse_class(spec, tokens, expected):
    if len(tokens) == 1 and tokens[0] in spec.classes:
        coords = spec.classes[tokens[0]]
    else:
        text = ",".join(tokens)
        parts = [p.strip() for p in text.split(",") if p.strip()]
        coords = tuple(parse_rational(p) for p in parts)
    if len(coords) != expected:
        raise InputError(
            f"class needs {expected} coordinates in the published basis, "
            f"got {len(coords)}"
        )
    return coords


def _format_vector(vec):
    return "(" + ", ".join(format_rational(x) for x in vec) + ")"


def _cmd_ring(spec, rest, json_output):
    if not rest or rest[0] != "eval" or len(rest) < 2:
        raise InputError("usage: ring eval <expression>")
    ring = _KINDS[spec.preset.kind].ring(spec.preset)
    cls = ring.normal_form(" ".join(rest[1:]))
    if json_output:
        payload = cls.to_json()
        payload["text"] = str(cls)
        return 0, _dump(payload)
    return 0, f"degree {cls.degree}: {cls}"


def _cmd_cone(spec, rest, json_output):
    from .catalog import cone_report

    positional, flags = _split_flags(rest, {"k"})
    if len(positional) != 1 or positional[0] not in ("nef", "psef"):
        raise InputError("usage: cone nef|psef [--k K]")
    which = positional[0]
    report = cone_report(spec.preset, _parse_k(flags), spec.factors)
    cone = report.nef if which == "nef" else report.psef
    if json_output:
        payload = cone.to_json()
        payload.update(
            {
                "cone": which,
                "k": report.k,
                "basis": list(report.basis),
                "equal": report.equal,
            }
        )
        return 0, _dump(payload)
    lines = [
        f"codimension: {report.k}",
        "basis: " + ", ".join(report.basis),
        f"{which} generators:",
    ]
    lines += ["  " + _format_vector(g) for g in cone.generators]
    lines.append(f"nef = psef: {'yes' if report.equal else 'no'}")
    return 0, "\n".join(lines)


def _cmd_member(spec, rest, json_output):
    from .catalog import cone_report
    from .cones import inequality_text

    positional, flags = _split_flags(rest, {"k", "cone"})
    which = flags.get("cone", "nef")
    if which not in ("nef", "psef"):
        raise InputError("flag --cone must be nef or psef")
    if not positional:
        raise InputError("usage: member <class> [--cone nef|psef] [--k K]")
    report = cone_report(spec.preset, _parse_k(flags), spec.factors)
    cone = report.nef if which == "nef" else report.psef
    coords = _parse_class(spec, positional, cone.dim)
    hit = cone.violated_constraint(coords)
    if json_output:
        payload = {
            "member": hit is None,
            "cone": which,
            "k": report.k,
            "basis": list(report.basis),
            "coordinates": [format_rational(x) for x in coords],
        }
        if hit is not None:
            kind, normal, value = hit
            payload["violated"] = {
                "kind": kind,
                "normal": [format_rational(x) for x in normal],
                "value": format_rational(value),
            }
        return (0 if hit is None else 1), _dump(payload)
    if hit is None:
        return 0, f"member of {which} cone: yes"
    kind, normal, value = hit
    text = inequality_text(kind, normal, [f"[{label}]" for label in report.basis])
    return 1, (
        f"member of {which} cone: no\n"
        f"violated inequality: {text} (value {format_rational(value)})"
    )


def _cmd_zariski(spec, rest, json_output):
    from .zariski import decompose

    if len(spec.factors) != 2:
        raise InputError("zariski needs a fibre_product space")
    if not rest:
        raise InputError("usage: zariski <class>")
    coords = _parse_class(spec, rest, 3)
    first, second = spec.factors
    cert = decompose(first, second, coords)
    if json_output:
        return 0, _dump(cert.to_json())
    lines = [f"input: {_format_vector(cert.input_coords)}"]
    if cert.steps:
        lines.append(f"steps: {len(cert.steps)}")
        for i, step in enumerate(cert.steps):
            lines.append(
                f"  {i + 1}. factor {step.factor}: center rank "
                f"{step.blowup_center_rank}, multiplicity "
                f"{format_rational(step.exceptional_multiplicity)}, "
                f"to rank {step.to_bundle.rank} degree {step.to_bundle.degree}"
            )
    else:
        lines.append("steps: none")
    lines.append(f"terminal case: {cert.terminal_case}")
    lines.append(f"P: {cert.P}")
    if cert.N:
        for gen, coeff in cert.N:
            lines.append(f"N: {format_rational(coeff)} * ({gen})")
    else:
        lines.append("N: empty")
    lines.append(f"verified: {'yes' if cert.verified else 'no'}")
    return 0, "\n".join(lines)


def _cmd_homog(spec, rest, json_output):
    from .catalog import k_homogeneous_check

    positional, flags = _split_flags(rest, {"k"})
    if positional or "k" not in flags:
        raise InputError("usage: homog --k K")
    if not spec.preset.is_surface:
        raise InputError("homog needs a surface-base space")
    k = _parse_k(flags)
    answer = k_homogeneous_check(spec.preset, k)
    if json_output:
        return (0 if answer else 1), _dump({"k": k, "homogeneous": answer})
    text = f"codimension-{k} effective and nef cones coincide: "
    return (0 if answer else 1), text + ("yes" if answer else "no")


def _cmd_selftest(json_output):
    from .selftest import CHECKS, run_check, run_selftest

    if json_output:
        results = []
        all_ok = True
        for index in range(len(CHECKS)):
            start = perf_counter()
            name, ok, detail = run_check(index)
            seconds = perf_counter() - start
            results.append({"name": name, "ok": ok, "detail": detail, "seconds": seconds})
            all_ok = all_ok and ok
        return (0 if all_ok else 1), _dump({"ok": all_ok, "results": results})
    stream = io.StringIO()
    all_ok = run_selftest(stream)
    return (0 if all_ok else 1), stream.getvalue().rstrip("\n")


def _dump(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def run_command(spec, command, json_output=False):
    """Dispatch one command list; returns (exit_code, output text)."""
    if not command:
        raise InputError(
            "no command given; expected ring, cone, member, zariski, homog "
            "or selftest"
        )
    head, *rest = command
    if head == "selftest":
        return _cmd_selftest(json_output)
    if spec is None:
        raise InputError(f"command {head!r} needs a workspace file (-w PATH)")
    handlers = {
        "ring": _cmd_ring,
        "cone": _cmd_cone,
        "member": _cmd_member,
        "zariski": _cmd_zariski,
        "homog": _cmd_homog,
    }
    if head not in handlers:
        raise InputError(f"unknown command {head!r}")
    return handlers[head](spec, rest, json_output)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conecalc",
        description="Exact nef/pseudoeffective cone calculator for "
        "projectivized bundles and their fibre products.",
    )
    parser.add_argument("-w", "--workspace", help="workspace JSON file")
    parser.add_argument("--json", action="store_true", help="JSON output")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = [t for t in args.command if t != "--json"]
    json_output = args.json or "--json" in args.command
    try:
        spec = None
        if args.workspace:
            try:
                with open(args.workspace, "rb") as handle:
                    raw = handle.read()
            except OSError as err:
                raise InputError(f"workspace: cannot read file ({err})") from None
            spec = parse_workspace(raw)
        code, text = run_command(spec, command, json_output)
    except InputError as err:
        code, text = 2, _error_text(err, json_output)
    except InternalError as err:
        code, text = 3, _error_text(err, json_output)
    except Exception as err:  # anything else is a bug too, never a "no"
        code, text = 3, _error_text(InternalError(f"{type(err).__name__}: {err}"), json_output)
    if text:
        print(text)
    return code


def _error_text(err, json_output):
    if json_output:
        return _dump({"error": str(err), "reasons": list(err.reasons)})
    return f"error: {err}"


if __name__ == "__main__":
    sys.exit(main())
