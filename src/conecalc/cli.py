"""Command-line front end.

A workspace JSON file names the base, the bundles, and the selected total
space; subcommands then evaluate ring expressions, print cones, test
membership, decompose classes, check k-homogeneity, or run the built-in
selftest. Exit codes: 0 success, 1 negative answer to a yes/no question,
2 invalid input, 3 internal invariant violation.
"""

import json
import os
import re
import sys

from .bundles import HNCurveBundle, SurfaceBundleData
from .errors import InputError, InternalError
from .presets import SpacePreset, _KINDS
from .rationals import _cut, _echo, format_linear, format_rational, parse_coords, parse_rational

# The ring, cone, zariski and selftest layers are imported inside the commands
# that use them, so that one call loads only what its command needs.


# Largest bundle rank a workspace may give. The cost of a surface cone report
# grows with rank; the worst cone or homog call at this rank (a ruled base,
# k = 1 or rank - 1), first in a fresh interpreter, takes 3-4 ms in-process
# with compiled bytecode (15-16 ms if its modules compile first) on a shared
# 2-CPU Xeon (Python 3.11); its report alone takes about 2.5 ms at rank 32.
MAX_RANK = 24


class WorkspaceSpec:
    """Validated workspace: base kind, selected space, named classes.

    ``factors`` is the tuple of bundle objects the selected space is built
    from: one for a projectivized bundle, two for a fibre product.
    ``preset`` is the matching ring preset, whose kind tells the two apart.
    ``classes`` maps optional names to coordinate tuples.
    """

    def __init__(self, base_kind, factors, preset, classes):
        self.base_kind = base_kind
        self.factors = tuple(factors)
        self.preset = preset
        self.classes = dict(classes)


def _fail(path, message):
    raise InputError(f"{path}: {message}")


def _at(path, read, *args):
    """``read(*args)``, with any ``InputError`` it raises addressed to ``path``
    (``CalcError.at``); the error's ``reasons`` stay as they were."""
    try:
        return read(*args)
    except InputError as err:
        raise err.at(path) from None


def parse_workspace(data):
    """Parse and validate workspace JSON given as bytes or str."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            raise InputError("workspace: file is not UTF-8") from None
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as err:  # JSONDecodeError, a too-long int, or deep nesting
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
            _fail("base.kind", f"unknown base kind {_echo(base_kind)}")
        path = f"base.{surface.param}"
        if surface.param not in base:
            _fail(path, "missing")
        param = _at(path, parse_rational, base[surface.param])
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
            _fail(f"{path}.name", "missing or not a non-empty string")
        if name in bundles:
            _fail(f"{path}.name", f"duplicate bundle name {_echo(name)}")
        if surface is None:
            bundles[name] = _at(path, HNCurveBundle.from_json, record)
        else:
            want = len(surface.divisors)
            c1 = record.get("c1", ())
            if not isinstance(c1, list) or len(c1) != want:
                _fail(f"{path}.c1", f"needs {want} coordinate(s) for this base")
            bundles[name] = _at(path, SurfaceBundleData.from_json, record)
        rank = bundles[name].rank
        if rank > MAX_RANK:
            _fail(f"{path}.rank", f"rank {_echo(rank)} is above the limit of {MAX_RANK}")

    space = obj.get("space")
    if not isinstance(space, dict):
        _fail("space", "missing or not an object")
    space_kind = space.get("kind")

    def resolve(path, name):
        if not isinstance(name, str) or name not in bundles:
            _fail(path, f"unknown bundle {_echo(name)}")
        return bundles[name]

    if space_kind == "proj_bundle":
        bundle = resolve("space.bundle", space.get("bundle"))
        if surface is None:
            preset = _at("space", SpacePreset.curve, bundle.rank, bundle.degree)
        elif not bundle.semistable:
            _fail("space.bundle", "surface presets need a semistable bundle")
        else:
            preset = _at("space", surface.from_base, bundle.rank, param, bundle.c1, bundle.c2)
        factors = (bundle,)
    elif space_kind == "fibre_product":
        if surface is not None:
            _fail("space", "fibre products are supported over curve bases only")
        names = space.get("factors")
        if not isinstance(names, list) or len(names) != 2:
            _fail("space.factors", "needs exactly two bundle names")
        first = resolve("space.factors[0]", names[0])
        second = resolve("space.factors[1]", names[1])
        preset = _at(
            "space", SpacePreset.fibre_product, first.rank, second.rank, first.degree, second.degree
        )
        factors = (first, second)
    else:
        _fail("space.kind", f"unknown space kind {_echo(space_kind)}")

    classes = {}
    payload = obj.get("classes", {})
    if not isinstance(payload, dict):
        _fail("classes", "must map names to coordinate lists")
    for name, coords in payload.items():
        path = f"classes[{_echo(name)}]"
        if not isinstance(coords, list):
            _fail(path, "must be a list of rationals")
        classes[name] = _at(path, parse_coords, coords)

    return WorkspaceSpec(base_kind, factors, preset, classes)


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
                raise InputError(f"unknown flag --{_cut(name)}")
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


def _cmd_ring(spec, rest):
    from .ring import build_ring

    if not rest or rest[0] != "eval" or len(rest) < 2:
        raise InputError("usage: ring eval <expression>")
    cls = build_ring(spec.preset).normal_form(" ".join(rest[1:]))
    return 0, {**cls.to_json(), "text": str(cls)}


def _text_ring(payload, spec):
    return f"degree {payload['degree']}: {payload['text']}"


def _cmd_cone(spec, rest):
    from .catalog import cone_report

    positional, flags = _split_flags(rest, {"k"})
    if len(positional) != 1 or positional[0] not in ("nef", "psef"):
        raise InputError("usage: cone nef|psef [--k K]")
    which = positional[0]
    report = cone_report(spec.preset, _parse_k(flags), spec.factors)
    cone = report.nef if which == "nef" else report.psef
    payload = cone.to_json()
    payload.update(cone=which, k=report.k, basis=list(report.basis), equal=report.equal)
    return 0, payload


def _text_cone(payload, spec):
    return "\n".join([
        f"codimension: {payload['k']}",
        "basis: " + ", ".join(payload["basis"]),
        f"{payload['cone']} generators:",
        *("  (" + ", ".join(g) + ")" for g in payload["generators"]),
        f"nef = psef: {'yes' if payload['equal'] else 'no'}",
    ])


def _cmd_member(spec, rest):
    from .catalog import cone_report

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
    payload = {
        "member": hit is None,
        "cone": which,
        "k": report.k,
        "basis": list(report.basis),
        "coordinates": [format_rational(x) for x in coords],
    }
    if hit is not None:
        kind, normal, value = hit
        normal = [format_rational(x) for x in normal]
        payload["violated"] = {"kind": kind, "normal": normal, "value": format_rational(value)}
    return (0 if hit is None else 1), payload


def _text_member(payload, spec):
    from .cones import inequality_text

    answer = f"member of {payload['cone']} cone: "
    if payload["member"]:
        return answer + "yes"
    hit = payload["violated"]
    normal = [parse_rational(x, None) for x in hit["normal"]]
    text = inequality_text(hit["kind"], normal, [f"[{label}]" for label in payload["basis"]])
    return f"{answer}no\nviolated inequality: {text} (value {hit['value']})"


def _cmd_zariski(spec, rest):
    from .zariski import decompose

    if len(spec.factors) != 2:
        raise InputError("zariski needs a fibre_product space")
    if not rest:
        raise InputError("usage: zariski <class>")
    return 0, decompose(*spec.factors, _parse_class(spec, rest, 3)).to_json()


def _divisor_text(coords):
    return format_linear(zip((parse_rational(x, None) for x in coords), ("xi", "zeta", "F")))


def _text_zariski(payload, spec):
    steps = payload["steps"]
    lines = [f"input: ({', '.join(payload['input'])})", f"steps: {len(steps) or 'none'}"]
    # a certificate keeps each step's new rank; ReductionStep makes the center rank the drop
    ranks = {"first": spec.factors[0].rank, "second": spec.factors[1].rank}
    for i, step in enumerate(steps, 1):
        factor, to = step["factor"], step["to"]
        center, ranks[factor] = ranks[factor] - to["rank"], to["rank"]
        lines.append(
            f"  {i}. factor {factor}: center rank {center}, multiplicity {step['mult']}, "
            f"to rank {to['rank']} degree {to['degree']}"
        )
    lines += [f"terminal case: {payload['terminal']}", f"P: {_divisor_text(payload['P'])}"]
    parts = [f"N: {n['coeff']} * ({_divisor_text(n['gen'])})" for n in payload["N"]]
    lines += parts or ["N: empty"]
    lines.append(f"verified: {'yes' if payload['verified'] else 'no'}")
    return "\n".join(lines)


def _cmd_homog(spec, rest):
    from .catalog import k_homogeneous_check

    positional, flags = _split_flags(rest, {"k"})
    if positional or "k" not in flags:
        raise InputError("usage: homog --k K")
    if not spec.preset.is_surface:
        raise InputError("homog needs a surface-base space")
    k = _parse_k(flags)
    answer = k_homogeneous_check(spec.preset, k)
    return (0 if answer else 1), {"k": k, "homogeneous": answer}


def _text_homog(payload, spec):
    answer = "yes" if payload["homogeneous"] else "no"
    return f"codimension-{payload['k']} effective and nef cones coincide: {answer}"


def _cmd_selftest(spec, rest):
    from .selftest import run_selftest

    results = run_selftest()
    ok = all(result["ok"] for result in results)
    return (0 if ok else 1), {"ok": ok, "results": results}


def _text_selftest(payload, spec):
    return "\n".join(
        f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}" for r in payload["results"]
    )


# Each command's handler returns (exit code, payload), the payload being what
# --json prints; its renderer turns that payload into the text report. Only
# zariski's renderer reads the workspace as well, for the factor ranks.
_COMMANDS = {
    "ring": (_cmd_ring, _text_ring),
    "cone": (_cmd_cone, _text_cone),
    "member": (_cmd_member, _text_member),
    "zariski": (_cmd_zariski, _text_zariski),
    "homog": (_cmd_homog, _text_homog),
    "selftest": (_cmd_selftest, _text_selftest),
}

USAGE = f"usage: conecalc [-w PATH] [--json] {'|'.join(_COMMANDS)} ..."


def _dump(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def run_command(spec, command, json_output=False):
    """Dispatch one command list; returns (exit_code, output text)."""
    if not command:
        *names, last = _COMMANDS
        raise InputError(f"no command given; expected {', '.join(names)} or {last}")
    head, *rest = command
    if head in ("-h", "--help"):
        return 0, USAGE
    if head.startswith("-"):
        raise InputError(f"unknown flag {_cut(head)}")
    if spec is None and head != "selftest":
        raise InputError(f"command {_echo(head)} needs a workspace file (-w PATH)")
    if head not in _COMMANDS:
        raise InputError(f"unknown command {_echo(head)}")
    handler, render = _COMMANDS[head]
    code, payload = handler(spec, rest)
    return code, (_dump(payload) if json_output else render(payload, spec))


def main(argv=None):
    """Run one call and return its exit code: ``-w PATH`` first, ``--json`` anywhere."""
    argv = sys.argv[1:] if argv is None else argv
    json_output = "--json" in argv
    command = [t for t in argv if t != "--json"]
    try:
        spec = path = None
        while command[:1] in (["-w"], ["--workspace"]):
            if len(command) < 2:
                raise InputError(f"flag {command[0]} needs a value")
            path, command = command[1], command[2:]
        if path is not None:
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError as err:
                reason = f"cannot read file {_echo(path)} ({err.strerror})"
                raise InputError(f"workspace: {reason}") from None
            spec = parse_workspace(raw)
        code, text = run_command(spec, command, json_output)
    except InputError as err:
        code, text = 2, _error_text(err, json_output)
    except InternalError as err:
        code, text = 3, _error_text(err, json_output)
    except Exception as err:  # anything else is a bug too, never a "no"
        code, text = 3, _error_text(InternalError(f"{type(err).__name__}: {err}"), json_output)
    if text:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader is gone: the exit code still answers, and the flush at
            # interpreter exit writes to devnull instead of failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def _error_text(err, json_output):
    if json_output:
        return _dump({"error": str(err), "reasons": list(err.reasons)})
    return f"error: {err}"


if __name__ == "__main__":
    sys.exit(main())
