"""Span tracing of the conecalc layers, installed from outside the package.

A wrapper replaces each traced callable everywhere it is bound: the module
globals of every loaded ``conecalc`` module (several modules bind names with
``from .x import name``), and the class attribute for methods and
constructors. Each call records a span (id, name, start, end, parent span,
op id) in memory; self time is the span's duration minus the time its child
spans cover. Counters are taken at the same boundaries. A callable that no
longer exists is skipped and its metrics are left out.
"""

import functools
import json
import sys
from time import perf_counter

# (layer, module, callable); a bare class name traces its construction
TARGETS = (
    ("rationals", "rationals", "parse_rational"),
    ("rationals", "rationals", "format_rational"),
    ("bundles", "bundles", "HNCurveBundle"),
    ("bundles", "bundles", "sub_bundle_after_step"),
    ("ring", "ring", "build_curve_bundle_ring"),
    ("ring", "ring", "build_fibre_product_ring"),
    ("ring", "ring", "build_lambda_ring_surface"),
    ("ring", "ring", "parse_expression"),
    ("ring", "ring", "IntersectionRing.normal_form"),
    ("ring", "ring", "IntersectionRing.degree_eval"),
    ("ring", "ring", "IntersectionRing.basis"),
    ("ring", "ring", "IntersectionRing.class_from_coordinates"),
    ("cones", "cones", "RationalCone"),
    ("cones", "cones", "RationalCone.violated_constraint"),
    ("cones", "cones", "RationalCone.contains"),
    ("cones", "cones", "RationalCone.dual"),
    ("cones", "cones", "RationalCone.extremal_rays"),
    ("cones", "cones", "RationalCone.__eq__"),
    ("catalog", "catalog", "miyaoka_cones"),
    ("catalog", "catalog", "fibre_product_cones"),
    ("catalog", "catalog", "nef_fibre_product"),
    ("catalog", "catalog", "psef_fibre_product"),
    ("catalog", "catalog", "homogeneity_cones"),
    ("catalog", "catalog", "k_homogeneous_check"),
    ("catalog", "catalog", "surface_cone_report"),
    ("zariski", "zariski", "decompose"),
    ("zariski", "zariski", "verify"),
    ("zariski", "zariski", "terminal_decompose"),
    ("zariski", "zariski", "reduce_step"),
    ("zariski", "zariski", "ZariskiCertificate.to_json"),
    ("zariski", "zariski", "ZariskiCertificate.from_json"),
    ("cli", "cli", "parse_workspace"),
    ("cli", "cli", "run_command"),
)

RING_BUILDERS = ("build_curve_bundle_ring", "build_fibre_product_ring", "build_lambda_ring_surface")


def _terms(value):
    if isinstance(value, dict):
        return len(value)
    coeffs = getattr(value, "coeffs", None)
    return len(coeffs) if coeffs is not None else 0


class Tracer:
    """Spans and counters of one traced pass; ``op`` is the current op id."""

    def __init__(self):
        self.op = None
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.stats = {}
        self.restore = []
        self.cones = []
        self.builds = []
        self.parse_terms = 0
        self.last_parse_terms = 0
        self.nf_terms_in = 0
        self.nf_terms_out = 0
        self.decompose_steps = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - frame[1]
                tracer.spans.append(
                    (frame[0], name, start, end, parent[0] if parent else None, tracer.op)
                )
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hook(self, label):
        if label == "RationalCone":
            return lambda a, k, r: self.cones.append((a[0].dim, a[0].generators))
        if label in RING_BUILDERS:
            return lambda a, k, r: self.builds.append((label, repr(a), repr(sorted(k.items()))))
        if label == "parse_expression":
            return self._on_parse
        if label == "IntersectionRing.normal_form":
            return self._on_normal_form
        if label == "decompose":
            return self._on_decompose
        return None

    def _on_parse(self, args, kwargs, result):
        self.last_parse_terms = len(result)
        self.parse_terms += len(result)

    def _on_normal_form(self, args, kwargs, result):
        expr = args[1] if len(args) > 1 else kwargs.get("expr")
        # a string was parsed inside this call; its terms are the input
        self.nf_terms_in += self.last_parse_terms if isinstance(expr, str) else _terms(expr)
        self.nf_terms_out += _terms(result)

    def _on_decompose(self, args, kwargs, result):
        self.decompose_steps += len(result.steps)

    def install(self):
        """Wrap every target that exists; returns the names installed."""
        import conecalc  # noqa: F401  (loads every submodule)

        installed = []
        modules = [m for n, m in sys.modules.items() if n == "conecalc" or n.startswith("conecalc.")]
        for layer, modname, label in TARGETS:
            name = f"{layer}.{label}"
            module = sys.modules.get(f"conecalc.{modname}")
            owner, _, attr = label.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                raw = vars(cls).get(attr) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, self._hook(label)))
                else:
                    new = self._wrap(name, raw, self._hook(label))
                setattr(cls, attr, new)
                self.restore.append((cls, attr, raw))
            elif isinstance(getattr(module, label, None), type):
                cls = getattr(module, label)
                raw = vars(cls).get("__init__")
                if raw is None:
                    continue
                setattr(cls, "__init__", self._wrap(name, raw, self._hook(label)))
                self.restore.append((cls, "__init__", raw))
            else:
                original = getattr(module, label, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, self._hook(label))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self.restore.append((mod, key, original))
            installed.append(name)
        return installed

    def uninstall(self):
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore = []

    # -- results -----------------------------------------------------------

    def metrics(self, ops):
        # a ratio over no events is 1: nothing was built twice, no term was
        # dropped, so a later change that adds the first event cannot read
        # as a gain
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        if "cones.RationalCone" in self.stats:
            built = len(self.cones)
            out["cones.RationalCone.per_op"] = built / ops
            out["cones.RationalCone.distinct_ratio"] = len(set(self.cones)) / built if built else 1.0
        if any(f"ring.{b}" in self.stats for b in RING_BUILDERS):
            builds = len(self.builds)
            out["ring.build.distinct_ratio"] = len(set(self.builds)) / builds if builds else 1.0
        if "ring.parse_expression" in self.stats:
            out["ring.parse_expression.terms"] = self.parse_terms
        if "ring.IntersectionRing.normal_form" in self.stats:
            out["ring.normal_form.terms_out"] = self.nf_terms_out
            kept = self.nf_terms_out / self.nf_terms_in if self.nf_terms_in else 1.0
            out["ring.normal_form.kept_ratio"] = kept
        if "zariski.decompose" in self.stats:
            out["zariski.decompose.steps"] = self.decompose_steps
        return out

    def write_spans(self, path):
        with open(path, "w") as handle:
            for sid, name, start, end, parent, op in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end}
                record.update({"parent": parent, "op": op})
                handle.write(json.dumps(record) + "\n")
