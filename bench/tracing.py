"""Spans around pdml's public functions, installed from outside the program.

`install(tracer)` replaces each listed function in every loaded pdml module
namespace that binds it (modules import some of them by name, e.g. `pexp`
binds `desc_verify`), and the listed methods on their classes. A wrapper
records a span (name, start, end, parent, run id) and the layer counters the
benchmark reports. Counters and times go into the current bucket (set-up or
one pass); calls made outside any bucket, such as input building between
passes, are not recorded. Full spans are kept in memory for set-up and the
first timed pass only, so memory stays bounded however many passes run;
every bucket keeps its totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (metric prefix, module, attribute or "Class.attr")
TRACED = [
    ("exact.polymul", "pdml.exact", "FpPoly.__mul__"),
    ("exact.gcd", "pdml.exact", "FpPoly.gcd"),
    ("exact.int_pow", "pdml.exact", "ratfunc_int_pow"),
    ("lrs", "pdml.lrs", "lrs_eval"),
    ("lrs", "pdml.lrs", "lrs_prefix"),
    ("lrs", "pdml.lrs", "lrs_subsequence"),
    ("lrs", "pdml.lrs", "lrs_zero_progression_certify"),
    ("lrs", "pdml.lrs", "lrs_char_roots"),
    ("lrs", "pdml.lrs", "lrs_nondegenerate_split"),
    ("lrs", "pdml.lrs", "lrs_root_p_dependence"),
    ("psets.membership", "pdml.psets", "pset_membership"),
    ("psets.enumerate", "pdml.psets", "pset_enumerate"),
    ("psets.verify", "pdml.psets", "desc_verify"),
    ("psets.fit", "pdml.psets", "fit_pset_shapes"),
    ("pexp.solve", "pdml.pexp", "pexp_solve"),
    ("pexp.classify", "pdml.pexp", "pexp_classify"),
    ("pexp.fit", "pdml.pexp", "fit_solution_desc"),
    ("torus.return_set", "pdml.torus", "return_set"),
    ("torus.factor", "pdml.torus", "Factored.from_ratfunc"),
    ("torus.variety_contains", "pdml.torus", "variety_contains"),
    ("torus.pipeline", "pdml.torus", "full_pipeline"),
    ("torus.verify_reduction", "pdml.torus", "verify_reduction"),
    ("torus.obstruction", "pdml.torus", "frobenius_obstruction"),
    ("constructions.dml_instance", "pdml.constructions", "dml_instance"),
    ("constructions.pset_variety", "pdml.constructions", "build_pset_variety"),
    ("constructions.exponent_set", "pdml.constructions", "exponent_set"),
    ("serial.parse", "pdml.serial", "ratfunc_from_text"),
    ("serial.parse", "pdml.serial", "lrs_from_text"),
    ("serial.parse", "pdml.serial", "pset_from_text"),
    ("serial.parse", "pdml.serial", "desc_from_text"),
    ("serial.parse", "pdml.serial", "torus_instance_from_text"),
    ("serial.parse", "pdml.serial", "pexp_instance_from_text"),
    ("serial.parse", "pdml.serial", "pset_pair_from_text"),
    ("serial.parse", "pdml.serial", "ap_pset_from_text"),
    ("serial.format", "pdml.serial", "ratfunc_to_text"),
    ("serial.format", "pdml.serial", "lrs_to_text"),
    ("serial.format", "pdml.serial", "pset_to_text"),
    ("serial.format", "pdml.serial", "desc_to_text"),
    ("serial.format", "pdml.serial", "torus_instance_to_text"),
    ("serial.format", "pdml.serial", "pexp_instance_to_text"),
]

# Every per-layer metric, in BENCHMARK.json order, with its bucket key: a
# counter for counts, a span prefix for times (traced_pass_s is added by
# run.py).
LAYER_METRICS = [
    ("exact.polymul_calls", "count", "exact.polymul_calls"),
    ("exact.polymul_coeff_products", "count", "exact.polymul_coeff_products"),
    ("exact.polymul_ms", "ms", "exact.polymul"),
    ("exact.gcd_ms", "ms", "exact.gcd"),
    ("exact.int_pow_calls", "count", "exact.int_pow_calls"),
    ("exact.int_pow_ms", "ms", "exact.int_pow"),
    ("exact.max_coeffs", "count", "exact.max_coeffs"),
    ("lrs.calls", "count", "lrs_calls"),
    ("lrs.ms", "ms", "lrs"),
    ("psets.membership_calls", "count", "psets.membership_calls"),
    ("psets.membership_hits", "count", "psets.membership_hits"),
    ("psets.membership_ms", "ms", "psets.membership"),
    ("psets.enumerate_calls", "count", "psets.enumerate_calls"),
    ("psets.enumerate_elements", "count", "psets.enumerate_elements"),
    ("psets.enumerate_ms", "ms", "psets.enumerate"),
    ("psets.verify_calls", "count", "psets.verify_calls"),
    ("psets.verify_points", "count", "psets.verify_points"),
    ("psets.verify_accepted", "count", "psets.verify_accepted"),
    ("psets.verify_ms", "ms", "psets.verify"),
    ("psets.fit_candidates", "count", "psets.fit_candidates"),
    ("psets.fit_ms", "ms", "psets.fit"),
    ("pexp.solve_ms", "ms", "pexp.solve"),
    ("pexp.classify_ms", "ms", "pexp.classify"),
    ("pexp.fit_ms", "ms", "pexp.fit"),
    ("pexp.values", "count", "pexp.values"),
    ("torus.return_set_calls", "count", "torus.return_set_calls"),
    ("torus.factored_steps", "count", "torus.factored_steps"),
    ("torus.dense_steps", "count", "torus.dense_steps"),
    ("torus.return_set_ms", "ms", "torus.return_set"),
    ("torus.factor_calls", "count", "torus.factor_calls"),
    ("torus.factor_ms", "ms", "torus.factor"),
    ("torus.variety_contains_ms", "ms", "torus.variety_contains"),
    ("torus.pipeline_ms", "ms", "torus.pipeline"),
    ("torus.verify_reduction_ms", "ms", "torus.verify_reduction"),
    ("torus.obstruction_ms", "ms", "torus.obstruction"),
    ("constructions.dml_instance_ms", "ms", "constructions.dml_instance"),
    ("constructions.pset_variety_ms", "ms", "constructions.pset_variety"),
    ("constructions.exponent_set_ms", "ms", "constructions.exponent_set"),
    ("serial.parse_ms", "ms", "serial.parse"),
    ("serial.format_ms", "ms", "serial.format"),
    ("cli.import_ms", "ms", "cli.import"),
    ("cli.handler_ms", "ms", "cli.handler"),
    ("cli.startup_ms", "ms", "cli.startup"),
]

# Spans kept in full for set-up and the first timed pass.
_KEEP_SPANS = ("setup", "pass1")


class Bucket:
    """Totals for one stretch of work: counters and per-prefix times."""

    def __init__(self, name: str):
        self.name = name
        self.counts: dict[str, int] = {}
        self.ns: dict[str, int] = {}        # outermost-call inclusive time
        self.self_ns: dict[str, int] = {}   # duration minus child spans

    def add(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def maximum(self, key: str, n: int):
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    def merge(self, other: dict):
        for k, v in other["counts"].items():
            if k == "exact.max_coeffs":
                self.maximum(k, v)
            else:
                self.add(k, v)
        for field in ("ns", "self_ns"):
            mine = getattr(self, field)
            for k, v in other[field].items():
                mine[k] = mine.get(k, 0) + v

    def to_json(self) -> dict:
        return {"bucket": self.name, "counts": self.counts, "ns": self.ns,
                "self_ns": self.self_ns}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.bucket: Bucket | None = None
        self.buckets: list[Bucket] = []
        self.spans: list[tuple] = []
        self._stack: list[list] = []        # [span index, child span ns]
        self._depth: dict[str, int] = {}    # open spans per prefix
        self._keep = False

    def begin(self, name: str) -> Bucket:
        self.bucket = Bucket(name)
        self.buckets.append(self.bucket)
        self._keep = name in _KEEP_SPANS
        return self.bucket

    def end(self):
        self.bucket = None
        self._keep = False

    def wrap(self, prefix: str, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            b = tracer.bucket
            if b is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            idx = None
            if tracer._keep:
                idx = len(tracer.spans)
                tracer.spans.append(None)
            frame = [idx, 0]
            stack.append(frame)
            depth = tracer._depth
            depth[prefix] = depth.get(prefix, 0) + 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                depth[prefix] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                b.self_ns[prefix] = b.self_ns.get(prefix, 0) + dur - frame[1]
                if depth[prefix] == 0:
                    b.ns[prefix] = b.ns.get(prefix, 0) + dur
                if idx is not None:
                    tracer.spans[idx] = (idx, parent, name, t0, t1, b.name)
            b.add(prefix + "_calls")
            if counter is not None:
                counter(b, args, result)
            return result

        return wrapper

    def write(self, path: str, extra: list[dict] = ()):
        """Spans as JSON lines, then one line per bucket of totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                idx, parent, name, t0, t1, bucket = span
                fh.write(json.dumps({
                    "run": self.run_id, "bucket": bucket, "id": idx,
                    "parent": parent, "name": name,
                    "start_ns": t0, "end_ns": t1}) + "\n")
            for b in self.buckets:
                fh.write(json.dumps(dict(b.to_json(), run=self.run_id)) + "\n")
            for line in extra:
                fh.write(json.dumps(dict(line, run=self.run_id)) + "\n")


# -- counters read from arguments and results ---------------------------------


def _polymul(b: Bucket, args, result):
    a, c = args
    b.add("exact.polymul_coeff_products", len(a.coeffs) * len(c.coeffs))
    b.maximum("exact.max_coeffs", len(result.coeffs))


def _membership(b: Bucket, args, result):
    if result is not None:
        b.add("psets.membership_hits")


def _enumerate(b: Bucket, args, result):
    b.add("psets.enumerate_elements", len(result))


def _verify(b: Bucket, args, result):
    b.add("psets.verify_points", args[2] + 1)
    if result:
        b.add("psets.verify_accepted")


def _fit(b: Bucket, args, result):
    b.add("psets.fit_candidates", len(result))


def _solve(b: Bucket, args, result):
    b.add("pexp.values", args[1] + 1)


COUNTERS = {
    "FpPoly.__mul__": _polymul,
    "pset_membership": _membership,
    "pset_enumerate": _enumerate,
    "desc_verify": _verify,
    "fit_pset_shapes": _fit,
    "pexp_solve": _solve,
}


def _return_set_counter(tracer: Tracer, torus):
    """Assign each orbit step to the path return_set takes for its input.

    The decision repeats return_set's own test, with recording paused, so
    it adds to traced time only.
    """

    def count(b: Bucket, args, result):
        phi, alpha, _, n_max = args[:4]
        tracer.bucket = None
        try:
            factored = (phi.is_endomorphism()
                        and torus.factor_point(alpha) is not None)
        finally:
            tracer.bucket = b
        key = "torus.factored_steps" if factored else "torus.dense_steps"
        b.add(key, n_max + 1)

    return count


def install(tracer: Tracer):
    """Wrap every listed function wherever a loaded pdml module binds it."""
    for modname in sorted({m for _, m, _ in TRACED}):
        importlib.import_module(modname)
    import pdml.torus

    counters = dict(COUNTERS,
                    return_set=_return_set_counter(tracer, pdml.torus))
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "pdml" or name.startswith("pdml."))]
    for prefix, modname, attr in TRACED:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            w = tracer.wrap(prefix, attr, fn, counters.get(attr))
            setattr(cls, meth, staticmethod(w) if is_static else w)
            continue
        fn = getattr(owner, attr)
        w = tracer.wrap(prefix, attr, fn, counters.get(attr))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, w)


def layer_values(setup: dict, passes: list[dict]) -> dict[str, float]:
    """Per-layer metrics: set-up plus one pass.

    Counts are set-up plus the first timed pass, so they repeat exactly
    for a seed. Times are set-up plus the median, over timed passes, of a
    pass's total, in ms.
    """
    import statistics

    out: dict[str, float] = {}
    for name, unit, key in LAYER_METRICS:
        if unit == "ms":
            out[name] = (setup["ns"].get(key, 0) + statistics.median(
                b["ns"].get(key, 0) for b in passes)) / 1e6
        elif name == "exact.max_coeffs":
            out[name] = max(setup["counts"].get(key, 0),
                            passes[0]["counts"].get(key, 0))
        else:
            out[name] = (setup["counts"].get(key, 0)
                         + passes[0]["counts"].get(key, 0))
    return out
