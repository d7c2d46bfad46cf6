"""Per-layer tracing of npvset from outside the program.

``Tracer.install`` wraps each traced public function by rebinding every
attribute of every loaded ``npvset`` module that is bound to it, because
names are imported by value (``prefix_expansion`` is bound in ``puiseux``,
``expansion`` and ``valueset``).  ``UniPoly``, ``BiPoly`` and ``Scalar``
methods are wrapped as class attributes.

Wrapped functions record spans in memory: name, start, end, parent span and
op id.  A span's self time is its duration minus the time covered by its
direct child spans.  ``Scalar`` methods run 10^4 to 10^5 times per pass, so
their wrappers only count calls and keep every 256th operand pair; the
pairs are replayed after the run, rebuilt with ``Scalar.of(re, im)``, to
time one ``*`` and one ``+``.

Counts are per pass and repeat exactly from pass to pass, because every
pass runs the same ops; only their order changes.
"""

from __future__ import annotations

import gzip
import importlib
import json
import operator
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

SAMPLE_MASK = 255  # keep an operand pair when the call count is a multiple of 256
REPLAY_PAIRS = 200
REPLAY_REPEATS = 50


def _key_args(*args, **kwargs):
    return args + tuple(sorted(kwargs.items()))


def _key_prefix(f, prefix):
    return (f, tuple(prefix))


# (module, function, metric prefix, argument key for repeat_share or None)
SPANNED: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "run", "cli.run", None),
    ("cli", "render", "cli.render", None),
    ("parsing", "parse_map", "parsing.parse_map", None),
    ("algebra", "normalize_monic", "algebra.normalize_monic", None),
    ("puiseux", "full_expansion", "puiseux.full_expansion", _key_args),
    ("puiseux", "leading_data", "puiseux.leading_data", _key_args),
    ("puiseux", "prefix_expansion", "puiseux.prefix_expansion", _key_prefix),
    ("expansion", "all_roots", "expansion.all_roots", None),
    ("expansion", "hull_edges", "expansion.hull_edges", None),
    ("expansion", "next_event_exponent", "expansion.next_event_exponent", None),
    ("expansion", "expansion_tree", "expansion.expansion_tree", None),
    ("expansion", "curve_branches", "expansion.curve_branches", _key_args),
    ("expansion", "associated_sequence", "expansion.associated_sequence", None),
    ("expansion", "root_index_data", "expansion.root_index_data", None),
    ("valueset", "dicritical_series", "valueset.dicritical_series", None),
    ("valueset", "nonproper_value_set", "valueset.nonproper_value_set", None),
    ("valueset", "run_all_checks", "valueset.run_all_checks", None),
    ("valueset", "check_newton_factorization", "valueset.check_newton_factorization", None),
    ("valueset", "verify_theorem2", "valueset.verify_theorem2", None),
]

# (class in npvset.algebra, method, metric prefix)
METHOD_SPANS = [
    ("UniPoly", "__mul__", "algebra.unipoly_mul"),
    ("UniPoly", "divmod", "algebra.unipoly_divmod"),
    ("BiPoly", "__mul__", "algebra.bipoly_mul"),
]
# (Scalar method, metric prefix, whether operand pairs are sampled)
COUNTED = [
    ("__mul__", "algebra.scalar_mul", True),
    ("__add__", "algebra.scalar_add", True),
    ("__sub__", "algebra.scalar_add", False),
    ("inverse", "algebra.scalar_inverse", False),
]

TREE_STATUSES = {
    "dicritical": "dicritical",
    "dead": "dead",
    "depth_capped": "capped",
    "extension_required": "extension",
}

# The per-layer metrics a traced run reports: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("algebra.scalar_mul.calls", "count", "lower"),
    ("algebra.scalar_add.calls", "count", "lower"),
    ("algebra.scalar_inverse.calls", "count", "lower"),
    ("algebra.scalar_mul.ns", "ns", "lower"),
    ("algebra.scalar_add.ns", "ns", "lower"),
    ("algebra.max_coeff_bits", "bits", "lower"),
    ("algebra.unipoly_mul.calls", "count", "lower"),
    ("algebra.unipoly_divmod.calls", "count", "lower"),
    ("algebra.bipoly_mul.calls", "count", "lower"),
    ("algebra.normalize_monic.self_s", "s", "lower"),
    ("parsing.parse_map.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
]
for _fn in ("full_expansion", "leading_data", "prefix_expansion"):
    PER_LAYER += [
        (f"puiseux.{_fn}.calls", "count", "lower"),
        (f"puiseux.{_fn}.self_s", "s", "lower"),
        (f"puiseux.{_fn}.repeat_share", "share", "lower"),
    ]
PER_LAYER += [
    ("expansion.all_roots.calls", "count", "lower"),
    ("expansion.all_roots.self_s", "s", "lower"),
    ("expansion.all_roots.max_degree", "count", "lower"),
    ("expansion.all_roots.max_coeff_bits", "bits", "lower"),
    ("expansion.all_roots.unsplit_share", "share", "lower"),
]
for _fn in ("hull_edges", "next_event_exponent", "expansion_tree"):
    PER_LAYER += [
        (f"expansion.{_fn}.calls", "count", "lower"),
        (f"expansion.{_fn}.self_s", "s", "lower"),
    ]
PER_LAYER += [
    ("expansion.tree_nodes.dicritical", "count", "higher"),
    ("expansion.tree_nodes.dead", "count", "lower"),
    ("expansion.tree_nodes.capped", "count", "lower"),
    ("expansion.tree_nodes.extension", "count", "lower"),
    ("expansion.curve_branches.calls", "count", "lower"),
    ("expansion.curve_branches.self_s", "s", "lower"),
    ("expansion.curve_branches.repeat_share", "share", "lower"),
]
for _fn in ("associated_sequence", "root_index_data"):
    PER_LAYER += [
        (f"expansion.{_fn}.calls", "count", "lower"),
        (f"expansion.{_fn}.self_s", "s", "lower"),
    ]
PER_LAYER += [
    ("valueset.dicritical_series.calls", "count", "lower"),
    ("valueset.dicritical_series.self_s", "s", "lower"),
    ("valueset.nonproper_value_set.self_s", "s", "lower"),
    ("valueset.run_all_checks.self_s", "s", "lower"),
    ("valueset.check_newton_factorization.self_s", "s", "lower"),
    ("valueset.verify_theorem2.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

TIMED_SUFFIXES = (".self_s", ".ns", "_pct")


def coeff_bits(scalars) -> int:
    """Largest bit length of a numerator or denominator among Q(i) scalars."""
    best = 0
    for s in scalars:
        for part in (s.re, s.im):
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def _npvset_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "npvset" or name.startswith("npvset.")
    ]


class Tracer:
    """Wraps npvset's layers and turns the spans of each pass into metrics."""

    def __init__(self) -> None:
        self.op = -1
        self.spans: List[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self.pass_starts: List[int] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []
        self._keys: Dict[str, list] = {}
        self._counts: Dict[str, List[int]] = {}
        self.samples: Dict[str, list] = {"algebra.scalar_mul": [], "algebra.scalar_add": []}
        self._reset_pass()

    def _reset_pass(self) -> None:
        self.pass_starts.append(len(self.spans))
        for keys in self._keys.values():
            keys.clear()
        for cell in self._counts.values():
            cell[0] = 0
        self.stats = Counter()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        algebra = importlib.import_module("npvset.algebra")
        modules = _npvset_modules()
        hooks = {
            "expansion.all_roots": self._on_all_roots,
            "expansion.expansion_tree": self._on_tree,
        }
        for mod_name, fn_name, metric, key in SPANNED:
            fn = getattr(importlib.import_module("npvset." + mod_name), fn_name, None)
            if fn is None:
                continue
            if key is not None:
                self._keys[metric] = []
            wrapper = self._span_wrapper(metric, fn, key, hooks.get(metric))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for cls_name, meth, metric in METHOD_SPANS:
            cls = getattr(algebra, cls_name)
            fn = getattr(cls, meth)
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._span_wrapper(metric, fn, None, self._on_poly))
        scalar = algebra.Scalar
        for meth, metric, sampled in COUNTED:
            fn = getattr(scalar, meth)
            cell = self._counts[meth] = [0]
            self._restore.append((scalar, meth, fn))
            samples = self.samples[metric] if sampled else None
            setattr(scalar, meth, self._counter(fn, cell, samples))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _span_wrapper(self, name, fn, key, hook):
        spans, stack, tracer = self.spans, self._stack, self
        keys = self._keys.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if keys is not None:
                keys.append((tracer.op, key(*args, **kwargs)))
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    @staticmethod
    def _counter(fn, cell, samples):
        if samples is None:

            def count(*args):
                cell[0] += 1
                return fn(*args)

            return count

        def count_and_sample(a, b):
            cell[0] += 1
            if not cell[0] & SAMPLE_MASK:
                samples.append((a, b))
            return fn(a, b)

        return count_and_sample

    # -- hooks: run after the span has ended, so their cost falls in the
    # -- parent's self time, not in the traced function's

    def _on_all_roots(self, args, out) -> None:
        h = args[0]
        st = self.stats
        st["all_roots.max_degree"] = max(st["all_roots.max_degree"], h.degree)
        st["all_roots.max_coeff_bits"] = max(
            st["all_roots.max_coeff_bits"], coeff_bits(h.coeffs)
        )
        st["all_roots.unsplit"] += out[1].degree >= 1

    def _on_tree(self, args, out) -> None:
        for node in out.walk():
            label = TREE_STATUSES.get(node.status)
            if label:
                self.stats["tree_nodes." + label] += 1

    def _on_poly(self, args, out) -> None:
        polys = out if isinstance(out, tuple) else (out,)
        for p in polys:
            coeffs = p.coeffs if hasattr(p, "coeffs") else p.terms.values()
            self.stats["max_coeff_bits"] = max(
                self.stats["max_coeff_bits"], coeff_bits(coeffs)
            )

    # -- per-pass metrics ---------------------------------------------------

    def end_pass(self) -> Dict[str, float]:
        """Metrics of the pass that just ended; starts the next pass."""
        first = self.pass_starts[-1]
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= first:
                child_ns[parent - first] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i, (name, start, end, _parent, _op) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        m: Dict[str, float] = {}
        for _mod, _fn, metric, key in SPANNED:
            m[metric + ".calls"] = calls[metric]
            m[metric + ".self_s"] = self_ns[metric] / 1e9
            if key is not None:
                keys = self._keys.get(metric, [])  # empty when the function is gone
                try:
                    distinct = len(set(keys))
                except TypeError:  # an argument type without hashing
                    distinct = len({repr(k) for k in keys})
                m[metric + ".repeat_share"] = 1 - distinct / len(keys) if keys else 0.0
        for _cls, _meth, metric in METHOD_SPANS:
            m[metric + ".calls"] = calls[metric]
        for meth, metric, _sampled in COUNTED:
            m[metric + ".calls"] = m.get(metric + ".calls", 0) + self._counts[meth][0]
        st = self.stats
        m["algebra.max_coeff_bits"] = st["max_coeff_bits"]
        roots = calls["expansion.all_roots"]
        m["expansion.all_roots.max_degree"] = st["all_roots.max_degree"]
        m["expansion.all_roots.max_coeff_bits"] = st["all_roots.max_coeff_bits"]
        m["expansion.all_roots.unsplit_share"] = (
            st["all_roots.unsplit"] / roots if roots else 0.0
        )
        for label in TREE_STATUSES.values():
            m["expansion.tree_nodes." + label] = st["tree_nodes." + label]
        self._reset_pass()
        return m

    # -- after the run --------------------------------------------------------

    def replay_ns(self, scalar_cls) -> Dict[str, float]:
        """Median ns per call of Scalar ``*`` and ``+`` on sampled operands.

        Call after ``uninstall``; operands are rebuilt through the public
        constructor so that the replay times the current Scalar.
        """
        out = {}
        for metric, op in (("algebra.scalar_mul", operator.mul), ("algebra.scalar_add", operator.add)):
            pairs = self.samples[metric]
            step = max(1, len(pairs) // REPLAY_PAIRS)
            per_call = []
            for a, b in pairs[::step][:REPLAY_PAIRS]:
                x = scalar_cls.of(a.re, a.im)
                y = scalar_cls.of(b.re, b.im)
                start = time.perf_counter_ns()
                for _ in range(REPLAY_REPEATS):
                    op(x, y)
                per_call.append((time.perf_counter_ns() - start) / REPLAY_REPEATS)
            out[metric + ".ns"] = statistics.median(per_call) if per_call else 0.0
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: name, start_ns, end_ns, parent, op, pass."""
        bounds = self.pass_starts[1:] + [len(self.spans)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            pass_no = 0
            for i, span in enumerate(self.spans):
                while i >= bounds[pass_no]:
                    pass_no += 1
                fh.write(json.dumps(list(span) + [pass_no]) + "\n")
