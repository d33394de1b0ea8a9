"""Spans, counters and per-layer metrics for one process running definetti.

The tracer wraps the package from outside: every public function defined
in a layer module, the private kernels the roadmap names, and the
arithmetic methods of the exact scalar classes.  A wrapper is installed in
the defining module and in every `definetti` module that bound the same
object by import (`cli` binds `delta_su2`, `oracle` binds `epsilon`, the
package re-exports most names), and methods are patched on their class.
`restore` puts every original object back.

Each wrapped call updates a counter (calls, inclusive seconds, self
seconds).  Calls of the hot kernels (everything in `exact` and
`radicals`, `_racah_parts`, `cg`, `as_twoj`) are only counted; other calls
also record a span, up to SPAN_CAP spans per name and pass, so the trace
stays bounded in memory.  Self time is a call's duration minus the time
of the wrapped calls it made.  Single-threaded use only: the call stack
is shared.

A name that no longer exists is skipped, and the metrics that depend on
it read 0 and are listed by `absent()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "exact",
    "radicals",
    "su2_cg",
    "symmetric",
    "heisenberg",
    "weights",
    "report",
    "oracle",
    "cli",
    "verify",
)

# private names the roadmap targets, traced like public ones
PRIVATE = {"su2_cg": ("_racah_parts",)}

# methods patched on their class; dunder names drop their underscores
# in counter names, so __mul__ and __rmul__ both count as "mul"
METHODS = {
    ("exact", "ExactReal"): ("of", "sqrt", "coeff_sqrt", "__mul__", "__rmul__"),
    ("radicals", "RadicalSum"): (
        "from_exact",
        "as_exact",
        "as_fraction",
        "times_sqrt",
        "__add__",
        "__radd__",
        "__sub__",
        "__neg__",
        "__mul__",
        "__rmul__",
    ),
    ("report", "DeltaReport"): ("from_delta",),
}

HOT_LAYERS = ("exact", "radicals")
HOT_NAMES = ("su2_cg._racah_parts", "su2_cg.cg", "su2_cg.as_twoj")
SPAN_CAP = 500

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("exact.split_square.calls", "count"),
    ("exact.split_square.s", "s"),
    ("exact.split_square.bits_max", "bits"),
    ("exact.ExactReal.sqrt.calls", "count"),
    ("exact.ExactReal.mul.calls", "count"),
    ("exact.s", "s"),
    ("radicals.RadicalSum.mul.calls", "count"),
    ("radicals.RadicalSum.add.calls", "count"),
    ("radicals.dot.calls", "count"),
    ("radicals.s", "s"),
    ("su2_cg._racah_parts.calls", "count"),
    ("su2_cg._racah_parts.s", "s"),
    ("su2_cg.racah_terms", "count"),
    ("su2_cg.delta_su2.calls", "count"),
    ("su2_cg.delta_su2.s", "s"),
    ("su2_cg.cg.calls", "count"),
    ("su2_cg.cg.s", "s"),
    ("su2_cg.fact_cache.size", "count"),
    ("su2_cg.delta_bits_max", "bits"),
    ("su2_cg.s", "s"),
    ("symmetric.epsilon.calls", "count"),
    ("symmetric.epsilon.s", "s"),
    ("symmetric.bound_exponential.calls", "count"),
    ("symmetric.bound_exponential.s", "s"),
    ("symmetric.closed_form_sum.calls", "count"),
    ("symmetric.closed_form_sum.s", "s"),
    ("symmetric.delta_psi_weights.s", "s"),
    ("symmetric.s", "s"),
    ("heisenberg.delta_number_space.calls", "count"),
    ("heisenberg.delta_number_space.s", "s"),
    ("heisenberg.epsilon_heisenberg.calls", "count"),
    ("heisenberg.epsilon_heisenberg.s", "s"),
    ("heisenberg.s", "s"),
    ("weights.sym_weights.calls", "count"),
    ("weights.sym_weights.s", "s"),
    ("weights.w_r_set.s", "s"),
    ("weights.s", "s"),
    ("report.DeltaReport.from_delta.calls", "count"),
    ("report.DeltaReport.from_delta.s", "s"),
    ("report.s", "s"),
    ("oracle.cg_oracle.calls", "count"),
    ("oracle.cg_oracle.s", "s"),
    ("oracle.cg_oracle.entries", "count"),
    ("oracle.brute_delta_symmetric.s", "s"),
    ("oracle.heis_oracle.s", "s"),
    ("oracle.mc_theorem1.s", "s"),
    ("oracle.s", "s"),
    ("cli.figure_values.s", "s"),
    ("cli.render_csv.s", "s"),
    ("cli.main.s", "s"),
    ("cli.s", "s"),
    ("verify.weights.s", "s"),
    ("verify.cg.s", "s"),
    ("verify.symmetric.s", "s"),
    ("verify.heisenberg.s", "s"),
    ("verify.mc.s", "s"),
    ("verify.checks_failed", "count"),
    ("verify.s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# metrics computed from a call's arguments or result, by the traced name
# whose calls feed them
DERIVED = {
    "exact.split_square.bits_max": "exact.split_square",
    "su2_cg.racah_terms": "su2_cg._racah_parts",
    "su2_cg.delta_bits_max": "su2_cg.delta_su2",
    "oracle.cg_oracle.entries": "oracle.cg_oracle",
    "verify.weights.s": "verify.run_suites",
    "verify.cg.s": "verify.run_suites",
    "verify.symmetric.s": "verify.run_suites",
    "verify.heisenberg.s": "verify.run_suites",
    "verify.mc.s": "verify.run_suites",
    "verify.checks_failed": "verify.run_suites",
}


def _racah_terms(args, kwargs, result, acc) -> None:
    tj1, tm1, tj2, tm2, tj, _tm = args
    t_lo = max(0, (tj2 - tj - tm1) // 2, (tj1 + tm2 - tj) // 2)
    t_hi = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    acc["su2_cg.racah_terms"] = acc.get("su2_cg.racah_terms", 0) + max(0, t_hi - t_lo + 1)


def _split_bits(args, kwargs, result, acc) -> None:
    bits = args[0].bit_length()
    if bits > acc.get("exact.split_square.bits_max", 0):
        acc["exact.split_square.bits_max"] = bits


def _delta_bits(args, kwargs, result, acc) -> None:
    delta = result.delta
    if isinstance(delta, Fraction):
        bits = delta.numerator.bit_length() + delta.denominator.bit_length()
        if bits > acc.get("su2_cg.delta_bits_max", 0):
            acc["su2_cg.delta_bits_max"] = bits


def _table_entries(args, kwargs, result, acc) -> None:
    acc["oracle.cg_oracle.entries"] = acc.get("oracle.cg_oracle.entries", 0) + len(result)


def _suite_seconds(args, kwargs, result, acc) -> None:
    for suite, checks in result:
        key = f"verify.{suite}.s"
        acc[key] = acc.get(key, 0.0) + sum(c.seconds for c in checks)
        acc["verify.checks_failed"] = acc.get("verify.checks_failed", 0) + sum(
            not c.passed for c in checks
        )


OBSERVERS = {
    "su2_cg._racah_parts": _racah_terms,
    "exact.split_square": _split_bits,
    "su2_cg.delta_su2": _delta_bits,
    "oracle.cg_oracle": _table_entries,
    "verify.run_suites": _suite_seconds,
}


class Tracer:
    """Wraps the definetti layers; collects spans and counters per pass."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: set[str] = set()
        self._modules: set[str] = set()
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop the counters and spans of the previous pass."""
        # name -> [calls, inclusive s, self s, active depth, spans kept]
        self.stats: dict[str, list] = {}
        self.derived: dict[str, float] = {}
        self.spans: list[list] = []
        # frame = [seconds spent in wrapped children, enclosing span index]
        self._stack: list[list] = [[0.0, -1]]

    def _stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        return st

    def _enter(self, name: str, record: bool):
        parent = self._stack[-1]
        st = self._stat(name)
        span = parent[1]
        if record and st[4] < SPAN_CAP:
            st[4] += 1
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[1], 0.0])
        frame = [0.0, span]
        self._stack.append(frame)
        st[3] += 1
        return parent, st, frame, span != parent[1]

    def _exit(self, parent, st, frame, spanned, t0, t1) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent[0] += dur
        st[0] += 1
        st[2] += dur - frame[0]
        st[3] -= 1
        if st[3] == 0:  # count recursive calls once in the inclusive time
            st[1] += dur
        if spanned:
            span = self.spans[frame[1]]
            span[1], span[2], span[4] = t0, t1, dur - frame[0]

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (a pass or one operation)."""
        state = self._enter(name, True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(*state, t0, perf_counter())

    def _wrap(self, name: str, fn):
        hot = name.split(".", 1)[0] in HOT_LAYERS or name in HOT_NAMES
        observe = OBSERVERS.get(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter(name, not hot)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(*state, t0, perf_counter())
            if observe is not None:
                observe(args, kwargs, result, self.derived)
            return result

        self._wrapped.add(name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Import every layer module and wrap its traced names."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = {}
        for layer in LAYERS:
            try:
                layers[layer] = importlib.import_module(f"definetti.{layer}")
            except ImportError:
                continue
        self._modules = set(layers)
        package = [m for n, m in sys.modules.items() if n == "definetti" or n.startswith("definetti.")]
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for other in package:
                    for name, value in list(vars(other).items()):
                        if value is obj:
                            self._set(other, name, wrapper)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(layers.get(layer), cls_name, None)
            if cls is None:
                continue
            done: dict[int, object] = {}
            for attr in methods:
                raw = cls.__dict__.get(attr)
                if raw is None:
                    continue
                if id(raw) not in done:
                    name = f"{layer}.{cls_name}.{attr.strip('_')}"
                    if attr == "__radd__":
                        name = f"{layer}.{cls_name}.add"
                    elif attr == "__rmul__":
                        name = f"{layer}.{cls_name}.mul"
                    if isinstance(raw, classmethod):
                        done[id(raw)] = classmethod(self._wrap(name, raw.__func__))
                    elif inspect.isfunction(raw):
                        done[id(raw)] = self._wrap(name, raw)
                    else:
                        continue
                self._set(cls, attr, done[id(raw)])

    def restore(self) -> None:
        """Put back every object replaced by `install`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patches(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- metrics -----------------------------------------------------------

    def self_seconds(self) -> float:
        """Sum of the self times of every traced call and benchmark span."""
        return sum(st[2] for st in self.stats.values())

    def absent(self) -> list[str]:
        """Per-layer metrics whose traced function or module does not exist."""
        missing = []
        for metric, _unit in METRICS:
            if metric == "trace.overhead_frac":
                continue
            if metric == "su2_cg.fact_cache.size":
                present = _fact_cache_size() is not None
            else:
                source = _source(metric)
                if source is None:
                    present = metric.split(".", 1)[0] in self._modules
                else:
                    present = source in self._wrapped
            if not present:
                missing.append(metric)
        return missing

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last reset."""
        out: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + st[2]
        for metric, _unit in METRICS:
            if metric == "trace.overhead_frac":
                continue
            source = _source(metric)
            if metric == "su2_cg.fact_cache.size":
                out[metric] = _fact_cache_size() or 0
            elif metric in DERIVED:
                out[metric] = self.derived.get(metric, 0)
            elif source is None:
                out[metric] = layer_self.get(metric.split(".", 1)[0], 0.0)
            else:
                st = self.stats.get(source)
                calls = metric.endswith(".calls")
                out[metric] = 0 if st is None else (st[0] if calls else st[1])
        return out

    def write_spans(self, fh, pass_index: int) -> None:
        """Append this pass's spans as JSON lines."""
        for i, (name, start, end, parent, self_s) in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {"pass": pass_index, "id": i, "name": name, "start": start,
                     "end": end, "parent": parent, "self_s": self_s}
                )
                + "\n"
            )


def _source(metric: str) -> str | None:
    """The traced name a metric is read from; None for "<layer>.s", the
    layer's self time."""
    if metric in DERIVED:
        return DERIVED[metric]
    if metric.count(".") == 1:
        return None
    return metric.rsplit(".", 1)[0]


def _fact_cache_size():
    mod = sys.modules.get("definetti.su2_cg")
    info = getattr(getattr(mod, "_fact", None), "cache_info", None)
    return None if info is None else info().currsize


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes (the lower middle value, so
    that counts stay whole numbers)."""
    return {k: statistics.median_low(p[k] for p in passes) for k in passes[0]}
