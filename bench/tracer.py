"""Tracing of stabkit from outside the library.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the name wherever the program looks it up: module attributes,
names imported with ``from ... import`` into other stabkit modules, and
values of module-level dicts (the CLI's dispatch table).  ``uninstall``
puts the originals back.  Most wrappers record a span (name, start, end,
parent span, operation); the hot predicates get count-only wrappers.
Spans stay in memory and are written out at the end of a run.

Run as a script, this file is the trace host for the subprocess
workloads: ``python bench/tracer.py OUT.json <stabkit CLI arguments>``
imports the CLI from the checkout's ``src/``, installs the tracer, runs
the command with the same stdout and exit code as ``python -m stabkit.cli``
and writes the trace to OUT.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("cli", "session", "stability", "quivrep", "linalg", "slicing", "stabspace", "exactnum", "ellcurve")

# Hot predicates: counted, never timed, so tracing does not swamp them.
COUNT_ONLY = {
    "linalg": {"field_by_name", "mat_mul", "mat_vec", "identity_matrix", "zero_matrix", "rref",
               "reduce_vector", "in_span", "span_coordinates", "rank", "right_kernel"},
    "stability": {"phase"},
    "quivrep": {"dim_add", "dim_sub", "dims_proportional", "euler_form"},
    "stabspace": {"mat2", "mat2_det", "mat2_mul", "mat2_inv", "mat2_apply", "charge_matches_key",
                  "root_float", "root_bounds", "cmp_roots"},
    "exactnum": {"sign_of", "is_zero_scalar", "scalar_to_float", "fmt_scalar", "cross", "dot",
                 "in_strict_upper_half", "normalize_direction", "cmp_phase", "ccw_displacement",
                 "phase_key_anchor", "phase_float", "phase_diff_float", "parse_rational", "fmt_complex"},
    "ellcurve": {"euler_form_curve", "std_charge"},
}


def _scalar_key(x):
    if hasattr(x, "d"):
        return (x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator, x.d)
    return (x.numerator, x.denominator)


class Tracer:
    """Spans and counters for the calls one process makes into stabkit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name, start_ns, end_ns, parent, op]
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.op = 0
        self.distinct: Counter = Counter()  # distinct inputs, summed over operations
        self._seen: dict[str, set] = {}
        self._zkeys: dict[int, tuple] = {}
        self.submodules = 0
        self.first_enumeration: list[int | None] = []  # per operation
        self.subspaces_held = 0  # peak over operations
        self._subspace_sizes: dict[tuple, int] = {}
        self.subspaces_misses = 0
        self._misses_at_op_start = 0
        self._patches: list = []
        self._subspaces = None

    # --- bookkeeping per operation ---

    def begin_op(self):
        self._seen = {}
        self._zkeys = {}
        self.first_enumeration.append(None)
        if self._subspaces is not None:
            self._misses_at_op_start = self._subspaces.cache_info().misses

    def end_op(self):
        for name, keys in self._seen.items():
            self.distinct[name] += len(keys)
        self._seen = {}
        self._zkeys = {}
        if self._subspaces is not None:
            self.subspaces_misses += self._subspaces.cache_info().misses - self._misses_at_op_start
        self.subspaces_held = max(self.subspaces_held, sum(self._subspace_sizes.values()))
        self.op += 1

    def _see(self, name, key):
        seen = self._seen.get(name)
        if seen is None:
            seen = self._seen[name] = set()
        seen.add(key)

    def _charge_key(self, Z):
        # memo by identity; the memo holds Z so ids stay unique for the operation
        got = self._zkeys.get(id(Z))
        if got is None:
            key = tuple((_scalar_key(z.re), _scalar_key(z.im)) for z in Z.values)
            got = self._zkeys[id(Z)] = (Z, key)
        return got[1]

    # --- wrappers ---

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _span_wrapper(self, name: str, fn, observe=None):
        idx = self._name(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, clock(), 0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn, observe=None):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if observe is not None:
                observe(args)
            return fn(*args, **kwargs)

        return wrapper

    def _observe_phase(self, args):
        alpha, Z = args[0], args[1]
        self._see("stability.phase", (tuple(alpha), self._charge_key(Z)))

    def _observe_enumeration(self, args, kwargs, result):
        rep = args[0]
        self._see("quivrep.enumerate_submodules",
                  (rep.field.name, rep.quiver.arrows, rep.dims, rep.maps, args[1:], tuple(kwargs.items())))
        self.submodules += len(result)
        if self.first_enumeration[-1] is None:
            self.first_enumeration[-1] = len(result)

    def _observe_decompose(self, args, kwargs, result):
        fc, view = args[0], args[1]
        parts = tuple((k, rep.field.name, rep.dims, rep.maps) for k, rep in fc.parts)
        self._see("slicing.hn_decompose", (parts, self._charge_key(view.charge), args[2:]))

    def _observe_subspaces(self, args, kwargs, result):
        self._subspace_sizes[tuple(args)] = len(result)

    def install(self):
        """Wrap the public functions of the traced modules, in place."""
        import importlib

        mods = {m: importlib.import_module(f"stabkit.{m}") for m in MODULES}
        observers = {
            "stability.phase": self._observe_phase,
            "quivrep.enumerate_submodules": self._observe_enumeration,
            "slicing.hn_decompose": self._observe_decompose,
            "linalg.subspaces": self._observe_subspaces,
        }
        wrapped: dict[int, tuple] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{short}.{attr}"
                if attr in COUNT_ONLY.get(short, ()):
                    wrapper = self._count_wrapper(name, obj, observers.get(name))
                else:
                    wrapper = self._span_wrapper(name, obj, observers.get(name))
                wrapped[id(obj)] = (obj, wrapper)
        self._subspaces = mods["linalg"].subspaces
        self._misses_at_op_start = self._subspaces.cache_info().misses
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "stabkit" or modname.startswith("stabkit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrapped.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]
                            self._patches.append((obj, key, val))
        quad = mods["exactnum"].QuadScalar
        original_post_init = quad.__post_init__
        calls = self.calls

        def post_init(obj):
            calls["exactnum.QuadScalar.constructed"] += 1
            original_post_init(obj)

        quad.__post_init__ = post_init
        self._patches.append((quad, "__post_init__", original_post_init))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "calls": dict(self.calls),
            "distinct": dict(self.distinct),
            "submodules": self.submodules,
            "first_enumeration": self.first_enumeration,
            "subspaces_held": self.subspaces_held,
            "subspaces_misses": self.subspaces_misses,
        }


def span_stats(names, spans) -> dict:
    """Per span name: calls, inclusive ms (outermost spans of that name
    only) and self ms.

    Self time is taken per layer: a span loses the time of child spans in
    another module, while a same-module child passes its own
    other-module children up, so ``cli.run`` self time is argparse,
    dispatch and output, without the work it dispatched.
    """
    n = len(spans)
    module = [names[s[0]].split(".", 1)[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    excl = [0] * n
    for i in range(n - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0:
            excl[parent] += dur[i] if module[i] != module[parent] else excl[i]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        name = names[s[0]]
        st = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        st["calls"] += 1
        st["self_ms"] += (dur[i] - excl[i]) / 1e6
        parent, nested = s[3], False
        while parent >= 0:
            if spans[parent][0] == s[0]:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            st["ms"] += dur[i] / 1e6
    return out


def merge(traces: list[dict]) -> dict:
    """One trace out of several (one per process), operations renumbered."""
    names: list[str] = []
    index: dict[str, int] = {}
    spans: list[list[int]] = []
    calls: Counter = Counter()
    distinct: Counter = Counter()
    merged = {"submodules": 0, "first_enumeration": [], "subspaces_held": 0, "subspaces_misses": 0,
              "import_ms": [tr["import_ms"] for tr in traces]}
    op_base = 0
    for tr in traces:
        remap = []
        for name in tr["names"]:
            if name not in index:
                index[name] = len(names)
                names.append(name)
            remap.append(index[name])
        base = len(spans)
        for name_i, start, end, parent, op in tr["spans"]:
            spans.append([remap[name_i], start, end, parent + base if parent >= 0 else -1, op + op_base])
        calls.update(tr["calls"])
        distinct.update(tr["distinct"])
        merged["submodules"] += tr["submodules"]
        merged["first_enumeration"] += tr["first_enumeration"]
        merged["subspaces_held"] = max(merged["subspaces_held"], tr["subspaces_held"])
        merged["subspaces_misses"] += tr["subspaces_misses"]
        op_base += len(tr["first_enumeration"])
    merged.update(names=names, spans=spans, calls=dict(calls), distinct=dict(distinct))
    return merged


def host(out_path: str, argv: list[str]) -> int:
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter_ns()
    import stabkit.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    try:
        code = stabkit.cli.main(argv)
    finally:
        tracer.end_op()
        sys.stdout.flush()
        data = tracer.to_json()
        data["import_ms"] = import_ns / 1e6
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(host(sys.argv[1], sys.argv[2:]))
