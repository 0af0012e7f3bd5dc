"""Per-layer tracing for the kq2 benchmark, installed from outside kq2.

:meth:`Tracer.install` replaces every public module-level function of every
``kq2`` module by a timing wrapper, in each ``kq2`` module namespace that
binds it, so calls between modules are caught too.  Nothing under ``src/``
is edited.  A layer is a module; its self time is the time spent in its
public functions minus the time of the wrapped calls they make.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# Functions whose distinct arguments per op are counted (redundancy).
DISTINCT_ARGS = ("numtheory.factorize",)
# Functions whose result length is summed (work done, as a count).
RESULT_LEN = ("numtheory.reduced_forms",)


class Tracer:
    def __init__(self) -> None:
        # qualname -> [calls, inclusive ns (outermost calls only), self ns, depth]
        self.stats: dict[str, list[int]] = {}
        self.distinct: dict[str, int] = {name: 0 for name in DISTINCT_ARGS}
        self.items: dict[str, int] = {name: 0 for name in RESULT_LEN}
        self._seen: dict[str, set] = {name: set() for name in DISTINCT_ARGS}
        self._stack: list[list[int]] = []

    def install(self, package: str = "kq2") -> None:
        pkg = importlib.import_module(package)
        modules = [pkg] + [importlib.import_module(f"{package}.{info.name}")
                           for info in pkgutil.iter_modules(pkg.__path__)]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def begin_op(self) -> None:
        """Start a new op: distinct-argument counts are per op."""
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()

    def export(self) -> dict:
        self.begin_op()
        return {"stats": {k: v[:3] for k, v in self.stats.items()},
                "distinct": self.distinct, "items": self.items}

    def _wrap(self, qual: str, fn):
        rec = self.stats.setdefault(qual, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns
        seen = self._seen.get(qual)
        items = self.items if qual in RESULT_LEN else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0]
            stack.append(child)
            rec[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[3] -= 1
                rec[0] += 1
                if rec[3] == 0:
                    rec[1] += dt
                rec[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))))
            if items is not None:
                items[qual] += len(result)
            return result

        return wrapper


def merge(exports) -> dict:
    """Sum the exports of several traced processes."""
    out = {"stats": {}, "distinct": {}, "items": {}}
    for ex in exports:
        for k, v in ex["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0, 0])
            for i in range(3):
                acc[i] += v[i]
        for part in ("distinct", "items"):
            for k, v in ex[part].items():
                out[part][k] = out[part].get(k, 0) + v
    return out


def layer_metrics(trace: dict, ops: int, fields: int, adams_ops: int, stdout_bytes: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from a merged trace.

    ``ops`` counts the traced ops, ``fields`` the fields that went through
    the regularity oracle and ``adams_ops`` the adams commands.
    """
    stats = trace["stats"]

    def calls(q):
        return stats.get(q, (0, 0, 0))[0]

    def incl_s(q):
        return stats.get(q, (0, 0, 0))[1] / 1e9

    def self_s(layer):
        return sum(v[2] for k, v in stats.items() if k.startswith(layer + ".")) / 1e9

    def per(num, den):
        return num / den if den else 0.0

    verify_parts = ("verify.check_splittings", "verify.check_les", "verify.check_t_w")
    return {
        "numtheory.self_s": (self_s("numtheory"), "s"),
        "numtheory.reduced_forms.s": (incl_s("numtheory.reduced_forms"), "s"),
        "numtheory.reduced_forms.forms": (trace["items"].get("numtheory.reduced_forms", 0), "count"),
        "numtheory.class_numbers.s": (incl_s("numtheory.class_numbers"), "s"),
        "numtheory.dyadic_data.calls_per_field": (per(calls("numtheory.dyadic_data"), fields), "count"),
        "numtheory.fundamental_unit.calls_per_field": (per(calls("numtheory.fundamental_unit"), fields), "count"),
        "numtheory.factorize.calls": (calls("numtheory.factorize"), "count"),
        "numtheory.factorize.distinct_ratio": (
            per(trace["distinct"].get("numtheory.factorize", 0), calls("numtheory.factorize")), "ratio"),
        "numtheory.is_primitive_root.calls": (calls("numtheory.is_primitive_root"), "count"),
        "fields.validate_spec.calls": (calls("fields.validate_spec"), "count"),
        "fields.is_two_regular.calls_per_op": (per(calls("fields.is_two_regular"), ops), "count"),
        "fields.self_s": (self_s("fields"), "s"),
        "tables.query.calls": (calls("tables.query"), "count"),
        "tables.query.us_per_call": (per(incl_s("tables.query") * 1e6, calls("tables.query")), "us"),
        "tables.self_s": (self_s("tables"), "s"),
        "abgroup.direct_sum.calls": (calls("abgroup.direct_sum"), "count"),
        "abgroup.format_group.calls": (calls("abgroup.format_group"), "count"),
        "abgroup.self_s": (self_s("abgroup"), "s"),
        "verify.run_all.s": (incl_s("verify.run_all"), "s"),
        "verify.check_splittings.s": (incl_s("verify.check_splittings"), "s"),
        "verify.check_les.s": (incl_s("verify.check_les"), "s"),
        "verify.check_t_w.s": (incl_s("verify.check_t_w"), "s"),
        "verify.other_s": (max(0.0, incl_s("verify.run_all") - sum(incl_s(q) for q in verify_parts)), "s"),
        "adams.check_obstruction.s": (incl_s("adams.check_obstruction"), "s"),
        "adams.bracket.calls_per_op": (per(calls("adams.bracket"), adams_ops), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
    }
