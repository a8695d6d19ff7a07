"""Spans and work counters around the public functions of each cmquartic module.

The wrappers live here, in the benchmark, so the package itself is never
edited.  `Tracer.install` replaces every binding of each wrapped function
object across the loaded `cmquartic.*` namespaces: `from .x import f` copies
the reference, so wrapping only the defining module would miss callers.
`Tracer.uninstall` puts the original objects back.

A span's self time is its duration minus the time covered by wrapped
children.  Work counters are derived from the arguments and results of the
wrapped calls, so they never change what the program computes.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable

#: module -> wrapped public functions
WRAPPED: dict[str, tuple[str, ...]] = {
    "arith": ("factor", "squarefree_part", "is_squarefree", "is_prime",
              "count_roots_mod_p", "primes_in_progression"),
    "quadratic": ("quadratic_field", "class_number_imaginary", "narrow_class_number_real",
                  "class_number_real", "fundamental_unit", "regulator"),
    "dirichlet": ("characters_of_order_dividing_4", "bernoulli_B1"),
    "cyclic_quartic": ("discriminant", "hasse_Q", "regulator", "associated_quartic_character",
                       "relative_class_number", "class_number", "field_invariants",
                       "same_field"),
    "biquadratic": ("biquadratic", "discriminant", "hasse_Q", "regulator", "class_number",
                    "field_invariants"),
    "families": ("cyclic_pair_report", "cyclic_family", "sieve_t", "regulator_target",
                 "dedekind_residue"),
    "cli": ("main",),
}

#: functions whose useful fraction is distinct arguments per op over calls;
#: each key function gets the call's arguments in signature order
_DEDUP_KEYS: dict[str, Callable] = {
    "dirichlet.bernoulli_B1": lambda args: (args[0].modulus, tuple(args[0].exponents)),
    "quadratic.fundamental_unit": lambda args: args[0],
    "arith.factor": lambda args: args[0],
    "cyclic_quartic.discriminant": lambda args: tuple(args[:2]),
}

#: functions whose arguments or result feed a work counter
_COUNTED = {"dirichlet.bernoulli_B1", "dirichlet.characters_of_order_dividing_4",
            "quadratic.class_number_imaginary", "families.sieve_t"}


def function_keys() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, (_, unit) in layer_metrics(Tracer().state(), 0.0).items()]


def _sieve_candidates(t_min: int, t_max: int, residue: int) -> int:
    first = t_min + (residue - t_min) % 8
    return max(0, (t_max - first) // 8 + 1)


class Tracer:
    """Per-function call counts, self and inclusive time, and work counters.

    `clock` is injectable so tests can check the self-time arithmetic.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls = {k: 0 for k in function_keys()}
        self.self_s = {k: 0.0 for k in function_keys()}
        self.incl_s = {k: 0.0 for k in function_keys()}
        self.counters = {"bernoulli_terms": 0, "character_candidates": 0,
                         "abs_disc": 0, "sieve_candidates": 0}
        self.distinct = {k: 0 for k in _DEDUP_KEYS}
        self._op_seen: dict[str, set] = {k: set() for k in _DEDUP_KEYS}
        # time covered by wrapped children, one slot per open span
        self._stack: list[float] = []
        self._installed: list[tuple[object, str, object]] = []
        # `dirichlet.unit_group` runs once per B1 term, so it is read from its
        # lru cache statistics instead of being wrapped
        self._unit_group = None
        self._unit_group0 = None

    def begin_op(self) -> None:
        """Start a new op: distinct-argument sets are per op."""
        for seen in self._op_seen.values():
            seen.clear()

    def wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = self.clock
        dedup = _DEDUP_KEYS.get(key)
        sig = inspect.signature(fn) if dedup or key in _COUNTED else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += elapsed - children
                self.incl_s[key] += elapsed
                if stack:
                    stack[-1] += elapsed
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(key, tuple(bound.arguments.values()), result, dedup)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _count(self, key: str, args: tuple, result, dedup) -> None:
        if dedup is not None:
            seen = self._op_seen[key]
            arg_key = dedup(args)
            if arg_key not in seen:
                seen.add(arg_key)
                self.distinct[key] += 1
        if key == "dirichlet.bernoulli_B1":
            self.counters["bernoulli_terms"] += args[0].modulus
        elif key == "dirichlet.characters_of_order_dividing_4":
            self.counters["character_candidates"] += len(result)
        elif key == "quadratic.class_number_imaginary":
            self.counters["abs_disc"] += abs(args[0])
        elif key == "families.sieve_t":
            self.counters["sieve_candidates"] += _sieve_candidates(*args[:3])

    def install(self) -> None:
        """Wrap every binding of each listed function in the loaded cmquartic modules."""
        import importlib

        namespaces = [importlib.import_module(f"cmquartic.{mod}") for mod in WRAPPED]
        namespaces += [m for name, m in sorted(sys.modules.items())
                       if (name == "cmquartic" or name.startswith("cmquartic."))
                       and m not in namespaces]
        originals: dict[int, Callable] = {}
        for mod, fns in WRAPPED.items():
            owner = sys.modules[f"cmquartic.{mod}"]
            for fn_name in fns:
                fn = owner.__dict__[fn_name]
                originals[id(fn)] = self.wrap(f"{mod}.{fn_name}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(ns, attr, wrapper)
                    self._installed.append((ns, attr, value))
        self._unit_group = sys.modules["cmquartic.dirichlet"].unit_group
        self._unit_group0 = self._unit_group.cache_info()

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._installed):
            setattr(ns, attr, value)
        self._installed.clear()

    def state(self) -> dict:
        """Raw sums since `install`, which add across processes (see `merge_states`).

        `import_s` is filled in by the traced CLI entry point.
        """
        hits = misses = 0
        if self._unit_group is not None:
            now, then = self._unit_group.cache_info(), self._unit_group0
            hits, misses = now.hits - then.hits, now.misses - then.misses
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "counters": dict(self.counters),
                "distinct": dict(self.distinct),
                "unit_group": {"hits": hits, "misses": misses}, "import_s": 0.0}


def merge_states(states: list[dict]) -> dict:
    """Sum raw tracer states from several processes."""
    total = {"calls": {}, "self_s": {}, "incl_s": {}, "counters": {}, "distinct": {},
             "unit_group": {}, "import_s": 0.0}
    for st in states:
        for section in ("calls", "self_s", "incl_s", "counters", "distinct", "unit_group"):
            for k, v in st[section].items():
                total[section][k] = total[section].get(k, 0) + v
        total["import_s"] += st["import_s"]
    return total


def _ratio(num: float, den: float) -> float:
    # a ratio whose base is zero is reported as 0; the base is its own metric
    return num / den if den else 0.0


def layer_metrics(state: dict, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a (merged) raw tracer state."""
    calls, self_s, incl_s = state["calls"], state["self_s"], state["incl_s"]
    ctr, distinct = state["counters"], state["distinct"]
    out: dict[str, tuple[float, str]] = {}
    for key in function_keys():
        out[f"{key}.calls"] = (calls.get(key, 0), "count")
        out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    for mod, fns in WRAPPED.items():
        out[f"{mod}.self_s"] = (sum(self_s.get(f"{mod}.{fn}", 0.0) for fn in fns), "s")
    b1, cn, sv = "dirichlet.bernoulli_B1", "quadratic.class_number_imaginary", "families.sieve_t"
    hits, misses = state["unit_group"].get("hits", 0), state["unit_group"].get("misses", 0)
    out.update({
        f"{b1}.terms": (ctr.get("bernoulli_terms", 0), "count"),
        f"{b1}.terms_per_s": (_ratio(ctr.get("bernoulli_terms", 0), incl_s.get(b1, 0.0)), "1/s"),
        f"{b1}.useful_frac": (_ratio(distinct.get(b1, 0), calls.get(b1, 0)), "frac"),
        "dirichlet.characters_of_order_dividing_4.candidates":
            (ctr.get("character_candidates", 0), "count"),
        "dirichlet.unit_group.lookups": (hits + misses, "count"),
        "dirichlet.unit_group.hit_frac": (_ratio(hits, hits + misses), "frac"),
        f"{cn}.abs_disc": (ctr.get("abs_disc", 0), "count"),
        f"{cn}.abs_disc_per_s": (_ratio(ctr.get("abs_disc", 0), incl_s.get(cn, 0.0)), "1/s"),
    })
    for key in ("quadratic.fundamental_unit", "arith.factor", "cyclic_quartic.discriminant"):
        out[f"{key}.useful_frac"] = (_ratio(distinct.get(key, 0), calls.get(key, 0)), "frac")
    out.update({
        f"{sv}.candidates": (ctr.get("sieve_candidates", 0), "count"),
        f"{sv}.candidates_per_s":
            (_ratio(ctr.get("sieve_candidates", 0), incl_s.get(sv, 0.0)), "1/s"),
        "cli.import_s": (state["import_s"], "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    })
    return out
