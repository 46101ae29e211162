"""Timing and counting wrappers around the public calls of each module.

Installed only in traced worker processes.  Every wrapped call (and every
``next()`` of a wrapped generator) is a span; spans nest through a stack,
so a layer's self time is its span time minus the time of the spans it
directly caused.  Wrappers are installed on the name the caller looks up:
``census`` imports effectivity, toric and surface functions by name, while
it reaches ``weyl`` through the module.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# span name -> [(module name, attribute), ...]
_CALL_SPANS = {
    "weyl.pack_rows": [("weyl", "pack_rows")],
    "weyl.stabilizer_scan": [("weyl", "stabilizers_for_root_sets")],
    "weyl.stabilizer_perm": [("weyl", "stabilizer_elements_of_root_set")],
    "weyl.group_order": [("weyl", "group_order")],
    "effectivity.anticlass": [
        ("census", "is_effective_anticlass_fast"),
        ("effectivity", "is_effective_anticlass_fast"),
    ],
    "effectivity.solve": [("effectivity", "solve_root_combination")],
    "effectivity.hole": [("census", "is_hole"), ("effectivity", "is_hole")],
    "toric.checker": [
        ("census", "is_strong_exceptional"),
        ("census", "is_exceptional"),
        ("toric", "is_strong_exceptional"),
        ("toric", "is_exceptional"),
    ],
    "surface.catalog": [("census", "catalog_load"), ("surface", "catalog_load")],
}


class Tracer:
    """Span stack plus per-name self time, inclusive time and call counts."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, time of child spans]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.true_results: Counter = Counter()
        self.orbits: list[tuple[int, list[int]]] = []  # (degree, layer sizes)

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration

    def _switch(self, name: str) -> None:
        """Close the innermost span and open `name` in its place."""
        self._exit()
        self._enter(name)

    # -- wrappers --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every listed name that exists; a missing one reads as zero."""
        targets = [
            (module_name, attr, functools.partial(self._wrap_call, name))
            for name, names in _CALL_SPANS.items()
            for module_name, attr in names
        ]
        targets += [
            ("weyl", "orbit_layers", self._wrap_orbit),
            ("census", "census_for_preset", self._wrap_census),
        ]
        for module_name, attr, wrap in targets:
            fn = getattr(modules[module_name], attr, None)
            if fn is not None:
                setattr(modules[module_name], attr, wrap(fn))

    def _wrap_call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if result is True:
                self.true_results[name] += 1
            return result

        return wrapper

    def _wrap_orbit(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            lattice = args[0] if args else kwargs["lattice"]
            sizes: list[int] = []
            self.orbits.append((lattice.degree, sizes))
            while True:
                self._enter("weyl.orbit")
                try:
                    layer = next(gen)
                except StopIteration:
                    exhausted = True
                else:
                    exhausted = False
                finally:
                    self._exit()
                if exhausted:
                    # The census sweep ends when its orbit is exhausted;
                    # what follows inside census_for_preset is finalize.
                    if self.stack and self.stack[-1][0] == "census.sweep":
                        self._switch("census.finalize")
                    return
                sizes.append(int(layer.markers.shape[0]))
                yield layer

        return wrapper

    def _wrap_census(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter("census.sweep")
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()  # census.sweep, or census.finalize after a switch

        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans (names as in BENCHMARK.json)."""
        rows = sum(sum(sizes) for _, sizes in self.orbits)
        orbit_total_s = self.total_s["weyl.orbit"]
        anticlass = self.calls["effectivity.anticlass"]
        return {
            "weyl.orbit_s": self.self_s["weyl.orbit"],
            "weyl.rows_per_s": rows / orbit_total_s if orbit_total_s else 0.0,
            "weyl.orbit_rows": rows,
            "weyl.orbit_layers": sum(len(sizes) for _, sizes in self.orbits),
            "weyl.max_layer_rows": max(
                (max(sizes, default=0) for _, sizes in self.orbits), default=0
            ),
            "weyl.pack_rows_calls": self.calls["weyl.pack_rows"],
            "weyl.pack_rows_s": self.self_s["weyl.pack_rows"],
            "weyl.stabilizer_scan_s": self.self_s["weyl.stabilizer_scan"],
            "weyl.stabilizer_perm_s": self.self_s["weyl.stabilizer_perm"],
            "weyl.group_order_s": self.total_s["weyl.group_order"],
            "census.sweep_self_s": self.self_s["census.sweep"],
            "census.finalize_self_s": self.self_s["census.finalize"],
            "effectivity.anticlass_calls": anticlass,
            "effectivity.anticlass_s": self.self_s["effectivity.anticlass"],
            "effectivity.anticlass_reject_ratio": (
                self.true_results["effectivity.anticlass"] / anticlass
                if anticlass
                else 0.0
            ),
            "effectivity.solve_calls": self.calls["effectivity.solve"],
            "effectivity.solve_s": self.self_s["effectivity.solve"],
            "effectivity.hole_calls": self.calls["effectivity.hole"],
            "effectivity.hole_s": self.self_s["effectivity.hole"],
            "toric.checker_calls": self.calls["toric.checker"],
            "toric.checker_s": self.self_s["toric.checker"],
            "surface.catalog_s": self.self_s["surface.catalog"],
        }
