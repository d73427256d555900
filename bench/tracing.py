"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the fuzzytyp modules by
timing wrappers, in every fuzzytyp module namespace that holds them
(so `is_model_strict` is wrapped where `engine`, `weighted` and `cli`
imported it, too).  Spans are aggregated in memory per layer as they
close: calls, busy time (outermost call of a layer only, so recursion
is not counted twice) and self time (duration minus the time of the
spans and leaf calls it caused).  The algebra operations, called from
`interpretation` millions of times, are leaf calls: a count and busy
time, with no span stack of their own.  `uninstall()` puts the
original functions back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: layer -> [(defining module, function)]
SPANS = {
    "cli": [("fuzzytyp.cli", "main")],
    "engine.scan": [("fuzzytyp.engine", "check_entailment_bounded")],
    "engine.decode": [("fuzzytyp.engine", "interpretation_at")],
    "interpretation.strict": [("fuzzytyp.interpretation", "is_model_strict")],
    "interpretation.satisfies": [("fuzzytyp.interpretation", "satisfies")],
    "interpretation.axiom_degree": [("fuzzytyp.interpretation", "axiom_degree")],
    "interpretation.typical": [("fuzzytyp.interpretation", "typical_elements")],
    "weighted.fm_model": [("fuzzytyp.weighted", "is_fm_model")],
    "weighted.faithful": [("fuzzytyp.weighted", "is_faithful")],
    "weighted.coherent": [("fuzzytyp.weighted", "is_coherent")],
    "weighted.weight": [("fuzzytyp.weighted", "weight")],
    "postulates.search": [("fuzzytyp.postulates", "search_counterexample")],
    "postulates.check_instance": [("fuzzytyp.postulates", "check_instance")],
    "parser.read": [("fuzzytyp.parser", "parse_kb"), ("fuzzytyp.parser", "parse_interpretation"),
                    ("fuzzytyp.parser", "parse_axiom"), ("fuzzytyp.parser", "parse_concept")],
    "parser.write": [("fuzzytyp.parser", "serialize_kb"),
                     ("fuzzytyp.parser", "serialize_interpretation")],
    "syntax.validate": [("fuzzytyp.syntax", "validate_kb")],
    "mlp.parse": [("fuzzytyp.mlp", "parse_net"), ("fuzzytyp.mlp", "parse_stimuli")],
    "mlp.forward": [("fuzzytyp.mlp", "forward_pass")],
    "mlp.to_kb": [("fuzzytyp.mlp", "mlp_to_kb")],
}
#: Leaf layer -> (defining module, functions, the only namespace wrapped)
LEAVES = {
    "algebra": ("fuzzytyp.algebra", ("tnorm", "snorm", "implication", "negation"),
                "fuzzytyp.interpretation"),
}


class Layer:
    __slots__ = ("calls", "busy", "self_s", "depth", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.bytes = 0


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = defaultdict(Layer)
        self.stack: list[list[float]] = []  # child time of each open span
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # is_fm_model outcomes, and search time and trials per family
        self.strict_ok = 0
        self.unfaithful = 0
        self.family_s: dict[str, float] = defaultdict(float)
        self.family_trials: dict[str, int] = defaultdict(int)

    # -- hooks that read a wrapped call's arguments and result ----------

    def _after(self, layer: str, args: tuple, result: object, dt: float) -> None:
        if layer == "parser.read" and args and isinstance(args[0], str):
            self.layers[layer].bytes += len(args[0])
        elif layer == "parser.write" and isinstance(result, str):
            self.layers[layer].bytes += len(result)
        elif layer == "weighted.fm_model" and getattr(result, "strict_ok", False):
            self.strict_ok += 1
            self.unfaithful += not result.faithful
        elif layer == "postulates.search" and len(args) > 1:
            family = str(args[1])
            self.family_s[family] += dt
            self.family_trials[family] += getattr(getattr(result, "stats", None), "trials", 0)

    def _span(self, layer: str, fn):
        stats, stack, clock, after = self.layers[layer], self.stack, time.perf_counter, self._after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += dt - frame[0]
                if not stats.depth:
                    stats.busy += dt
                if stack:
                    stack[-1][0] += dt
            after(layer, args, result, dt)
            return result
        return wrapper

    def _leaf(self, layer: str, fn):
        stats, stack, clock = self.layers[layer], self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            stats.calls += 1
            stats.busy += dt
            if stack:
                stack[-1][0] += dt
            return result
        return wrapper

    def _patch(self, module: str, name: str, make, only: str | None = None) -> None:
        original = getattr(sys.modules.get(module), name, None)
        if original is None:
            self.missing.append(f"{module}.{name}")
            return
        wrapper = make(original)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "fuzzytyp" or modname.startswith("fuzzytyp.")):
                continue
            if only is not None and modname != only:
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
                self.patched.append((mod, name, original))

    def install(self) -> None:
        for layer, targets in SPANS.items():
            for module, name in targets:
                self._patch(module, name, functools.partial(self._span, layer))
        for layer, (module, names, only) in LEAVES.items():
            for name in names:
                self._patch(module, name, functools.partial(self._leaf, layer), only)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self.patched):
            setattr(mod, name, original)
        self.patched.clear()
