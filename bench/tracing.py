"""In-process tracing of the package's layers, from outside the package.

``Tracer.install`` replaces public functions and methods of the package's
modules with wrappers, in every module namespace that holds a reference to
them, and ``uninstall`` puts the originals back.  A wrapper records calls and
self time (its duration minus the time of wrapped calls made inside it);
coarse layer boundaries also keep a span (name, start, end, parent, case) in
memory.  Hot ring operations keep no span, only their totals.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from math import comb
from typing import Any, Callable

# Each target: (metric prefix, module, attribute, how).  "span" keeps a span
# per call, "time" keeps only calls and self time, "count" only calls.  Two
# attributes may share a prefix; __rmul__ and __radd__ are wrapped as well as
# __mul__ and __add__.  The suite functions are wrapped so that their loop time
# is not counted as the CLI's own.
TARGETS = (
    ("cli.main", "cli", "main", "span"),
    ("chowring.poly_new.calls", "chowring", "GradedPoly.__init__", "count"),
    ("chowring.poly_mul", "chowring", "GradedPoly.__mul__", "time"),
    ("chowring.poly_mul", "chowring", "GradedPoly.__rmul__", "time"),
    ("chowring.poly_add", "chowring", "GradedPoly.__add__", "time"),
    ("chowring.poly_add", "chowring", "GradedPoly.__radd__", "time"),
    ("chowring.segre", "chowring", "segre_classes", "span"),
    ("chowring.integrate", "chowring", "integrate_over_pm", "time"),
    ("schur.det", "schur", "det", "time"),
    ("schur.jacobi_trudi", "schur", "jacobi_trudi_det", "time"),
    ("schur.complete_h", "schur", "complete_homogeneous_values", "time"),
    ("pushforward.plucker_power", "pushforward", "pushforward_plucker_power", "span"),
    ("pushforward.degree_terms", "pushforward", "degree_grassmann_bundle_terms", "span"),
    ("pushforward.rational_form", "pushforward", "pushforward_rational_form", "span"),
    ("pushforward.degree_classical", "pushforward", "degree_grassmannian_classical", "span"),
    ("oracles.localization", "oracles", "localization_pushforward", "time"),
    ("oracles.schur_at_roots", "oracles", "schur_form_at_roots", "time"),
    ("oracles.box_pieri", "oracles", "box_pieri_degree", "time"),
    ("oracles.suites", "oracles", "suite_theorem", "span"),
    ("oracles.suites", "oracles", "suite_remark", "span"),
    ("oracles.suites", "oracles", "suite_degrees", "span"),
    ("oracles.suites", "oracles", "verify_pushforward", "time"),
    ("partitions.enumerate", "partitions", "enumerate_partitions", "time"),
    ("tableaux.syt_hook", "tableaux", "syt_count_hook", "time"),
    ("rng.draws", "rng", "SplitMix64.next_u64", "count"),
)

PACKAGE = "pluckerpush"


def _coeff_bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _after_plucker_power(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["chowring.result_monomials"] += len(result.monomials)
    tracer.note_max("chowring.max_coeff_bits", _coeff_bits(result.monomials.values()))


def _after_rational_form(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.note_max("chowring.max_coeff_bits", _coeff_bits(result.monomials.values()))


def _after_degree_terms(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.note_max("chowring.max_coeff_bits", _coeff_bits(integral for _, _, integral in result))


def _after_det(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.note_max("schur.det.max_n", len(args[0]))


def _after_localization(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["oracles.localization.subsets"] += comb(len(args[2]), args[1])


def _after_enumerate(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["partitions.enumerate.items"] += len(result)


AFTER: dict[str, Callable[["Tracer", tuple, Any], None]] = {
    "pushforward.plucker_power": _after_plucker_power,
    "pushforward.rational_form": _after_rational_form,
    "pushforward.degree_terms": _after_degree_terms,
    "schur.det": _after_det,
    "oracles.localization": _after_localization,
    "partitions.enumerate": _after_enumerate,
}


def _package_modules() -> dict[str, object]:
    return {key: mod for key, mod in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")}


def wrappers_left() -> list[str]:
    """Names in the package's modules and classes that still hold a wrapper."""
    left = []
    for key, mod in _package_modules().items():
        for name, value in vars(mod).items():
            if hasattr(value, "__traced__"):
                left.append(f"{key}.{name}")
            if isinstance(value, type) and value.__module__ == key:
                left += [f"{key}.{name}.{a}" for a, v in vars(value).items() if hasattr(v, "__traced__")]
    return left


class Tracer:
    """Counters, self times and spans of one traced pass over a case list."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.case = -1
        self._stack: list[list] = []  # per active call: [child seconds, span index]
        self._patched: list[tuple[object, str, object]] = []

    def note_max(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _wrap(self, name: str, fn: Callable, how: str) -> Callable:
        counts = self.counts
        if how == "count":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            counted.__traced__ = name
            return counted

        stack, spans, self_s = self._stack, self.spans, self.self_s
        calls = name + ".calls"
        after = AFTER.get(name)
        keep_span = how == "span"

        def timed(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = len(spans) if keep_span else parent
            if keep_span:
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                counts[calls] += 1
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    spans[index] = (name, start, end, parent, self.case)
            if after is not None:
                after(self, args, result)
            return result

        timed.__traced__ = name
        return timed

    def install(self) -> None:
        modules = _package_modules()
        for name, module, attribute, how in TARGETS:
            owner = modules[f"{PACKAGE}.{module}"]
            if "." in attribute:
                cls_name, attr = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, how))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, how)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back, and fail if a wrapper is left anywhere."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        leftover = wrappers_left()
        if leftover:
            raise RuntimeError(f"wrappers not restored: {leftover}")

    def metrics(self) -> dict[str, float]:
        """Counters and self times by metric name."""
        out: dict[str, float] = dict(self.counts)
        for name, seconds in self.self_s.items():
            out[name + ".self_s"] = seconds
        return out
