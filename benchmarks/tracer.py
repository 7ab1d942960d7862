"""Span tracer that wraps the public functions of ``l2approx`` from outside.

The library has no tracing of its own.  ``install`` replaces every public
module-level function of the traced modules, plus a few named classes and
methods, with a wrapper that opens a span around the call.  Functions that
other modules import by name (``from .spectral import density_from_eigs``)
are rebound at every binding site, so a call is traced whichever module
makes it.

A span's self time is its duration minus the durations of its child spans.
Spans nest strictly because the traced program is single-threaded, so the
self times of all spans add up to the durations of the top-level spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

# The package's modules, in layer order; each one is a layer of the split.
# groupring is absent on purpose: it has no coarse public entry point, and
# its exact arithmetic is timed inside the matrices and schemes spans.
LAYERS = ("jsonio", "groups", "matrices", "spectral", "oracles", "schemes", "cw", "cli")

# jsonio's reading side is one span; the readers call one another.
JSONIO_PARSE = "jsonio.parse"

# Methods and constructors traced in addition to module-level functions:
# (module, class, attribute, span name).
METHODS = (
    ("groups", "FiniteTableGroup", "__init__", "groups.FiniteTableGroup"),
    ("groups", "Homomorphism", "__init__", "groups.Homomorphism"),
    ("matrices", "RingMatrix", "push_forward", "matrices.push_forward"),
    ("spectral", "SpectralDensity", "evaluate", "spectral.SpectralDensity.evaluate"),
)


class Tracer:
    """In-memory spans plus counters; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []  # [span index, child time]
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()

    def open(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append([len(self.spans) - 1, 0.0])

    def close(self) -> None:
        end = self.clock()
        index, child = self.stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - child
        self.calls[span[0]] += 1
        if self.stack:
            self.stack[-1][1] += duration

    def innermost(self):
        return self.spans[self.stack[-1][0]][0] if self.stack else None

    def wrap(self, name: str, fn, count=None):
        """Wrapper opening span ``name``; ``count(tracer, args, result)``
        records counters.  A call made directly inside a span of the same
        name (recursion, or readers calling readers) joins that span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.innermost() == name:
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def roots_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent == -1)

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"self_s": self.self_s[name], "calls": self.calls[name]}
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "roots_s": self.roots_s(),
            "span_count": len(self.spans),
        }


# ---------------------------------------------------------------------------
# counters recorded at span boundaries
# ---------------------------------------------------------------------------

def _count_table(tr, args, result):
    tr.counts["groups.FiniteTableGroup.elements"] += len(args[0].table)


def _count_density(tr, args, result):
    tr.counts["spectral.density_from_eigs.eigenvalues"] += len(args[0].eigenvalues)
    tr.counts["spectral.density_from_eigs.jumps"] += len(result.jumps)


def _count_eigensolve(tr, args, result):
    tr.counts["spectral.hermitian_eigenvalues.dim_sum"] += len(result)


def _count_symbol(tr, args, result):
    tr.counts["oracles.torus_symbol_eigenvalues.points"] += len(result) // max(1, args[0].rows)


def _count_levels(tr, args, result):
    tr.counts["schemes.levels"] += len(result)
    for rep in result:
        tr.counts["schemes.trace_powers_attempted"] += len(rep.trace_certified)
        tr.counts["schemes.trace_powers_certified"] += sum(map(bool, rep.trace_certified.values()))


COUNTERS = {
    "groups.FiniteTableGroup": _count_table,
    "spectral.density_from_eigs": _count_density,
    "spectral.hermitian_eigenvalues": _count_eigensolve,
    "oracles.torus_symbol_eigenvalues": _count_symbol,
    "schemes.run_tower": _count_levels,
    "schemes.run_folner": _count_levels,
}


def _span_name(layer: str, name: str) -> str:
    if layer == "jsonio" and (name.startswith("parse_") or name == "load_json"):
        return JSONIO_PARSE
    return f"{layer}.{name}"


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield name, value


def install(tracer: Tracer, package: str = "l2approx") -> None:
    """Wrap the package's public functions, at every binding site, and the
    METHODS.  The package must be imported."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    replacements = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for name, fn in _public_functions(module):
            span = _span_name(layer, name)
            replacements[id(fn)] = (fn, tracer.wrap(span, fn, COUNTERS.get(span)))
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for layer, cls_name, attr, span in METHODS:
        cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), COUNTERS.get(span)))
