"""Span recording around heatsync's public functions, from outside the package.

``Tracer.install`` swaps each listed function for a wrapper that records a
span (name, start, end, parent id) in memory, in every heatsync module that
holds a reference to it, so calls between modules are traced too.  A
function a later version of the package no longer has is skipped, and its
metrics read zero.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

LAYER_FUNCTIONS = {
    "cli": ("main", "load_scenario"),
    "graph": ("build_graph", "laplacian", "connected_components", "leader_mask"),
    "matrixkit": ("sym_eigenvalues", "is_negative_definite", "power_dominant"),
    "certify": ("certificate_matrix", "build_certificate", "build_certificate_normalized",
                "evaluate_certificate"),
    "gains": ("design", "search_g"),
    "pdesim": ("assemble_operator", "simulate", "sync_errors", "spectral_abscissa",
               "fit_decay_rate"),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts(name: str, result) -> dict:
    """Work counts read off a traced call's result."""
    if name == "matrixkit.sym_eigenvalues":
        return {"rotations": getattr(result, "iterations", 0)}
    if name == "certify.evaluate_certificate":
        return {"cert_dim": getattr(getattr(result, "matrix", None), "dim", 0)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            span.counts = _counts(name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "heatsync" or n.startswith("heatsync.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"heatsync.{layer}")
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(original, f"{layer}.{attr}")
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def inside(self, outer: str, name: str) -> float:
        """Time of spans named ``name`` that run below a span named ``outer``."""

        def under(s: Span) -> bool:
            p = s.parent
            while p is not None:
                if self.spans[p].name == outer:
                    return True
                p = self.spans[p].parent
            return False

        return sum(s.duration for s in self.spans if s.name == name and under(s))

    def self_times(self) -> dict[str, float]:
        """Per name: span time not covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.duration - child[s.id]
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, **({"counts": s.counts} if s.counts else {})}
            for s in self.spans
        ]
