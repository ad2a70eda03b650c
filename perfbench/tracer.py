"""Span tracer installed from outside the program.

The tracer replaces each traced function at every place it is bound -- the
defining module, every ``from .x import f`` alias in another stringalg
module, or the class dictionary for a method -- with a wrapper that records
a span: name, start, end, parent span and run id.  ``uninstall`` puts every
original back.  Nothing under ``src/`` knows about it.

Spans stay in memory; ``summarize`` turns them into per-layer calls and self
times, where self time is a span's duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: ``name`` is ``<layer>.<fn>``, ``attr`` the
    attribute path in ``module`` (``fn`` or ``Class.method``)."""

    name: str
    module: str
    attr: str
    # (suffix, fn(args, kwargs, result) -> int) pairs; each call adds the
    # amount to the counter "<name>.<suffix>"
    counts: tuple[tuple[str, Callable], ...] = ()
    # a hot constructor gets a call count and no span
    count_only: bool = False


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


_KERNEL_SIZE = (
    ("vars", lambda args, kwargs, result: _arg(args, kwargs, 0, "nvars")),
    ("eqs", lambda args, kwargs, result: len(_arg(args, kwargs, 1, "rows"))),
)
_EMITTED = (("emitted", lambda args, kwargs, result: len(result)),)
_SPLITS = (("splits", lambda args, kwargs, result: int(result is not None)),)


TARGETS: tuple[Target, ...] = (
    Target("linalg.matmul", "stringalg.linalg", "Matrix.__matmul__"),
    Target("linalg.rref", "stringalg.linalg", "Matrix.rref"),
    Target("linalg.charpoly", "stringalg.linalg", "Matrix.charpoly"),
    Target("linalg.factor_poly", "stringalg.linalg", "factor_poly"),
    Target("linalg.poly_divmod", "stringalg.linalg", "Poly.divmod"),
    Target("linalg.sparse_kernel", "stringalg.linalg", "sparse_kernel", _KERNEL_SIZE),
    Target("linalg.matrix_new", "stringalg.linalg", "Matrix.__init__", count_only=True),
    Target("homalg.hom_basis", "stringalg.homalg", "hom_basis"),
    Target("homalg.intertwiner_verify", "stringalg.homalg", "Intertwiner.verify"),
    Target("homalg.ext1", "stringalg.homalg", "ext1"),
    Target("homalg.projective_cover", "stringalg.homalg", "projective_cover"),
    Target("homalg.extension_of_cocycle", "stringalg.homalg", "extension_of_cocycle"),
    Target("homalg.ses_verify", "stringalg.homalg", "ShortExactSequence.verify"),
    Target("homalg.middle_census", "stringalg.homalg", "middle_census"),
    Target("decomp.decompose", "stringalg.decomp", "decompose"),
    Target("decomp.krylov_minpoly", "stringalg.decomp", "_krylov_minpoly"),
    Target("decomp.primary_components", "stringalg.decomp", "_primary_components", _SPLITS),
    Target("reps.subrepresentation", "stringalg.reps", "subrepresentation"),
    Target("reps.direct_sum", "stringalg.reps", "direct_sum"),
    Target("reps.cyclic_recipe_module", "stringalg.reps", "cyclic_recipe_module"),
    Target("reps.string_module_with_nodes", "stringalg.reps", "string_module_with_nodes"),
    Target("reps.projective_with_basis", "stringalg.reps", "projective_with_basis"),
    Target("artheory.catalog_build", "stringalg.artheory", "Catalog.__init__"),
    Target("artheory.hom_leq", "stringalg.artheory", "hom_leq"),
    Target("artheory.delta_count_formula", "stringalg.artheory", "delta_count_formula"),
    Target("words.enumerate_words", "stringalg.words", "enumerate_words", _EMITTED),
    Target("classify.classify", "stringalg.classify", "classify"),
    Target("classify.find_witness_triple", "stringalg.classify", "find_witness_triple"),
    Target("classify.build_witness", "stringalg.classify", "build_witness"),
    Target("verify.middle_term_scan", "stringalg.verify", "middle_term_scan"),
    Target("verify.degeneration_scan", "stringalg.verify", "degeneration_scan"),
    Target("presentation.load_presentation", "stringalg.presentation", "load_presentation"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    run: int = 0
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn: Callable, counts=()) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        for suffix, _ in counts:
            counters.setdefault(f"{name}.{suffix}", 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.run)
            for suffix, amount in counts:
                counters[f"{name}.{suffix}"] += amount(args, kwargs, result)
            return result

        return traced

    def count_calls(self, name: str, fn: Callable) -> Callable:
        counters = self.counters
        key = f"{name}.calls"
        counters.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target at each binding site; absent ones are listed
        in ``self.absent`` instead."""
        for t in targets:
            original, owner, key = _resolve(t)
            if original is None:
                self.absent.append(t.name)
                continue
            if t.count_only:
                wrapper = self.count_calls(t.name, original)
            else:
                wrapper = self.wrap(t.name, original, t.counts)
            if owner is not None:
                # a method: the class dictionary is its only binding site
                self._patch(owner, key, wrapper)
                continue
            for module, name in alias_sites(original):
                self._patch(module, name, wrapper)

    def _patch(self, obj, key: str, value) -> None:
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)


def _resolve(t: Target):
    """(original, owning class or None, attribute key); original is None when
    the module, class or attribute no longer exists."""
    try:
        module = importlib.import_module(t.module)
    except ImportError:
        return None, None, None
    head, _, meth = t.attr.partition(".")
    obj = getattr(module, head, None)
    if not meth:
        return obj, None, head
    if obj is None or meth not in vars(obj):
        return None, None, None
    return vars(obj)[meth], obj, meth


def alias_sites(fn) -> list[tuple[object, str]]:
    """(module, global name) for every global of a loaded stringalg module
    that is bound to ``fn``."""
    return [
        (mod, key)
        for modname, mod in sorted(sys.modules.items())
        if mod is not None and (modname == "stringalg" or modname.startswith("stringalg."))
        for key, value in list(vars(mod).items())
        if value is fn
    ]


# -- summaries ------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    """Wall time inside each span name, children included; a span nested in
    another of the same name is not counted twice."""
    out: dict[str, float] = {}
    for s in spans:
        up = s.parent
        while up >= 0 and spans[up].name != s.name:
            up = spans[up].parent
        if up < 0:
            out[s.name] = out.get(s.name, 0.0) + s.end - s.start
    return out


def summarize(tracer: Tracer, targets=TARGETS) -> dict[str, float]:
    """``<name>.calls`` and ``<name>.self_s`` per present target, plus the
    counters the targets define."""
    out: dict[str, float] = {}
    for t in targets:
        if t.name in tracer.absent or t.count_only:
            continue
        out[f"{t.name}.calls"] = 0
        out[f"{t.name}.self_s"] = 0.0
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        if f"{s.name}.calls" in out:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += own
    out.update(tracer.counters)
    if "decomp.primary_components.calls" in out:
        tried = out["decomp.primary_components.calls"]
        out["decomp.split_yield"] = out["decomp.primary_components.splits"] / tried if tried else 0.0
    return out
