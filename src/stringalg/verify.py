"""Whole-corpus verification runs behind the command line front end."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .artheory import Catalog, catalog_for, enumerate_indecomposables
from .decomp import decompose
from .errors import StringAlgError, VerificationError
# hom_basis stays importable as verify.hom_basis: perfbench's tracer test
# patches and calls it through this alias
from .homalg import CoverData, hom_basis, hom_dim, middle_census, projective_cover  # noqa: F401
from .presentation import Presentation, validate_axioms
from .reps import Representation, projective, simple
from .wordext import certified_middle, word_extensions
from .words import check_finite_dimensional, format_walk


@dataclass
class CensusFinding:
    left_label: str
    right_label: str
    ext_dim: int
    histogram: dict[int, int]
    worst: int


@dataclass
class MiddleScanReport:
    ok: bool
    pair_count: int
    findings: list[CensusFinding] = field(default_factory=list)
    violations: list[CensusFinding] = field(default_factory=list)


def middle_term_scan(
    p: Presentation,
    max_dim: int,
    seed: int = 0,
    allow_non_string: bool = False,
    extra_modules: list[Representation] | None = None,
) -> MiddleScanReport:
    """Census over every ordered pair of indecomposables with nonzero
    extension space; reports any middle with more than two summands.

    On a string presentation the modules are the catalog members, each
    left module's cover is written from its word (Catalog.cover), and the
    gate, the cover's gate_row, reads the long exact Hom sequence off the
    table for every right module at once; the scan walks its nonzero
    entries.  Every such pair's extensions are listed off the words
    (wordext.word_extensions), and the list must be as long as the gate's
    count.  At dimension 1 the one listed middle, certified exact and
    non-split by wordext.certified_middle, is the middle of every line, and
    no Ext basis is built; at dimension 2 or more middle_census counts the
    lines on the left module's solved cover (projective_cover, built at
    most once per row) with the table's hom, and its verified Ext basis
    must have the gate's dimension.  With allow_non_string the catalog is
    the simples, the projectives and any supplied literal modules, each
    left module has a solved cover, and each pair is gated by
    cover.ext_dim(N, hom_dim(M, N)); middle_census builds a basis only
    where the gate is nonzero.  A simple has dimension 1 and P(v) a local
    endomorphism ring, so only the literals are certified indecomposable,
    by decompose; a string scan runs over the catalog of words and refuses
    literals.
    """
    if extra_modules and not allow_non_string:
        raise StringAlgError("literal modules need allow_non_string")
    modules: list[tuple[str, Representation, int | None]] = []  # (label, module, catalog index)
    cat = None
    if allow_non_string:
        candidates = [(f"S({v})", simple(p, v), False) for v in p.quiver.vertices]
        candidates += [(f"P({v})", projective(p, v), False) for v in p.quiver.vertices]
        candidates += [(f"literal{i}", m, True) for i, m in enumerate(extra_modules or [])]
        seen = []
        for label, m, literal in candidates:
            if m.total_dim == 0 or m.total_dim > max_dim:
                continue
            if literal and decompose(m, seed=seed).summand_count != 1:
                continue
            # only exact duplicates are dropped, such as S(v) = P(v) at a sink
            key = (m.dimension_vector(), m.mats)
            if key in seen:
                continue
            seen.append(key)
            modules.append((label, m, None))
    else:
        cat = catalog_for(p)
        cat.weights  # a bad Hom table is refused before the identity reads it
        for e in enumerate_indecomposables(p, max_dim):
            modules.append((f"M({format_walk(e.word)})", e.rep, e.index))
        scanned = np.array([e for _, _, e in modules], dtype=np.intp)
    report = MiddleScanReport(ok=True, pair_count=0)
    for la, ma, ia in modules:
        # one gate row per left module, and at most one solved cover
        if cat is None:
            cover = projective_cover(ma)
            homs = (hom_dim(ma, mb) for _, mb, _ in modules)
            row = ((right, hom, cover.ext_dim(right[1], hom)) for right, hom in zip(modules, homs))
        else:
            solved = functools.cache(functools.partial(projective_cover, ma))
            gate = cat.cover(cat.entries[ia]).gate_row()[scanned]
            row = ((modules[k], cat.hom[ia][modules[k][2]], int(gate[k])) for k in np.flatnonzero(gate))
        for (lb, mb, ib), hom, dim in row:
            if not dim:
                continue
            if cat is None:
                histogram = middle_census(cover, mb, hom, seed=seed).histogram
            else:
                histogram = _word_census(cat, solved, ia, ib, hom, dim, seed)
            report.pair_count += 1
            worst = max(histogram)
            finding = CensusFinding(la, lb, dim, histogram, worst)
            report.findings.append(finding)
            if worst > 2:
                report.ok = False
                report.violations.append(finding)
    return report


def _word_census(
    cat: Catalog, solved: Callable[[], CoverData], ia: int, ib: int, hom: int, dim: int, seed: int
) -> dict[int, int]:
    """The census histogram of Ext^1(M, N), M and N the members ia and ib
    with hom = dim Hom(M, N) and dim Ext^1 = dim > 0 by the gate of M's
    word cover, from the extensions the words list: at dimension 1 the
    listed middle's certified count on the one line; otherwise
    middle_census on solved(), M's solved cover, whose verified Ext basis
    must have the gate's dimension too."""
    M, N = cat.entries[ia].rep, cat.entries[ib].rep
    listed = word_extensions(cat, ia, ib)
    if len(listed) != dim:
        raise VerificationError(
            f"the words list {len(listed)} extensions of {M.label} by "
            f"{N.label} but the long exact Hom sequence gives {dim}"
        )
    if dim == 1:
        return {certified_middle(cat, ia, ib, listed[0]): 1}
    census = middle_census(solved(), N, hom, seed=seed)
    if census.ext_dim != dim:
        raise VerificationError(
            f"Ext^1({M.label}, {N.label}) has a basis of {census.ext_dim} on the solved cover "
            f"but the word cover's gate gives {dim}"
        )
    return census.histogram


@dataclass
class DegenerationRow:
    left_label: str
    right_label: str
    hom_leq: bool
    left_count: int
    right_count: int
    delta_formula: int | None
    consistent: bool


@dataclass
class DegenerationReport:
    ok: bool
    module_count: int
    pair_count: int
    rows: list[DegenerationRow]


def _direct_sums_up_to(cat: Catalog, max_dim: int):
    """All direct sums from the catalog with total dimension <= max_dim,
    one per multiset, as (label, parts) with parts the member indices in
    nondecreasing order.  No module is built."""
    labels = [f"M({format_walk(e.word)})" for e in cat.entries]
    widths = cat.widths
    out = []

    def rec(start: int, chosen: list[int], dim_left: int):
        if chosen:
            out.append(("+".join(labels[i] for i in chosen), chosen))
        for i in range(start, len(widths)):
            d = widths[i]
            if d <= dim_left:
                rec(i, chosen + [i], dim_left - d)

    rec(0, [], max_dim)
    return out


def degeneration_scan(p: Presentation, max_dim: int) -> DegenerationReport:
    """Ordered pairs of catalog direct sums within each dimension-vector
    class: whenever the hom order holds, the summand counts must be ordered
    and the accounting formula must equal their difference.

    Everything is integer array arithmetic on the catalog's Hom table.  The
    sums are the rows of a multiplicity matrix mult (sums x members), so
    their hom profiles are mult . hom^T and their dimension vectors
    mult . dimvecs, one product each, and a sum of k catalog modules has
    exactly k indecomposable summands (string modules are indecomposable,
    Butler and Ringel, and Krull-Schmidt holds).  Each class of g sums
    takes one g x g x n block D[a, b] = profile(b) - profile(a): the hom
    order is D >= 0 along the members, and the formula is D . coef for the
    one coefficient vector of Catalog.accounting_coefficients, built from
    the verified almost-split sequences at the members where some
    hom-ordered pair has delta nonzero.  One block is held at a time; each
    class keeps only its hom order and its hom-ordered deltas."""
    cat = catalog_for(p)
    sums = _direct_sums_up_to(cat, max_dim)
    n = len(cat.entries)
    mult = np.zeros((len(sums), n), dtype=np.int64)
    # one count at (sum, member) per part
    np.add.at(mult, ([s for s, (_, parts) in enumerate(sums) for _ in parts],
                     [i for _, parts in sums for i in parts]), 1)
    profiles = mult @ np.array(cat.hom, dtype=np.int64).T
    dimvecs = mult @ cat.dimvecs
    by_dimvec: dict[tuple, list[int]] = {}
    for s, key in enumerate(map(tuple, dimvecs.tolist())):
        by_dimvec.setdefault(key, []).append(s)
    classes = []  # (sum indices, hom order, delta of each hom-ordered pair)
    needed = np.zeros(n, dtype=bool)  # members where some hom-ordered delta is nonzero
    for group in by_dimvec.values():
        P = profiles[group]
        D = P[None, :, :] - P[:, None, :]
        leq = (D >= 0).all(axis=-1)
        ordered = D[leq]
        classes.append((group, leq, ordered))
        needed |= ordered.any(axis=0)
    coef = cat.accounting_coefficients(np.flatnonzero(needed).tolist())
    rows = []
    for group, leq, deltas in classes:
        formulas = iter((deltas @ coef).tolist())
        counted = [(sums[s][0], len(sums[s][1])) for s in group]  # (label, summand count)
        for ((la, ca), (lb, cb)), ok in zip(itertools.product(counted, repeat=2), leq.ravel().tolist()):
            formula = next(formulas) if ok else None
            consistent = not ok or (ca <= cb and formula == cb - ca)
            rows.append(DegenerationRow(la, lb, ok, ca, cb, formula, consistent))
    return DegenerationReport(all(r.consistent for r in rows), len(sums), len(rows), rows)


def axiom_summary(p: Presentation) -> tuple[bool, list[str]]:
    """Validation lines for the validate command; first value is the string
    verdict (axioms plus finite dimensionality)."""
    report = validate_axioms(p)
    finite, witness = check_finite_dimensional(p)
    lines = [
        f"S1={'ok' if report.s1 else 'violated'}",
        f"S2={'ok' if report.s2 else 'violated'}",
        f"S3={'ok' if report.s3 else 'violated'}",
        f"finite_dimensional={'yes' if finite else 'no'}",
    ]
    for v in report.violations:
        lines.append(f"violation: {v}")
    if witness is not None:
        lines.append("relation_free_cycle: " + " ".join(witness))
    return report.is_string and finite, lines
