"""Maps between direct sums of catalog members, carried as the keys of the
graph maps of the catalog's Hom table, and the one certificate of a short
exact sequence of such maps.

A map from the direct sum of the members at sources to that of the
members at targets is a list of blocks (k, t, key, sign): sign times the
table's graph map at key from the k-th source summand to the t-th target
summand.  A graph map is a run of nodes (Catalog.run): it sends node i + x
of its source's word to node j + d*x of its target's, x = 0..m, d = +-1,
and each node is one basis vector of its string module, so the block's
entries are sign at those positions and 0 elsewhere.  Blocks at the same
(k, t) add mod q.  certify_sequence checks a sequence of two such maps on
the runs alone: a member's projective cover (Catalog.cover), a middle read
off the words (wordext.certified_middle) and an almost-split sequence
(Catalog.ar_sequence) all pass it, and no matrix or module is built.
"""

from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING

from .errors import VerificationError

if TYPE_CHECKING:
    from .artheory import Catalog


def _added(runs: list[tuple], q: int) -> list[tuple]:
    """The runs (k, t, i, j, d, m, value), each at its block position (k, t),
    with the positions that several runs share added mod q, and only the
    nonzero ones kept.  Equal runs add their values; when no two of the
    runs left share a block position they share no position either, and
    otherwise they are summed node by node, each nonzero sum a run of one
    node."""
    summed: dict[tuple, int] = {}
    for r in runs:
        summed[r[:6]] = summed.get(r[:6], 0) + r[6]
    runs = [(*run, v) for run, v in summed.items() if v % q]
    if len({r[:2] for r in runs}) == len(runs):
        return runs
    total: dict[tuple[int, int, int, int], int] = {}
    for k, t, i, j, d, m, v in runs:
        for x in range(m + 1):
            at = (k, t, i + x, j + d * x)
            total[at] = total.get(at, 0) + v
    return [(*at, 1, 0, v) for at, v in total.items() if v % q]


def _map_runs(cat: Catalog, sources: list[int], targets: list[int], blocks: list) -> list[tuple]:
    """The nonzero entries of the map with the given blocks as runs
    (_added); a key the table does not hold is refused."""
    runs = [(k, t, *cat.run(sources[k], targets[t], key), sign) for k, t, key, sign in blocks]
    return _added(runs, cat.p.q)


def _sources(runs: list[tuple]) -> list[tuple[int, int, int]]:
    """Each run's source summand with the interval of its nodes it maps."""
    return [(k, i, i + m) for k, _, i, _, _, m, _ in runs]


def _targets(runs: list[tuple]) -> list[tuple[int, int, int]]:
    """Each run's target summand with the interval of its nodes it hits."""
    return [(t, min(j, j + d * m), max(j, j + d * m)) for _, t, _, j, d, m, _ in runs]


def _disjoint(spans: list[tuple[int, int, int]]) -> bool:
    """Whether no two intervals (summand, lo, hi) share a node."""
    spans.sort()
    return all(a != b or hi < lo for (a, _, hi), (b, lo, _) in zip(spans, spans[1:]))


def _covers(spans: list[tuple[int, int, int]], lengths: list[int]) -> bool:
    """Whether the intervals (summand, lo, hi) cover all nodes of every
    summand, summand n having nodes 0..lengths[n]."""
    reach = [-1] * len(lengths)  # the last node covered from 0 on
    for n, lo, hi in sorted(spans):
        if lo > reach[n] + 1:
            return False
        reach[n] = max(reach[n], hi)
    return reach == lengths


def _composite(into: list[tuple], onto: list[tuple]) -> list[tuple]:
    """The runs of onto after into: each run into the x-th middle summand
    meets each run out of it on an interval of x's nodes, and each such
    meeting is a run from its source to its target with the product of
    their values."""
    out = []
    for k, x, i1, j1, d1, m1, v1 in into:
        lo1, hi1 = min(j1, j1 + d1 * m1), max(j1, j1 + d1 * m1)
        for y, c, i2, j2, d2, m2, v2 in onto:
            lo, hi = max(lo1, i2), min(hi1, i2 + m2)
            if y == x and lo <= hi:
                n = lo if d1 == 1 else hi  # the node of x that the run's first node reaches
                out.append((k, c, i1 + d1 * (n - j1), j2 + d2 * (n - i2), d1 * d2, hi - lo, v1 * v2))
    return out


def _dimensions(cat: Catalog, parts: list[int]) -> list[int]:
    """The dimension vector of the direct sum of the members at parts."""
    out = [0] * cat.dimvecs.shape[1]
    for u in parts:
        out = list(map(add, out, cat.dim_rows[u]))
    return out


def certify_sequence(
    cat: Catalog, left: list[int], middle: list[int], right: list[int], incl: list, proj: list, name: str
) -> None:
    """Certify 0 -> L -> X -> R -> 0 exact, L, X and R the direct sums of the
    members at left, middle and right, the inclusion and the projection
    given by the blocks incl and proj, with no matrix or module built.  The
    maps commute with the arrows, as their table rows were verified, so
    what is left is that the dimensions add at every vertex, the inclusion
    is injective and the projection surjective, and the composite is zero.

    A graph map keeps each node at its vertex and has at most one nonzero
    in each row and column.  So the inclusion, whose blocks lie side by
    side, has rank the number of nodes of L its runs reach as long as no
    node of X is reached twice, and it is injective when they reach every
    node of L; dually for the projection.  A node reached twice is a
    construction bug, and there is no elimination."""
    if _dimensions(cat, left + right) != _dimensions(cat, middle):
        raise VerificationError(f"dimensions of the {name} do not add")
    into, onto = _map_runs(cat, left, middle, incl), _map_runs(cat, middle, right, proj)
    if not _disjoint(_targets(into)):
        raise VerificationError(f"inclusion into the {name} has two nonzeros in one column")
    if not _covers(_sources(into), [cat.lengths[u] for u in left]):
        raise VerificationError(f"inclusion into the {name} is not injective")
    if not _disjoint(_sources(onto)):
        raise VerificationError(f"projection from the {name} has two nonzeros in one row")
    if not _covers(_targets(onto), [cat.lengths[y] for y in right]):
        raise VerificationError(f"projection from the {name} is not surjective")
    if _added(_composite(into, onto), cat.p.q):
        raise VerificationError(f"composite through the {name} is not zero")
