"""Maps between direct sums of catalog members, stacked from the graph
maps of the catalog's Hom table.

A stack lists the summands of each side one after another, each on its
member's total coordinates (its basis vertex by vertex), and holds in
block (k, t), given as (k, t, key, sign), sign times the table's graph
map at key from the k-th summand to the t-th (Catalog.map_matrix).
certify_sequence is the one certificate of a short exact sequence of
such stacks: a member's projective cover (Catalog.cover), a middle read
off the words (wordext.certified_middle) and an almost-split sequence
(Catalog.ar_sequence) all pass it, and no module is built from a
stack.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from .errors import VerificationError

if TYPE_CHECKING:
    from .artheory import Catalog


def support_rank(a: np.ndarray, q: int, axis: int, name: str) -> int:
    """The rank over F_q of a stack of graph maps, read off its support.

    A graph map has at most one nonzero in each row and column.  Maps side
    by side (axis 0) keep that in every column, so the columns span the unit
    vectors of the nonzero rows and the rank is their number; maps one above
    another (axis 1) keep it in every row, and the rank is the number of
    nonzero columns.  A column (row) with two nonzeros is a construction bug;
    there is no elimination."""
    support = a % q != 0
    if support.size and np.add.reduce(support, axis=axis).max() > 1:
        raise VerificationError(f"{name} has two nonzeros in one {('column', 'row')[axis]}")
    return np.count_nonzero(np.logical_or.reduce(support, axis=1 - axis))


def stack(cat: Catalog, rows: list[int], cols: list[int], blocks: list) -> np.ndarray:
    """The map from the direct sum of the members at rows to that of the
    members at cols with the given blocks."""
    ro = list(itertools.accumulate((cat.widths[u] for u in rows), initial=0))
    co = list(itertools.accumulate((cat.widths[y] for y in cols), initial=0))
    out = np.zeros((ro[-1], co[-1]), dtype=np.int64)
    for k, t, key, sign in blocks:
        block = out[ro[k] : ro[k + 1], co[t] : co[t + 1]]
        block += sign * cat.map_matrix(rows[k], cols[t], key)
    return out


def certify_sequence(
    cat: Catalog, left: list[int], middle: list[int], right: list[int], incl: list, proj: list, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """Certify 0 -> L -> X -> R -> 0 exact, L, X and R the direct sums of the
    members at left, middle and right, with no module built, and return the
    stacks of its two maps, with the blocks incl and proj.  The maps commute
    with the arrows, as their table rows were verified, so what is left is
    that the dimensions add at every vertex, the inclusion is injective and
    the projection surjective, and the composite is zero.  A graph map keeps
    each node at its vertex, so a rank is the sum of the ranks at the
    vertices; it is read off the support (support_rank)."""
    q, dims = cat.p.q, cat.dimvecs
    if (np.add.reduce(dims[left + right]) != np.add.reduce(dims[middle])).any():
        raise VerificationError(f"dimensions of the {name} do not add")
    into, onto = stack(cat, left, middle, incl), stack(cat, middle, right, proj)
    if support_rank(into, q, 0, f"inclusion into the {name}") != into.shape[0]:
        raise VerificationError(f"inclusion into the {name} is not injective")
    if support_rank(onto, q, 1, f"projection from the {name}") != onto.shape[1]:
        raise VerificationError(f"projection from the {name} is not surjective")
    if ((into @ onto) % q).any():
        raise VerificationError(f"composite through the {name} is not zero")
    return into, onto
