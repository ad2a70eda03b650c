"""The dense reference of tablemaps.certify_sequence.

Every map between direct sums of catalog members is written out as one
stack: the summands of each side one after another, each on its member's
total coordinates (its basis vertex by vertex), block (k, t) holding sign
times Catalog.map_matrix at key for each block (k, t, key, sign), blocks
at one position added.  The certificate's four checks are then read off
the stacks: ranks off their support, the composite as a matrix product.
tablemaps.certify_sequence must accept and refuse exactly what this one
does, with the same message.
"""

import itertools

import numpy as np

from stringalg.errors import VerificationError


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


def stack(cat, rows: list[int], cols: list[int], blocks: list) -> np.ndarray:
    """The map from the direct sum of the members at rows to that of the
    members at cols with the given blocks."""
    ro = list(itertools.accumulate((cat.widths[u] for u in rows), initial=0))
    co = list(itertools.accumulate((cat.widths[y] for y in cols), initial=0))
    out = np.zeros((ro[-1], co[-1]), dtype=np.int64)
    for k, t, key, sign in blocks:
        block = out[ro[k] : ro[k + 1], co[t] : co[t + 1]]
        block += sign * cat.map_matrix(rows[k], cols[t], key)
    return out


def certify_sequence(cat, left, middle, right, incl, proj, name) -> None:
    """The checks of tablemaps.certify_sequence, in its order, on the
    stacks of incl and proj."""
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
