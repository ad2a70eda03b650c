"""The dense references of tablemaps.certify_sequence and of the Hom
table's row check, Catalog._hom_row.

Every map between direct sums of catalog members is written out as one
stack: the summands of each side one after another, each on its member's
total coordinates (its basis vertex by vertex), block (k, t) holding sign
times Catalog.map_matrix at key for each block (k, t, key, sign), blocks
at one position added.  The certificate's four checks are then read off
the stacks: ranks off their support, the composite as a matrix product.
tablemaps.certify_sequence must accept and refuse exactly what this one
does, with the same message.

A row of the Hom table, the graph maps from one member into every member,
is written out as one stacked matrix on total coordinates and checked per
arrow against the arrow matrices of the sum of all members (hom_row).
Catalog._hom_row, which reads each map's run of nodes, must accept and
refuse exactly what hom_row does, with the same message.
"""

import itertools

import numpy as np

from stringalg.errors import VerificationError
from stringalg.linalg import Matrix
from stringalg.words import format_walk


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


def sum_of_members(cat) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """The direct sum of all members, members one after another, as
    arrays; no Representation is built.  Per arrow: its name, the indices
    of its source and target vertex, and its matrix on the sum, one
    diagonal block per member.  Then the total coordinates of every
    member, listed member after member: where each member's start, and per
    coordinate its vertex and its coordinate at that vertex in the sum."""
    p, dims = cat.p, cat.dimvecs
    base = np.cumsum(dims, axis=0) - dims  # where each member's block starts at each vertex
    at = {v: j for j, v in enumerate(p.quiver.vertices)}
    arrows = []
    for a in p.quiver.arrows:
        s, t = at[a.source], at[a.target]
        block = np.zeros((dims[:, s].sum(), dims[:, t].sum()), dtype=np.int64)
        for e, (r, c), (h, w) in zip(cat.entries, base[:, [s, t]].tolist(), dims[:, [s, t]].tolist()):
            block[r : r + h, c : c + w] = e.rep.mats[a.name].a
        arrows.append((a.name, s, t, block))
    totals = dims.sum(axis=1)
    counts = dims.ravel()
    within = np.arange(counts.sum()) - (np.cumsum(counts) - counts).repeat(counts)
    vertex = np.tile(np.arange(dims.shape[1]), len(dims)).repeat(counts)
    return arrows, np.cumsum(totals) - totals, vertex, base.ravel().repeat(counts) + within


def hom_row(cat, u, keys: list[list[tuple]], members: tuple) -> list[list[tuple]]:
    """The dense reference of Catalog._hom_row, with members the arrays of
    sum_of_members(cat).  The graph maps of keys from M(u) into each member
    are written from the nodes (Catalog._cells) as one stacked matrix on
    total coordinates: its rows are u's basis, vertex by vertex, and each
    map takes the next block of columns, its target's basis vertex by
    vertex.  The stacked map goes into the direct sum of the targets, whose
    arrow matrices are block diagonal.  It is checked per arrow, vertex
    block by vertex block, against those matrices, cut from the arrows'
    matrices on the sum of all members, so it passes exactly when every
    graph map commutes with the arrows.  The maps into each member must be
    linearly independent.  Returns keys once all of this holds."""
    q, dims = cat.p.q, cat.dimvecs
    totals = dims.sum(axis=1)
    placed = [(y, key) for y, row in enumerate(keys) for key in row]
    targets = np.array([y for y, _ in placed], dtype=np.intp)
    widths = totals[targets]
    firsts = np.cumsum(widths) - widths
    starts = firsts.tolist()
    stacked = np.zeros((u.rep.total_dim, int(widths.sum())), dtype=np.int64)
    rows, cols = [], []
    for (y, key), o in zip(placed, starts):
        r, c = cat._cells(u.index, y, key)
        rows += r
        cols += [o + x for x in c]
    stacked[rows, cols] = 1
    if placed:  # an empty row lacks the identity, which the Yoneda checks catch
        arrows, member_firsts, vertex, coordinate = members
        # every column of the row: its vertex, its coordinate in the sum
        # of all members and its map; then the columns grouped by vertex
        column = (member_firsts[targets] - firsts).repeat(widths) + np.arange(stacked.shape[1])
        at_v, in_sum, of_map = vertex[column], coordinate[column], np.arange(len(placed)).repeat(widths)
        order = np.argsort(at_v, kind="stable")
        ends = np.cumsum(np.bincount(at_v, minlength=dims.shape[1])).tolist()
        blocks = []
        for r, h, a, b in zip(cat.starts[u.index].tolist(), dims[u.index].tolist(), [0] + ends, ends):
            cut = order[a:b]
            blocks.append((stacked[r : r + h, cut], in_sum[cut], of_map[cut]))
        for name, s, t, block in arrows:
            (fs, gs, ms), (ft, gt, mt) = blocks[s], blocks[t]
            diagonal = np.where(ms[:, None] == mt, block[gs[:, None], gt], 0)
            if ((u.rep.mats[name].a @ ft - fs @ diagonal) % q).any():
                raise VerificationError(
                    f"row M({format_walk(u.word)}) of the Hom table does not commute with arrow {name}"
                )
    at = 0
    for y, row in enumerate(keys):
        # one graph map is nonzero; only two or more can be dependent
        w, into_y = totals[y], starts[at : at + len(row)]
        at += len(row)
        if len(row) > 1 and Matrix(np.array([stacked[:, o : o + w].ravel() for o in into_y]), q).rank() < len(row):
            raise VerificationError(
                f"graph maps M({format_walk(u.word)}) -> M({format_walk(cat.entries[y].word)}) are dependent"
            )
    return keys
