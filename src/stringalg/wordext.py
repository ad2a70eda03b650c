"""Extensions between catalog members read off their words.

Over a gentle algebra Ext^1(M(C), M(D)) has a basis of arrow and overlap
extensions, each with a middle named by words (Brüstle, Douville,
Mousavand, Thomas and Yıldırım 2020; Çanakçı, Pauksztello and Schroll
2021).  An arrow extension joins a reading of C to a reading of D by a
direct letter; an overlap extension is a graph map M(D) -> M(C) of the
catalog's Hom table with a letter beyond its common walk on each side.
word_extensions lists both, and the census requires the list to be as
long as the count of the long exact Hom sequence (CoverData.ext_dim), so
the enumeration is checked on every algebra it runs on, gentle or not.

certified_middle certifies one listed middle X with no Ext basis: the
sequence 0 -> M(D) -> X -> M(C) -> 0 is assembled from graph maps of the
table, which were verified when the catalog was built, and checked exact
and non-split.  table_map finds each map by its key in a dict of the
table's row and takes it as one matrix on total coordinates, so the
sequence is two stacked matrices.  With dim Ext^1 = 1 every non-split
extension has that middle, so its summand count is the census line's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artheory import Catalog
from .errors import VerificationError
from .linalg import Matrix
from .words import (
    Direction,
    Letter,
    Walk,
    format_walk,
    trivial_walk,
    walk_source,
    walk_target,
)


@dataclass(frozen=True)
class WordExtension:
    """An extension 0 -> M(D) -> X -> M(C) -> 0 named by words.

    middles holds the walks of X's summands.  incl and proj hold, per
    summand, its graph map from M(D) and onto M(C) as (a, i, b, j, m):
    nodes i..i+m of the walk a go to nodes j..j+m of the walk b, each walk
    a reading of a member's word (table_map).  The projection from a
    second summand carries the sign -1."""

    middles: tuple[Walk, ...]
    incl: tuple[tuple, ...]
    proj: tuple[tuple, ...]


def table_map(cat: Catalog, a: Walk, i: int, b: Walk, j: int, m: int) -> tuple[int, int, np.ndarray]:
    """The graph map of cat's table that sends nodes i..i+m of the walk a
    to nodes j..j+m of the walk b, a and b readings of members' words, as
    (source member, target member, Catalog.map_matrix).  It is looked up by
    its (reading, s, t, m), read in the source's word, in a dict of the
    table's row; a map the table does not hold is a construction bug."""
    u, y = cat.oriented(a)[0], cat.oriented(b)[0]
    if a != u.word:
        i, j, b = len(a) - i - m, len(b) - j - m, cat.inverses[y.index] if b == y.word else y.word
    key = (int(b != y.word), i, j, m)
    if key[0] and not m:  # a trivial E is listed in the target's word only
        key = (0, i, len(b) - j, 0)
    f = cat.map_matrix(u.index, y.index, key)
    if f is None:
        raise VerificationError(
            f"no graph map M({format_walk(u.word)}) -> M({format_walk(y.word)}) at {key}"
        )
    return u.index, y.index, f


def word_extensions(cat: Catalog, c: int, d: int) -> list[WordExtension]:
    """Extensions of M(C) by M(D), C and D the words of members c and d.

    An arrow extension is a member word C' a D' with a a direct letter, C'
    a reading of C and D' one of D; its middle is M(C' a D').  An overlap
    extension is a graph map M(D) -> M(C') of the table, with
    D = D_L E D_R and C' = C'_L E C'_R, that has a letter beyond E on each
    side and whose middle walks D_L E C'_R and C'_L E D_R are both member
    words; its middle is their sum.  The table lists a trivial E in C's
    word only, so it is tried in both readings of C unless C or D is
    trivial, where the two readings give the same middle."""
    p = cat.p
    C, D = cat.entries[c].word, cat.entries[d].word
    c_reads = [C] if C.is_trivial else [C, cat.inverses[c]]
    d_reads = [D] if D.is_trivial else [D, cat.inverses[d]]
    out = []
    for cr in c_reads:
        for a in p.quiver.arrows_from(walk_target(p, cr)):
            for dr in d_reads:
                if a.target != walk_source(p, dr):
                    continue
                x = Walk(cr.letters + (Letter(a.name, Direction.DIRECT),) + dr.letters)
                if x in cat:
                    out.append(WordExtension(
                        (x,), ((dr, 0, x, len(C) + 1, len(D)),), ((x, 0, cr, 0, len(C)),)
                    ))
    d_nodes = cat.entries[d].nodes
    for flip, s, t, m in cat.hom_keys[d][c]:
        tries = [(c_reads[flip], t)]
        if not m and len(C) and len(D):
            tries.append((c_reads[1 - flip], len(C) - t))
        for cr, t in tries:
            if not (s or t) or (s + m == len(D) and t + m == len(C)):
                continue  # no letter beyond E on one side: the sequence splits
            x1 = _walk(D.letters[: s + m] + cr.letters[t + m :], d_nodes[s][0])
            x2 = _walk(cr.letters[:t] + D.letters[s:], d_nodes[s][0])
            if x1 in cat and x2 in cat:
                out.append(WordExtension(
                    (x1, x2),
                    ((D, 0, x1, 0, s + m), (D, s, x2, t, len(D) - s)),
                    ((x1, s, cr, t, len(C) - t), (x2, 0, cr, 0, t + m)),
                ))
    return out


def certified_middle(cat: Catalog, c: int, d: int, ext: WordExtension) -> int:
    """The summand count of the middle X of ext, certified: the sequence
    0 -> M(D) -> X -> M(C) -> 0 of table maps is exact and does not split.
    Its maps were verified with the table, so what is left is that the
    dimensions add at every vertex, one rank each for the inclusion and the
    projection, their composite and, since every member is indecomposable
    (Krull-Schmidt), that X's members are not those of M(C) + M(D).  Each
    map is one matrix on total coordinates (Catalog.map_matrix), so the
    inclusion is the maps into X's summands side by side and the projection
    the maps out of them stacked, the second negated."""
    q = cat.p.q
    M, N = cat.entries[c].rep, cat.entries[d].rep
    members = [cat.oriented(x)[0].index for x in ext.middles]
    name = f"middle of Ext^1({M.label}, {N.label}) read off the words"
    if sorted(members) == sorted([c, d]):
        raise VerificationError(f"{name} splits")
    if (cat.dimvecs[members].sum(axis=0) != cat.dimvecs[c] + cat.dimvecs[d]).any():
        raise VerificationError(f"dimensions of the {name} do not add")
    maps = [(table_map(cat, *f), table_map(cat, *g)) for f, g in zip(ext.incl, ext.proj)]
    if len(maps) != len(members) or len(ext.incl) != len(ext.proj) or any(
        (f[:2], g[:2]) != ((d, x), (x, c)) for (f, g), x in zip(maps, members)
    ):
        raise VerificationError(f"maps of the {name} do not pass through the listed middle")
    incl = np.hstack([f for (_, _, f), _ in maps])
    proj = np.vstack([-g if k else g for k, (_, (_, _, g)) in enumerate(maps)])
    if Matrix(incl, q).rank() != N.total_dim:
        raise VerificationError(f"inclusion into the {name} is not injective")
    if Matrix(proj, q).rank() != M.total_dim:
        raise VerificationError(f"projection from the {name} is not surjective")
    if ((incl @ proj) % q).any():
        raise VerificationError(f"composite through the {name} is not zero")
    return len(members)


def _walk(letters: tuple[Letter, ...], vertex: str) -> Walk:
    """The walk of letters, or the trivial walk at vertex when there are none."""
    return Walk(letters) if letters else trivial_walk(vertex)
