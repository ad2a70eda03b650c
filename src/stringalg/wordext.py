"""Extensions between catalog members read off their words.

Over a gentle algebra Ext^1(M(C), M(D)) has a basis of arrow and overlap
extensions, each with a middle named by words (Brüstle, Douville,
Mousavand, Thomas and Yıldırım 2020; Çanakçı, Pauksztello and Schroll
2021).  An arrow extension joins a reading of C to a reading of D by a
direct letter; an overlap extension is a graph map M(D) -> M(C) of the
catalog's Hom table with a letter beyond its common walk on each side.
word_extensions lists both, and the census requires the list to be as
long as the count of the long exact Hom sequence (WordCover.gate_row), so
the enumeration is checked on every algebra it runs on, gentle or not.

certified_middle certifies one listed middle X with no Ext basis: the
sequence 0 -> M(D) -> X -> M(C) -> 0 is made of graph maps of the table,
which were verified when the catalog was built, and the one certificate
the catalog's covers pass as well (tablemaps.certify_sequence) checks it
exact on the maps' runs of nodes, with no matrix built; X's members show
it does not split.  Words are the catalog's code
rows throughout: each candidate middle is a concatenation of the members'
rows, resolved to its member once by Catalog.reading, and every map is
kept as its members and table key, so the certificate looks nothing up by
word.  With dim Ext^1 = 1 every non-split extension has that middle, so
its summand count is the census line's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .artheory import Catalog
from .errors import VerificationError
from .tablemaps import certify_sequence


@dataclass(frozen=True)
class WordExtension:
    """An extension 0 -> M(D) -> X -> M(C) -> 0 named by words.

    middles holds the code rows of X's summands (the vertex, for a trivial
    one) and members their member indices.  incl holds, per summand, the
    table key (Catalog.map_key) of its graph map from M(D); proj holds the
    key of its graph map onto M(C) with its sign, -1 on a second summand."""

    middles: tuple[tuple[int, ...] | str, ...]
    members: tuple[int, ...]
    incl: tuple[tuple, ...]
    proj: tuple[tuple[tuple, int], ...]


def word_extensions(cat: Catalog, c: int, d: int) -> list[WordExtension]:
    """Extensions of M(C) by M(D), C and D the words of members c and d.

    An arrow extension is a member word C' a D' with a a direct letter, C'
    a reading of C and D' one of D; its middle is M(C' a D').  An overlap
    extension is a graph map M(D) -> M(C') of the table, with
    D = D_L E D_R and C' = C'_L E C'_R, that has a letter beyond E on each
    side and whose middle walks D_L E C'_R and C'_L E D_R are both member
    words; its middle is their sum.  The table lists a trivial E in C's
    word only, so it is tried in both readings of C unless C or D is
    trivial, where the two readings give the same middle.  Every candidate
    is a concatenation of code rows, looked up among the members'
    readings (Catalog.reading); one that is no member's is dropped."""
    aut, key = cat.automaton, cat.map_key
    (C, C_inv), (D, D_inv) = cat.codes[c], cat.codes[d]
    c_nodes, d_nodes = cat.entries[c].nodes, cat.entries[d].nodes
    # the readings of each word, those of C with the vertex they end at and
    # those of D with the vertex they start at
    c_reads = [(C, c_nodes[-1][0])] + ([(C_inv, c_nodes[0][0])] if C else [])
    d_reads = [(D, d_nodes[0][0])] + ([(D_inv, d_nodes[-1][0])] if D else [])
    out = []
    for fc, (cr, end) in enumerate(c_reads):
        # the direct letters at end, in arrow order: the edges of its state
        # with an empty window
        for a in [a for a in aut.edges[aut.index[(end, ())]] if not a & 1]:
            for fd, (dr, start) in enumerate(d_reads):
                if aut.source[a ^ 1] != start:
                    continue  # a ends elsewhere
                x = cr + (a,) + dr
                r = cat.reading(x)
                if r is not None:
                    out.append(WordExtension(
                        (x,), (r[0],), (key(d, fd, 0, *r, len(C) + 1, len(D)),),
                        ((key(*r, 0, c, fc, 0, len(C)), 1),),
                    ))
    for flip, s, t, m in cat.hom_keys[d][c]:
        tries = [(flip, t)]
        if not m and C and D:
            tries.append((1 - flip, len(C) - t))
        for fc, t in tries:
            if not (s or t) or (s + m == len(D) and t + m == len(C)):
                continue  # no letter beyond E on one side: the sequence splits
            cr, v = c_reads[fc][0], d_nodes[s][0]
            x1, x2 = D[: s + m] + cr[t + m :] or v, cr[:t] + D[s:] or v
            r1, r2 = cat.reading(x1), cat.reading(x2)
            if r1 is not None and r2 is not None:
                out.append(WordExtension(
                    (x1, x2), (r1[0], r2[0]),
                    (key(d, 0, 0, *r1, 0, s + m), key(d, 0, s, *r2, t, len(D) - s)),
                    ((key(*r1, s, c, fc, t, len(C) - t), 1), (key(*r2, 0, c, fc, 0, t + m), -1)),
                ))
    return out


def certified_middle(cat: Catalog, c: int, d: int, ext: WordExtension) -> int:
    """The summand count of the middle X of ext, certified: the sequence
    0 -> M(D) -> X -> M(C) -> 0 of table maps, the inclusion the blocks of
    the maps into X's summands and the projection the blocks of the maps
    out of them, is exact on the maps' runs of nodes
    (tablemaps.certify_sequence), and since every
    member is indecomposable (Krull-Schmidt) it does not split: X's members
    are not those of M(C) + M(D)."""
    M, N = cat.entries[c].rep, cat.entries[d].rep
    name = f"middle of Ext^1({M.label}, {N.label}) read off the words"
    if sorted(ext.members) == sorted([c, d]):
        raise VerificationError(f"{name} splits")
    certify_sequence(
        cat, [d], list(ext.members), [c],
        [(0, k, key, 1) for k, key in enumerate(ext.incl)],
        [(k, 0, key, sign) for k, (key, sign) in enumerate(ext.proj)],
        name,
    )
    return len(ext.members)
