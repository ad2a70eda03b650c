"""Almost-split sequences, the hom order, and summand-count accounting.

Over a finite-type string presentation the indecomposables are exactly the
string modules of the finitely many words.  The almost-split sequence
ending at a non-projective string module is built by surgery on the walk
of its word (Butler and Ringel 1987): at each end, add a hook (a direct
letter followed by the maximal inverse run) when possible, otherwise delete
a cohook (the trailing direct run together with the inverse letter before
it).  One operation works at the right end; the left end is the right end
of the inverse walk, and a walk with every letter deleted is the trivial
walk at its source.  The two one-sided surgeries give the middle summands,
both-sided surgery gives the translate, and each resulting walk is read
off the catalog, which indexes both readings of every member's word.
Every sequence is checked against the defect identity

    dim Hom(U, tau V) - dim Hom(U, E) + dim Hom(U, V) = [U iso V]

over the full catalog, which characterizes almost-split sequences, and
certified exact on the table's graph maps by the one certificate of covers
and word middles (tablemaps.certify_sequence), with no module built.

The catalog's Hom table is written from the words as well, with no linear
solve: between string modules Hom has a basis of graph maps
(Crawley-Boevey 1989), one for each walk that sits in the source's word
as a factor string and in the target's word, either reading, as a
substring.  The image substrings of every member are indexed once by
their letters, and each member's factor strings are looked up there.
Each row of maps is written from the nodes as one stacked matrix and
checked per arrow against the block diagonal arrow matrices of its
targets, with no module built; the maps into each member must be
independent, and the table must hold the projective and the injective at
every vertex where Yoneda puts them.
Surgery gives the integer mesh matrix A: row V holds +1 at V and at tau V
and -1 at each middle summand (+1 at a projective V, -1 at each summand of
rad V).  The defect identities at all (U, V) say hom . A^T = I, so given
the surgery's words they determine the table, with or without oriented
cycles in the Auslander-Reiten quiver; the surgery itself stays trusted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import (
    InfiniteTypeError,
    NonStringPresentationError,
    NotFiniteDimensionalError,
    StringAlgError,
    VerificationError,
)
from .homalg import CoverData, Ext1Context, Intertwiner, composites, hom_basis
from .linalg import Matrix
from .presentation import Presentation
from .reps import Representation, direct_sum, string_module_with_nodes, zero_representation
from .tablemaps import certify_sequence
from .words import (
    Letter,
    LetterAutomaton,
    Walk,
    automaton_for,
    concat,
    enumerate_words,
    format_walk,
    inverse,
    letter_target,
    require_string,
    trivial_walk,
    walk_source,
    walk_target,
    walk_vertices,
)


# ---------------------------------------------------------------------------
# catalog of indecomposables
# ---------------------------------------------------------------------------


@dataclass
class CatalogEntry:
    index: int
    word: Walk
    rep: Representation
    nodes: list  # node placements of the string module


class Catalog:
    """All indecomposables of a finite-type string presentation.

    Construction refuses infinite type, carrying a band witness.  The Hom
    table between members is written from their words in graph maps,
    found in an index of the words' image substrings, and each row is
    checked on arrays as one stacked map; hom holds the dimensions,
    hom_keys the maps' keys, map_matrix each map as one matrix and basis
    the maps as Intertwiners on request.  The projective at each vertex is
    read off its rows, exactly one column must be the injective's, and the
    table must satisfy the defect identity of every member's mesh row.
    Surgery runs once, here.  Both readings of every member's word are
    indexed.  The weight vector and almost-split data are read off the
    stored mesh rows and walks lazily.  Projective covers and almost-split
    sequences are written from the words on request and certified, like
    the middles wordext reads off the words, on graph maps of the table by
    the one certificate (tablemaps.certify_sequence).
    """

    def __init__(self, p: Presentation):
        require_string(p)
        automaton = automaton_for(p)
        band = automaton.cyclic_witness()
        if band is not None:
            raise InfiniteTypeError(format_walk(band))
        words = enumerate_words(p, automaton.state_count)
        self.p = p
        self.automaton = automaton
        self.entries: list[CatalogEntry] = []
        # both readings of every member's word, each with the member's index
        # and 1 for the inverse, 0 for the word; a trivial walk is its own
        # inverse and keeps 0
        self._readings: dict[Walk, tuple[int, int]] = {}
        both: list[tuple[tuple[Walk, list], tuple[Walk, list]]] = []
        for w in words:
            rep, nodes = string_module_with_nodes(p, w)
            entry = CatalogEntry(len(self.entries), w, rep, nodes)
            self.entries.append(entry)
            both.append(((w, nodes), (inverse(w), nodes[::-1])))
            for flip, (walk, _) in enumerate(both[-1]):
                self._readings.setdefault(walk, (entry.index, flip))
        # the inverse of each member's word, built once
        self.inverses = [inv for _, (inv, _) in both]
        self._lengths = [len(w) for w in words]
        vertices = p.quiver.vertices
        at = {v: j for j, v in enumerate(vertices)}
        # members x vertices; a member's total coordinates list its basis
        # vertex by vertex, starts holds where each vertex's block starts and
        # widths the total dimension
        self.dimvecs = np.array(
            [[e.rep.dim(v) for v in vertices] for e in self.entries], dtype=np.int64
        ).reshape(len(self.entries), len(vertices))
        self._totals = self.dimvecs.sum(axis=1)
        self.widths = self._totals.tolist()
        self.starts = np.cumsum(self.dimvecs, axis=1) - self.dimvecs
        # per member and reading: the total coordinate and the vertex of each node
        self._nodes = []
        for ((_, nodes), _), starts in zip(both, self.starts.tolist()):
            coords = [starts[at[v]] + c for v, c in nodes]
            verts = tuple(at[v] for v, _ in nodes)
            self._nodes.append(((coords, verts), (coords[::-1], verts[::-1])))
        images, members = _image_index(automaton, both), self._sum_of_members()
        rows = [self._hom_row(u, self._graph_map_keys(u, images), members) for u in self.entries]
        # beside each basis map, where the index put it: (reading, s, t, m)
        # with reading 0 for the target's word and 1 for its inverse
        self.hom_keys = [keys for keys, _, _ in rows]
        self._rows = [(stacked, first) for _, stacked, first in rows]
        self._bases: dict[tuple[int, int], list[Intertwiner]] = {}
        self.hom = [[len(keys) for keys in row] for row in self.hom_keys]
        self._members = {e.rep: e.index for e in self.entries}
        self._weights: list[int] | None = None
        self._ar_cache: dict[int, "ARSequence"] = {}
        self._hom_into_cache: dict[Representation, list[int]] = {}
        # dim Hom(P(v), X) = dim X_v (Yoneda), and no two indecomposables
        # share a row of the table (Auslander 1982), so P(v) is the one
        # member whose row is the dimensions at v
        self.projective_at: dict[str, int] = {}
        for v in p.quiver.vertices:
            row = [e.rep.dim(v) for e in self.entries]
            hits = [e.index for e in self.entries if self.hom[e.index] == row]
            if len(hits) != 1:
                raise VerificationError(
                    f"projective at {v} matched {len(hits)} catalog entries"
                )
            self.projective_at[v] = hits[0]
        self.projectives = frozenset(self.projective_at.values())
        # dually dim Hom(X, I(v)) = dim X_v, and no two indecomposables
        # share a column, so exactly one column is the dimensions at v
        columns = [list(col) for col in zip(*self.hom)]
        for v in p.quiver.vertices:
            hits = columns.count([e.rep.dim(v) for e in self.entries])
            if hits != 1:
                raise VerificationError(f"injective at {v} matched {hits} catalog entries")
        # the mesh row (L, E) of each member V in member indices, from the
        # right almost split 0 -> L -> E -> V (0 -> rad V -> V when V is
        # projective); hom(U, L) - hom(U, E) + hom(U, V) = [U = V] at all U
        # and V determine the table, so a graph map missed is refused here
        self.mesh: list[tuple[list[int], list[int]]] = []
        self._walks: dict[int, tuple[Walk, Walk | None, Walk | None]] = {}
        for e in self.entries:
            if e.index in self.projectives:
                # the top of a projective's word is the node before its first
                # direct letter, and rad V is what is left on either side
                w, n = e.word, len(e.word)
                k = next((j for j, l in enumerate(w.letters) if l.is_direct), n)
                ends = [], [_factor(p, w, a, b) for a, b in ((0, k - 1), (k + 1, n)) if 0 <= a <= b]
            else:
                t, right, left = self._walks[e.index] = _surgery(self, e)
                ends = [t], [x for x in (right, left) if x is not None]
            row = tuple([_surgery_member(self, x)[0] for x in walks] for walks in ends)
            self.mesh.append(row)
            _check_defect(self, e.index, *row)

    def _graph_map_keys(self, u: CatalogEntry, images: dict) -> list[list[tuple]]:
        """The graph maps M(u) -> Y for every member Y, each as its
        (reading, s, t, m), in that order: every factor string of u's word,
        a walk E of length m at node s with no letter of the word pointing
        into it, looked up among images, the image substrings of
        _image_index.  The map sends node s + j of u's word to node t + j
        of Y's word in that reading and every other node to 0
        (Crawley-Boevey 1989)."""
        codes = [self.automaton.code[l] for l in u.word.letters]
        n = len(codes)
        ends = [j for j in range(n + 1) if j == n or not codes[j] & 1]
        keys: list[list[tuple]] = [[] for _ in self.entries]
        for s in range(n + 1):
            if s and not codes[s - 1] & 1:
                continue  # the direct letter left of node s points into E
            for j in ends:
                if j >= s:
                    found = images.get(tuple(codes[s:j]) if j > s else u.nodes[s][0], ())
                    for y, flip, t, m in found:
                        keys[y].append((flip, s, t, m))
        for row in keys:
            row.sort()
        return keys

    def _sum_of_members(self) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
        """The direct sum of all members, members one after another, as
        arrays; no Representation is built.  Per arrow: its name, the
        indices of its source and target vertex, and its matrix on the sum,
        one diagonal block per member.  Then the total coordinates of every
        member, listed member after member: where each member's start, and
        per coordinate its vertex and its coordinate at that vertex in the
        sum."""
        p, dims = self.p, self.dimvecs
        base = np.cumsum(dims, axis=0) - dims  # where each member's block starts at each vertex
        at = {v: j for j, v in enumerate(p.quiver.vertices)}
        arrows = []
        for a in p.quiver.arrows:
            s, t = at[a.source], at[a.target]
            block = np.zeros((dims[:, s].sum(), dims[:, t].sum()), dtype=np.int64)
            for e, (r, c), (h, w) in zip(self.entries, base[:, [s, t]].tolist(), dims[:, [s, t]].tolist()):
                block[r : r + h, c : c + w] = e.rep.mats[a.name].a
            arrows.append((a.name, s, t, block))
        counts = dims.ravel()
        within = np.arange(counts.sum()) - (np.cumsum(counts) - counts).repeat(counts)
        vertex = np.tile(np.arange(dims.shape[1]), len(dims)).repeat(counts)
        return arrows, np.cumsum(self._totals) - self._totals, vertex, base.ravel().repeat(counts) + within

    def _hom_row(
        self, u: CatalogEntry, keys: list[list[tuple]], members: tuple
    ) -> tuple[list[list[tuple]], np.ndarray, dict]:
        """The graph maps of keys from M(u) into each member, written
        straight from the nodes as one stacked matrix on total coordinates:
        its rows are u's basis, vertex by vertex, and each map takes the
        next block of columns, its target's basis vertex by vertex.  Returns
        keys, the stacked matrix, read-only, and the first column of each
        map by (target, key).

        The stacked map goes into the direct sum of the targets, whose arrow
        matrices are block diagonal.  It is checked per arrow, vertex block
        by vertex block, against those matrices, cut from the arrows'
        matrices on the sum of all members (_sum_of_members) with no
        Representation built, so it passes exactly when every graph map
        commutes with the arrows.  The maps into each Y must be linearly
        independent."""
        q, dims = self.p.q, self.dimvecs
        placed = [(y, key) for y, row in enumerate(keys) for key in row]
        targets = np.array([y for y, _ in placed], dtype=np.intp)
        widths = self._totals[targets]
        firsts = np.cumsum(widths) - widths
        starts = firsts.tolist()
        stacked = np.zeros((u.rep.total_dim, int(widths.sum())), dtype=np.int64)
        rows, cols = [], []
        src, src_verts = self._nodes[u.index][0]
        for (y, (flip, s, t, m)), o in zip(placed, starts):
            dst, dst_verts = self._nodes[y][flip]
            if src_verts[s : s + m + 1] != dst_verts[t : t + m + 1]:
                raise VerificationError("graph map misaligned: vertex mismatch")
            rows += src[s : s + m + 1]
            cols += [o + c for c in dst[t : t + m + 1]]
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
            for r, h, a, b in zip(self.starts[u.index].tolist(), dims[u.index].tolist(), [0] + ends, ends):
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
            w, into_y = self._totals[y], starts[at : at + len(row)]
            at += len(row)
            if len(row) > 1 and Matrix(np.array([stacked[:, o : o + w].ravel() for o in into_y]), q).rank() < len(row):
                raise VerificationError(
                    f"graph maps M({format_walk(u.word)}) -> M({format_walk(self.entries[y].word)}) are dependent"
                )
        stacked.setflags(write=False)
        return keys, stacked, dict(zip(placed, starts))

    def map_matrix(self, u: int, y: int, key: tuple) -> np.ndarray:
        """The graph map of the table from member u to member y at key, its
        (reading, s, t, m), as one read-only matrix on total coordinates:
        rows are u's basis and columns y's, each vertex by vertex.  A map the
        table does not hold is a construction bug."""
        stacked, first = self._rows[u]
        o = first.get((y, key))
        if o is None:
            raise VerificationError(
                f"no graph map M({format_walk(self.entries[u].word)}) -> "
                f"M({format_walk(self.entries[y].word)}) at {key}"
            )
        return stacked[:, o : o + self.widths[y]]

    def map_key(self, u: int, fu: int, i: int, y: int, fy: int, j: int, m: int) -> tuple:
        """The key (reading, s, t, m) of the graph map that sends nodes
        i..i+m of member u's word to nodes j..j+m of member y's, each read
        as its inverse where fu or fy is 1: the table reads the source in its
        word and lists a trivial E in the target's word only."""
        if fu:
            i, j, fy = self._lengths[u] - i - m, self._lengths[y] - j - m, 1 - fy
        if fy and not m:
            return 0, i, self._lengths[y] - j, 0
        return fy, i, j, m

    def basis(self, u: int, y: int) -> list[Intertwiner]:
        """The table's basis of Hom(member u, member y): its graph maps in
        the order of hom_keys, cut vertex by vertex from the checked row on
        first use and kept."""
        if (u, y) not in self._bases:
            U, Y, q = self.entries[u].rep, self.entries[y].rep, self.p.q
            cuts = list(zip(self.p.quiver.vertices, self.starts[u].tolist(), self.dimvecs[u].tolist(),
                            self.starts[y].tolist(), self.dimvecs[y].tolist()))
            self._bases[u, y] = [
                Intertwiner(U, Y, {v: Matrix(f[r : r + h, c : c + w], q) for v, r, h, c, w in cuts})
                for f in (self.map_matrix(u, y, key) for key in self.hom_keys[u][y])
            ]
        return self._bases[u, y]

    def lookup(self, w: Walk) -> CatalogEntry:
        if w not in self._readings:
            raise StringAlgError(f"word {format_walk(w)} not in the catalog")
        return self.entries[self._readings[w][0]]

    def index_of(self, m: Representation) -> int | None:
        """The index of the member whose module is m, or None."""
        return self._members.get(m)

    def reading(self, walk: Walk) -> tuple[int, int] | None:
        """The index of the member whose word is walk or its inverse, and 1
        when walk is the inverse, 0 when it is the word; None for a walk
        that is no member's word."""
        return self._readings.get(walk)

    def cover(self, entry: CatalogEntry) -> CoverData:
        """The projective cover of M(C), C = entry.word, written from C
        (Butler and Ringel 1987) in catalog members and certified on the
        table's graph maps, with no solve and no module built.

        A peak of C is a node no letter points into.  P0 is the sum of P(v)
        over the peaks, each in the reading of its word whose two arms run
        along the slopes of C around the peak, and epi maps it onto those
        slopes, down to the neighbouring valleys or ends, by a graph map.
        The syzygy's summands and their graph maps into one or two peaks
        come from _syzygy_words, and certify_sequence certifies
        0 -> syzygy -> P0 -> M(C) -> 0 on these maps.  The cover records the
        member index of every summand, so Hom from P0 or from the syzygy is
        read off the table; the modules are cut on first use."""
        p = self.p
        c, C = entry.index, entry.word.letters
        n = len(C)
        top = {v: 0 for v in p.quiver.vertices}
        peaks, readings, epi = [], [], []  # readings: per peak (w, d, lo, hi)
        for i in range(n + 1):
            if (i and C[i - 1].is_direct) or (i < n and not C[i].is_direct):
                continue  # a letter points into node i
            lo, hi = i, i
            while lo and not C[lo - 1].is_direct:
                lo -= 1
            while hi < n and C[hi].is_direct:
                hi += 1
            v = entry.nodes[i][0]
            u = self.projective_at[v]
            for flip, w in enumerate((self.entries[u].word, self.inverses[u])):
                # the top of P(v) is the node before its first direct letter
                k = next((j for j, l in enumerate(w.letters) if l.is_direct), len(w))
                arms = w.letters[k - i + lo : k + hi - i]
                if i - lo <= k <= len(w) - (hi - i) and arms == C[lo:hi]:
                    break
            else:
                raise VerificationError(
                    f"P({v}) has no arms along the slopes of M({format_walk(entry.word)}) "
                    f"at node {i}"
                )
            epi.append((len(peaks), 0, self.map_key(u, flip, k - i + lo, c, 0, lo, hi - lo), 1))
            peaks.append((u, flip))
            readings.append((w, i - k, lo, hi))
            top[v] += 1
        syzygy, incl = [], []
        for walk, maps in _syzygy_words(p, readings, n):
            found = self.reading(walk)
            if found is None:
                raise VerificationError(
                    f"syzygy of M({format_walk(entry.word)}) has the summand {format_walk(walk)}, "
                    "not a catalog word"
                )
            # each run of nodes into one peak with one sign is a graph map
            for (t, sign), run in itertools.groupby(maps, key=lambda x: (x[1], x[3])):
                s, _, a, _ = next(run)
                m = sum(1 for _ in run)
                incl.append((len(syzygy), t, self.map_key(*found, s, *peaks[t], a, m), sign))
            syzygy.append(found[0])
        members = [u for u, _ in peaks]
        name = f"projective cover of {entry.rep.label}"
        stacks = certify_sequence(self, syzygy, members, [c], incl, epi, name)
        return CoverData(entry.rep, None, None, None, None, top, self, members, syzygy, stacks)

    def profile(self, parts: list[int]) -> list[int]:
        """Hom dimensions from every member into the direct sum of the
        members at the indices in parts.  Hom(U, -) is additive and
        hom[u][i] is dim Hom(U, member i), so this is the sum of the parts'
        columns of the table; no module is built and no system solved."""
        return [sum(row[i] for i in parts) for row in self.hom]

    def hom_into(self, m: Representation) -> list[int]:
        """Hom dimensions from every catalog member into m: its column of
        the table when m is a member, solved and cached otherwise."""
        if m in self._members:
            return self.profile([self._members[m]])
        if m not in self._hom_into_cache:
            self._hom_into_cache[m] = [
                len(hom_basis(u.rep, m)) for u in self.entries
            ]
        return self._hom_into_cache[m]

    def bases_from(self, m: Representation) -> list[list[Intertwiner]]:
        """Bases of Hom(m, Y) for every member Y: the stored row of the
        table when m is a member, solved otherwise."""
        if m in self._members:
            return [self.basis(self._members[m], e.index) for e in self.entries]
        return [hom_basis(m, e.rep) for e in self.entries]

    @property
    def weights(self) -> list[int]:
        """The integer vector w with hom . w = 1, summed on first use.

        Member i contributes (hom . w)_i = 1 to sum_Y w_Y dim Hom(X, Y) per
        copy in X, so that sum counts the indecomposable summands of any X.
        hom . A^T = I for the mesh matrix A, so w = A^T . 1, the column sums
        of the mesh rows; hom . w = 1 is checked, so that a table edited
        after construction is refused."""
        if self._weights is None:
            n, mesh = len(self.entries), self.mesh
            w = [1 + sum(ls.count(i) - ms.count(i) for ls, ms in mesh) for i in range(n)]
            if any(sum(h * x for h, x in zip(row, w)) != 1 for row in self.hom):
                raise VerificationError("the mesh column sums are no integral weight vector")
            self._weights = w
        return self._weights

    def middle_counter(self, ctx: Ext1Context) -> Callable[[tuple[int, ...]], int]:
        """Exact summand count of the middle E_c of the cocycle with
        coefficients c in ctx's Ext basis, for 0 -> N -> E_c -> M -> 0.
        No E_c is built.

        Hom(-, Y) gives the exact sequence 0 -> Hom(M, Y) -> Hom(E_c, Y) ->
        Hom(N, Y) -> Ext^1(M, Y), whose last map sends h to the class of c
        then h.  So dim Hom(E_c, Y) = hom(M, Y) + hom(N, Y) - its rank, and
        weighing by w leaves summands(M) + summands(N) - sum_Y w_Y rank.
        Only Y with w_Y, Hom(N, Y) and Ext^1(M, Y) all nonzero contribute.
        The one gate cover.ext(Y, hom(M, Y)) rules out the Y without
        extensions before any Ext basis is computed, and checks the basis
        of every other Y against the long exact Hom sequence, whether M is
        a member or not; the map is linear in c, so its matrix at each Ext
        basis cocycle is found once per Y and each c costs one small rank
        per Y."""
        w = self.weights
        cover, N = ctx.cover, ctx.N
        q = N.q
        from_m, from_n = self.bases_from(cover.module), self.bases_from(N)
        split = sum(x * (len(a) + len(b)) for x, a, b in zip(w, from_m, from_n))
        deltas = []  # (w_Y, matrices of the map at each basis cocycle)
        for y in self.entries:
            if not w[y.index] or not from_n[y.index]:
                continue
            ext_y = cover.ext(y.rep, len(from_m[y.index]))
            if not ext_y.dim:
                continue
            maps = composites(ctx.basis, from_n[y.index])
            k, h, width = maps.shape
            classes = ext_y.classes(maps.reshape(k * h, width))
            deltas.append((w[y.index], classes.reshape(k, h, ext_y.dim)))

        def count(coeffs: tuple[int, ...]) -> int:
            lost = 0
            for wy, mats in deltas:
                acc = np.zeros(mats.shape[1:], dtype=np.int64)
                for c, mat in zip(coeffs, mats):
                    acc = (acc + c * mat) % q
                lost += wy * Matrix(acc, q).rank()
            if split - lost < 1:
                raise VerificationError(f"middle of {coeffs} counted {split - lost} summands")
            return split - lost

        return count

    def accounting_coefficients(self, members: Iterable[int]) -> np.ndarray:
        """The integer vector coef with coef[V] = 2 - the middle summand
        count of the almost-split sequence at V, for every non-projective V
        among the member indices in members, and 0 elsewhere.  Each such
        sequence is certified exact on the table's graph maps
        (tablemaps.certify_sequence), so the count is that certified
        sequence's, not a bare read of V's mesh row; the vector is exact
        against any delta that vanishes off members."""
        coef = np.zeros(len(self.entries), dtype=np.int64)
        for i in sorted(set(members) - self.projectives):
            coef[i] = 2 - self.ar_sequence(self.entries[i]).middle_summand_count
        return coef

    def delta_formula(self, delta: list[int]) -> int:
        """The accounting sum over non-projective members V of
        delta(V) * (2 - middle summand count of the sequence at V), the dot
        product of delta with the coefficients of the V where it is nonzero."""
        coef = self.accounting_coefficients(i for i, d in enumerate(delta) if d)
        return int(coef @ np.asarray(delta, dtype=np.int64))

    def ar_sequence(self, e: CatalogEntry) -> "ARSequence":
        if e.index not in self._ar_cache:
            self._ar_cache[e.index] = _build_ar_sequence(self, e)
        return self._ar_cache[e.index]

    def nonprojective(self) -> list[CatalogEntry]:
        return [e for e in self.entries if e.index not in self.projectives]

    def __len__(self):
        return len(self.entries)


def _image_index(aut: LetterAutomaton, both: list) -> dict:
    """Every image substring of both readings of every member's word, for
    _graph_map_keys: each (reading, t, m) such that E, the walk of length m
    at node t of that reading, has no letter of the reading pointing out of
    it, that is, the letter left of E is direct or absent and the one right
    of it inverse or absent.  Keyed by the letter codes of E, or by its
    vertex when m = 0, and listed as (member, reading, t, m) with reading 0
    for the word and 1 for its inverse.  A trivial E is listed in the word's
    own reading only, so that no map is listed twice."""
    index: dict = {}
    for y, readings in enumerate(both):
        for flip, (walk, nodes) in enumerate(readings):
            codes = [aut.code[l] for l in walk.letters]
            k = len(codes)
            ends = [j for j in range(k + 1) if j == k or codes[j] & 1]
            for t in range(k + 1):
                if t and codes[t - 1] & 1:
                    continue  # the inverse letter left of node t points out of E
                for j in ends:
                    if j >= t + flip:
                        key = tuple(codes[t:j]) if j > t else nodes[t][0]
                        index.setdefault(key, []).append((y, flip, t, j - t))
    return index


def _syzygy_words(p: Presentation, readings: list, n: int) -> list:
    """The summands of the syzygy of M(C), C of length n, with their
    inclusion into P0 (Butler and Ringel 1987).

    readings lists the summands of P0, one per peak of C from left to
    right, as (w, d, lo, hi): the reading w of the word of P(v) whose arms
    run along the slopes of C, the shift d that puts node a of w on node
    a + d of C, and the nodes lo..hi of C its slopes cover.  Two
    neighbouring peaks share the valley hi = lo of the next.  The summands
    are, from left to right: the tail of the first peak's arm past the left
    end of C; at each valley, the arm of the right peak's P(v) below the
    valley followed by that of the left peak's; the tail past the right
    end.  An empty tail is no summand.  Each comes as (walk, maps), maps
    listing (node s of walk, peak t, node a of its w, coefficient): the
    inclusion sends node s to the sum of coefficient times node a of the
    t-th summand of P0.  The top of a valley summand goes to y1 - y2, its
    images y1 in the left peak's P(v) and y2 in the right one's, so its
    left arm, which lies in the right peak's P(v), carries the sign -1."""
    out = []
    w, d, lo, _ = readings[0]
    e = lo - d  # the node of w on the left end of C
    if e:
        out.append((_factor(p, w, 0, e - 1), [(s, 0, s, 1) for s in range(e)]))
    for t in range(len(readings) - 1):
        (w1, d1, _, j), (w2, d2, _, _) = readings[t], readings[t + 1]
        pos1, pos2 = j - d1, j - d2  # the valley's node in w1 and in w2
        walk = concat(p, _factor(p, w2, 0, pos2), _factor(p, w1, pos1, len(w1)))
        maps = [(s, t + 1, s, -1) for s in range(pos2 + 1)]
        maps += [(pos2 + s, t, pos1 + s, 1) for s in range(len(w1) - pos1 + 1)]
        out.append((walk, maps))
    w, d, _, hi = readings[-1]
    e = hi - d  # the node of w on the right end of C
    if e < len(w):
        t = len(readings) - 1
        maps = [(s, t, e + 1 + s, 1) for s in range(len(w) - e)]
        out.append((_factor(p, w, e + 1, len(w)), maps))
    return out


def _factor(p: Presentation, w: Walk, a: int, b: int) -> Walk:
    """The factor of w from its node a to its node b >= a."""
    return Walk(w.letters[a:b]) if a < b else trivial_walk(walk_vertices(p, w)[a])


def catalog_for(p: Presentation) -> Catalog:
    """The catalog of p, built once and held on p itself, so that it lives
    exactly as long as the presentation."""
    if p._catalog is None:
        object.__setattr__(p, "_catalog", Catalog(p))
    return p._catalog


def finite_type_catalog(p: Presentation) -> Catalog | None:
    """The catalog of p when p is a string presentation of finite type;
    None when Catalog refuses p as non-string, infinite dimensional or of
    infinite type.  Every other error propagates."""
    try:
        return catalog_for(p)
    except (NonStringPresentationError, NotFiniteDimensionalError, InfiniteTypeError):
        return None


def enumerate_indecomposables(p: Presentation, max_dim: int) -> list[CatalogEntry]:
    """Catalog members of total dimension at most max_dim.

    Raises InfiniteTypeError with a band witness when bands exist.
    """
    cat = catalog_for(p)
    return [e for e in cat.entries if e.rep.total_dim <= max_dim]


# ---------------------------------------------------------------------------
# word surgery
# ---------------------------------------------------------------------------


def _direct_extensions(aut: LetterAutomaton, w: Walk) -> list[Letter]:
    return [m for m in aut.extensions(w.letters, walk_target(aut.p, w)) if m.is_direct]


def _right_end(aut: LetterAutomaton, w: Walk, beta: Letter | None) -> Walk | None:
    """Surgery at the right end of w.  With a direct letter beta, add the
    hook: beta followed by the maximal inverse run.  With None, delete the
    cohook: the trailing direct run and the inverse letter before it; None
    when w is entirely direct, and the trivial walk at w's source when no
    letter is left."""
    p = aut.p
    if beta is None:
        k = len(w.letters)
        while k and w.letters[k - 1].is_direct:
            k -= 1
        if not k:
            return None
        rest = w.letters[: k - 1]
        return Walk(rest) if rest else trivial_walk(walk_source(p, w))
    out = w.letters + (beta,)
    while True:
        inv = [m for m in aut.extensions(out, letter_target(p, out[-1])) if not m.is_direct]
        if not inv:
            return Walk(out)
        if len(inv) > 1:
            raise VerificationError("inverse continuation not unique; axioms violated?")
        out = out + (inv[0],)


def _left_end(aut: LetterAutomaton, w: Walk, beta: Letter | None) -> Walk | None:
    """Surgery at the left end of w: the right-end surgery of its inverse."""
    out = _right_end(aut, inverse(w), beta)
    return None if out is None else inverse(out)


@dataclass
class ARSequence:
    """Almost-split sequence 0 -> tau V -> E -> V -> 0 for V = M(word).

    tau_word and middle_words are the words of catalog members, in the
    reading the catalog lists them; tau_member, middle_members and
    target_member are the members' indices, and stacks the inclusion and
    projection certified on the table's graph maps.  The surgery walks, in
    the readings the graph maps need, stay on the catalog.
    """

    target_word: Walk
    tau_word: Walk
    middle_words: list[Walk]
    tau_member: int
    middle_members: list[int]
    target_member: int
    stacks: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    middle_summand_count: int


def ar_sequence(p: Presentation, w: Walk) -> ARSequence:
    cat = catalog_for(p)
    return cat.ar_sequence(cat.lookup(w))


def _surgery(cat: Catalog, entry: CatalogEntry) -> tuple[Walk, Walk | None, Walk | None]:
    """The words of the almost-split sequence ending at a non-projective
    member, by surgery: tau V, and the middle summands from surgery at the
    right and at the left end of V's word, None where there is none."""
    w, aut = entry.word, cat.automaton
    right_cands = _direct_extensions(aut, w)
    left_cands = _direct_extensions(aut, inverse(w))
    if w.is_trivial:
        # the two ends of a trivial word take distinct extensions, in
        # letter_key order
        right_cands, left_cands = right_cands[:1], right_cands[1:2]
    elif len(right_cands) > 1 or len(left_cands) > 1:
        raise VerificationError("extension not unique at an end; axioms violated?")
    # each end adds the hook at its direct letter or, with None, deletes a cohook
    beta_r = right_cands[0] if right_cands else None
    beta_l = left_cands[0] if left_cands else None

    # middle summands: one-sided surgery on w
    walk_r = _right_end(aut, w, beta_r)
    walk_l = _left_end(aut, w, beta_l)

    # translate: both ends, additions before deletions so that a deletion
    # may consume into freshly added material on serial words
    ends = [(_right_end, beta_r), (_left_end, beta_l)]
    t = w
    for end, beta in sorted(ends, key=lambda e: e[1] is None):
        if t is not None:
            t = end(aut, t, beta)
    if t is None:
        raise StringAlgError("surgery deleted everything; input looks projective")
    return t, walk_r, walk_l


def _surgery_member(cat: Catalog, walk: Walk) -> tuple[int, int]:
    """The member index and reading of a walk that surgery on a member gave.
    Surgery on members only reaches members, so a miss is a construction
    bug."""
    found = cat.reading(walk)
    if found is None:
        raise VerificationError(f"surgery gave {format_walk(walk)}, not a catalog word")
    return found


def _build_ar_sequence(cat: Catalog, entry: CatalogEntry) -> ARSequence:
    """The sequence from the surgery walks stored on construction, certified
    on graph maps of the table (certify_sequence) with no module built; its
    mesh row is checked again, so that a table edited since is refused.

    Each map sends node i of its source walk to node i + d of its target
    walk, where both are in range: d is len(E_r) - len(tau V) into the
    right-surgery walk E_r and 0 out of it, 0 into the left-surgery walk
    E_l, which shares its left end with tau V, and len(V) - len(E_l) out of
    it.  With two summands both composites tau V -> E_i -> V are the same
    graph map, so the second map to V carries the sign -1 and the composite
    vanishes."""
    if entry.index in cat.projectives:
        raise StringAlgError(
            f"M({format_walk(entry.word)}) is projective; no almost-split sequence ends there"
        )
    _check_defect(cat, entry.index, *cat.mesh[entry.index])
    t, right, left = cat._walks[entry.index]
    shifts = []  # (middle walk, shift from tau V, shift to V)
    if right is not None:
        shifts.append((right, len(right) - len(t), 0))
    if left is not None:
        shifts.append((left, 0, len(entry.word) - len(left)))
    tau, target = _surgery_member(cat, t), (entry.index, 0)

    def key(src, a, dst, b, d):
        # the table key of the map from a walk of length a to one of length b
        i = max(0, -d)
        return cat.map_key(*src, i, *dst, i + d, min(a, b - d) - i)

    middles, incl, proj = [], [], []
    for k, (walk, into, onto) in enumerate(shifts):
        middle = _surgery_member(cat, walk)
        middles.append(middle[0])
        incl.append((0, k, key(tau, len(t), middle, len(walk), into), 1))
        proj.append((k, 0, key(middle, len(walk), target, len(entry.word), onto), -1 if k else 1))
    name = f"almost split sequence ending at {entry.rep.label}"
    stacks = certify_sequence(cat, [tau[0]], middles, [entry.index], incl, proj, name)
    return ARSequence(
        target_word=entry.word,
        tau_word=cat.entries[tau[0]].word,
        middle_words=[cat.entries[i].word for i in middles],
        tau_member=tau[0],
        middle_members=middles,
        target_member=entry.index,
        stacks=stacks,
        middle_summand_count=len(middles),
    )


def _check_defect(cat: Catalog, v: int, ls: list[int], ms: list[int]):
    """hom(U, L) - hom(U, E) + hom(U, V) = [U = V] on the table for every
    member U, L and E the sums of the members at the indices ls and ms."""
    for u in cat.entries:
        row = cat.hom[u.index]
        lhs = sum(row[i] for i in ls) - sum(row[i] for i in ms) + row[v]
        want = 1 if u.index == v else 0
        if lhs != want:
            raise VerificationError(
                f"defect identity fails at U=M({format_walk(u.word)}): {lhs} != {want}"
            )


# ---------------------------------------------------------------------------
# hom order and the summand-count ledger
# ---------------------------------------------------------------------------


def hom_delta(into_m: list[int], into_n: list[int]) -> tuple[bool, list[int]]:
    """delta(V) = dim Hom(V, N) - dim Hom(V, M) from the two hom profiles,
    indexed like the catalog, and whether it is nonnegative everywhere."""
    delta = [n - m for m, n in zip(into_m, into_n)]
    return all(x >= 0 for x in delta), delta


def hom_leq(M: Representation, N: Representation) -> tuple[bool, list[int]]:
    """The hom-order test: equal dimension vectors and delta(V) >= 0 for
    every indecomposable V; returns the verdict and delta."""
    cat = catalog_for(M.pres)
    nonnegative, delta = hom_delta(cat.hom_into(M), cat.hom_into(N))
    return nonnegative and M.dimension_vector() == N.dimension_vector(), delta


@dataclass
class RiedtmannWitness:
    X: Representation
    Y: Representation
    Z: Representation
    verified: bool


def riedtmann_witness(M: Representation, N: Representation) -> RiedtmannWitness:
    """Build X, Y, Z so that M + X + Z and N + Y have equal hom counts
    against every catalog member, as sums of the members of the
    almost-split sequences at the V with delta(V) > 0, delta(V) times each;
    verified by direct computation."""
    cat = catalog_for(M.pres)
    ok, delta = hom_leq(M, N)
    if not ok:
        raise StringAlgError("riedtmann witness needs hom_leq(M, N) to hold")
    xs, ys, zs = [], [], []
    reps = [u.rep for u in cat.entries]
    for e in cat.nonprojective():
        d = delta[e.index]
        if d <= 0:
            continue
        seq = cat.ar_sequence(e)
        xs += [reps[seq.tau_member]] * d
        ys += [reps[i] for i in seq.middle_members] * d
        zs += [reps[seq.target_member]] * d
    p = M.pres
    X = direct_sum(xs, label="X") if xs else zero_representation(p)
    Y = direct_sum(ys, label="Y") if ys else zero_representation(p)
    Z = direct_sum(zs, label="Z") if zs else zero_representation(p)
    left = direct_sum([M, X, Z]) if (xs or zs) else M
    right = direct_sum([N, Y]) if ys else N
    for u in cat.entries:
        if len(hom_basis(u.rep, left)) != len(hom_basis(u.rep, right)):
            raise VerificationError(
                f"witness identity fails against M({format_walk(u.word)})"
            )
    return RiedtmannWitness(X, Y, Z, True)


def delta_count_formula(M: Representation, N: Representation) -> int:
    """The accounting sum over non-projective indecomposables of
    delta(V) * (2 - middle summand count of the sequence at V)."""
    ok, delta = hom_leq(M, N)
    if not ok:
        raise StringAlgError("delta formula needs hom_leq(M, N) to hold")
    return catalog_for(M.pres).delta_formula(delta)
