"""Almost-split sequences, the hom order, and summand-count accounting.

Over a finite-type string presentation the indecomposables are exactly the
string modules of the finitely many words.  In the catalog a word is its
row of letter codes (LetterAutomaton; code ^ 1 is the inverse letter), or
its vertex when trivial; a Walk is made only for printing and lookup.  The
almost-split sequence ending at a non-projective string module is built
by surgery on that row (Butler and Ringel 1987): at each end, add a hook
(a direct letter followed by the maximal inverse run) when the automaton
allows one, otherwise delete a cohook (the trailing direct run together
with the inverse letter before it).  One operation works at the right end;
the left end is the right end of the inverse row.  The two one-sided
surgeries give the middle summands, both-sided surgery gives the
translate, and each resulting row is read off the catalog, which indexes
both readings of every member's word by row.
Every sequence is checked against the defect identity

    dim Hom(U, tau V) - dim Hom(U, E) + dim Hom(U, V) = [U iso V]

over the full catalog, which characterizes almost-split sequences, and
certified exact on the table's graph maps by the one certificate of covers
and word middles (tablemaps.certify_sequence), which reads each map's run
of nodes off its table key, with no matrix or module built.

The catalog's Hom table is written from the words as well, with no linear
solve: between string modules Hom has a basis of graph maps
(Crawley-Boevey 1989), one for each walk that sits in the source's word
as a factor string and in the target's word, either reading, as a
substring.  The image substrings of every member are indexed once by
their code rows, and each member's factor strings are looked up there.
Each map is kept as its key and checked on its run of nodes, with no
matrix or module built: the run's vertices must agree, and the map must
commute with every arrow, which it does inside the run when the run's
letters are those of its image and otherwise depends only on the letters
next to the run's two ends.  The maps into each member must be
independent, and the table must hold the projective and the injective at
every vertex where Yoneda puts them.  A map is written out as a matrix
only on request.
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
from .homalg import Ext1Context, Intertwiner, composites, hom_basis
from .linalg import Matrix
from .presentation import Presentation
from .reps import Representation, direct_sum, string_module_with_nodes, zero_representation
from .tablemaps import certify_sequence
from .words import LetterAutomaton, Walk, automaton_for, enumerate_words, format_walk, require_string


# ---------------------------------------------------------------------------
# catalog of indecomposables
# ---------------------------------------------------------------------------


@dataclass
class CatalogEntry:
    index: int
    word: Walk
    rep: Representation
    nodes: list  # node placements of the string module


@dataclass
class WordCover:
    """The projective cover 0 -> syzygy -> P0 -> M -> 0 of member M, written
    from its word in catalog members and certified on the table's graph
    maps (Catalog.cover): the member indices of the summands of P0 and of
    the syzygy, the tops, and the certified incl and epi as their blocks
    (k, t, key, sign) of table keys (tablemaps).  No matrix or module is
    built."""

    catalog: Catalog
    member: int
    top: dict[str, int]  # top_v: the number of copies of P(v) in P0
    cover_parts: list[int]
    syzygy_parts: list[int]
    incl: list[tuple] = field(repr=False)
    epi: list[tuple] = field(repr=False)
    _gate: np.ndarray | None = field(default=None, repr=False)

    def gate_row(self) -> np.ndarray:
        """dim Ext^1(M, Y) for every member Y, as one integer row, from the
        long exact Hom sequence of the cover: with S the multiplicities of
        the members in the syzygy, T the tops and D the dimension vectors,
        the row is S.H - T.D^T + H, read at M's row of the Hom table H
        (Yoneda gives hom(P0, Y) = T.D_Y).  It is computed on first use from
        top, syzygy_parts and the table as they are then, and kept.  A
        negative entry is a construction bug and is raised naming its
        pair."""
        if self._gate is None:
            cat = self.catalog
            parts = self.syzygy_parts + [self.member]
            top = np.array([self.top[v] for v in cat.p.quiver.vertices], dtype=np.int64)
            row = np.array([cat.hom[i] for i in parts], dtype=np.int64).sum(axis=0) - cat.dimvecs @ top
            negative = np.flatnonzero(row < 0)
            if negative.size:
                y = int(negative[0])
                raise VerificationError(
                    f"long exact Hom sequence gives dim Ext^1({cat.entries[self.member].rep.label}, "
                    f"{cat.entries[y].rep.label}) = {row[y]}"
                )
            self._gate = row
        return self._gate


class Catalog:
    """All indecomposables of a finite-type string presentation.

    Construction refuses infinite type, carrying a band witness.  codes
    holds both readings of every member's word as code rows, and reading
    finds the member of a row.  The Hom table between members is written
    from their rows in graph maps, found in an index of the rows' image
    substrings, and each map is checked on its run of nodes (_hom_row); hom
    holds the dimensions, hom_keys the maps' keys, run reads a key's run of
    nodes, and map_matrix writes a map as one matrix and basis the maps as
    Intertwiners on request.  The
    projective at each vertex is read off its rows, exactly one column
    must be the injective's, and hom . A^T = I must hold for the mesh
    matrix A.  Surgery runs once, here.  The weight vector and
    almost-split data are read off A and the surgery's members lazily.
    Projective covers (WordCover, which holds the gate row of Ext^1 and no
    module) and almost-split sequences are written from the rows on request
    and certified, like the middles wordext reads off the rows, on graph
    maps of the table by the one certificate (tablemaps.certify_sequence).
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
        self.codes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        # both readings by code row, or by vertex for a trivial word, each
        # with the member's index and 1 for the inverse, 0 for the word
        self._readings: dict[tuple[int, ...] | str, tuple[int, int]] = {}
        for w in words:
            rep, nodes = string_module_with_nodes(p, w)
            entry = CatalogEntry(len(self.entries), w, rep, nodes)
            self.entries.append(entry)
            row = self.key(w) if w.letters else ()
            self.codes.append((row, _inverse(row)))
            for flip, key in enumerate(self.codes[-1]):
                self._readings.setdefault(key or nodes[0][0], (entry.index, flip))
        self.lengths = [len(w) for w in words]
        vertices = p.quiver.vertices
        at = {v: j for j, v in enumerate(vertices)}
        # members x vertices; a member's total coordinates list its basis
        # vertex by vertex, starts holds where each vertex's block starts and
        # widths the total dimension
        self.dimvecs = np.array(
            [[e.rep.dim(v) for v in vertices] for e in self.entries], dtype=np.int64
        ).reshape(len(self.entries), len(vertices))
        self.dim_rows = self.dimvecs.tolist()
        self.widths = self.dimvecs.sum(axis=1).tolist()
        self.starts = np.cumsum(self.dimvecs, axis=1) - self.dimvecs
        # per member and reading: the total coordinate and the vertex of each node
        self._nodes = []
        for e, starts in zip(self.entries, self.starts.tolist()):
            coords = [starts[at[v]] + c for v, c in e.nodes]
            verts = tuple(at[v] for v, _ in e.nodes)
            self._nodes.append(((coords, verts), (coords[::-1], verts[::-1])))
        images = _image_index(self)
        # beside each basis map, where the index put it: (reading, s, t, m)
        # with reading 0 for the target's word and 1 for its inverse
        self.hom_keys = [self._hom_row(u, self._graph_map_keys(u, images)) for u in self.entries]
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
        # the mesh matrix A; hom . A^T = I determines the table, so a graph
        # map missed is refused here
        self.mesh = np.identity(len(self.entries), dtype=np.int64)
        # per non-projective member: tau V and the right and left surgery's
        # middle summands as (member, reading), None where there is none
        self._ends: dict[int, list[tuple[int, int] | None]] = {}
        for e in self.entries:
            v = e.index
            if v in self.projectives:
                # the top of a projective's word is the node before its first
                # direct letter, and rad V is what is left on either side
                w = self.codes[v][0]
                k = next((j for j, c in enumerate(w) if not c & 1), len(w))
                rad = [w[a:b] or e.nodes[a][0] for a, b in ((0, k - 1), (k + 1, len(w))) if 0 <= a <= b]
                ends = [None, *(_member(self, x, "surgery gave") for x in rad)]
            else:
                ends = self._ends[v] = [x and _member(self, x, "surgery gave") for x in _surgery(self, e)]
            tau, *middles = ends
            if tau:
                self.mesh[v, tau[0]] += 1
            for m in filter(None, middles):
                self.mesh[v, m[0]] -= 1
        _check_defect(self, np.arange(len(self.entries)))

    def _graph_map_keys(self, u: CatalogEntry, images: dict) -> list[list[tuple]]:
        """The graph maps M(u) -> Y for every member Y, each as its
        (reading, s, t, m), in that order: every factor string of u's word,
        a walk E of length m at node s with no letter of the word pointing
        into it, looked up among images, the image substrings of
        _image_index.  The map sends node s + j of u's word to node t + j
        of Y's word in that reading and every other node to 0
        (Crawley-Boevey 1989)."""
        codes = self.codes[u.index][0]
        n = len(codes)
        ends = [j for j in range(n + 1) if j == n or not codes[j] & 1]
        keys: list[list[tuple]] = [[] for _ in self.entries]
        for s in range(n + 1):
            if s and not codes[s - 1] & 1:
                continue  # the direct letter left of node s points into E
            for j in ends:
                if j >= s:
                    found = images.get(codes[s:j] or u.nodes[s][0], ())
                    for y, flip, t, m in found:
                        keys[y].append((flip, s, t, m))
        for row in keys:
            row.sort()
        return keys

    def _hom_row(self, u: CatalogEntry, keys: list[list[tuple]]) -> list[list[tuple]]:
        """keys, the graph maps from M(u) into each member, once each map
        is verified on its run of nodes (_faults) with no matrix built: a
        run whose vertices differ is refused first, then the first arrow, in
        declaration order, that some map of the row does not commute with.
        The maps into each member must be linearly independent; where there
        are two or more, their rank is taken on their cells (_cells)."""
        arrows, q = self.p.quiver.arrows, self.p.q
        faults = set()
        for y, row in enumerate(keys):
            for key in row:
                faults |= self._faults(u.index, y, key)
        if faults:
            raise VerificationError(
                f"row M({format_walk(u.word)}) of the Hom table does not commute with arrow {arrows[min(faults)].name}"
            )
        for y, row in enumerate(keys):
            # one graph map is nonzero; only two or more can be dependent
            if len(row) > 1:
                maps = np.zeros((len(row), self.widths[u.index], self.widths[y]), dtype=np.int64)
                for k, key in enumerate(row):
                    maps[(k, *self._cells(u.index, y, key))] = 1
                if Matrix(maps.reshape(len(row), -1), q).rank() < len(row):
                    raise VerificationError(
                        f"graph maps M({format_walk(u.word)}) -> M({format_walk(self.entries[y].word)}) are dependent"
                    )
        return keys

    def _faults(self, u: int, y: int, key: tuple) -> set[int]:
        """The indices of the arrows that the graph map at key, its
        (reading, s, t, m), from member u to member y does not commute
        with, read off its run of nodes: node s + j of u's word goes to node
        t + j of y's reading, as _cells cuts them.  The vertices of the whole
        run must agree.  Inside the run the map commutes exactly when the
        letters of the run in u are those of its image in y; where they are
        not, every node of the run and beside it is checked.  Otherwise only
        the letters next to the run's two ends can act on a node of the run
        or move one into it, so only the two end nodes of the run and the
        node beside each are checked."""
        flip, s, t, m = key
        src, dst = self._nodes[u][0][1], self._nodes[y][flip][1]
        if src[s : s + m + 1] != dst[t : t + m + 1]:
            raise VerificationError("graph map misaligned: vertex mismatch")
        run = range(len(src))[s : s + m + 1]
        if not run:
            return set()  # the zero map
        s, t, m = run.start, range(len(dst))[t : t + m + 1].start, len(run) - 1
        U, Y = self.codes[u][0], self.codes[y][flip]
        nodes = (s - 1, s, s + m, s + m + 1) if U[s : s + m] == Y[t : t + m] else range(s - 1, s + m + 2)
        faults = set()
        for i in nodes:
            if 0 <= i < len(src):
                # e_i . U_a . f against e_i . f . Y_a, each as the step the arrow takes
                moved = {(a, d) for a, d in _moves(U, i) if s <= i + d <= s + m}
                image = _moves(Y, t + i - s) if s <= i <= s + m else set()
                faults |= {a for a, _ in moved ^ image}
        return faults

    def _cells(self, u: int, y: int, key: tuple) -> tuple[list[int], list[int]]:
        """The rows and the columns of the ones of the graph map at key, its
        (reading, s, t, m), from member u to member y, on total coordinates:
        node s + j of u's word goes to node t + j of y's word in that
        reading.  map_matrix writes maps from these, and _hom_row the maps
        whose rank it takes."""
        flip, s, t, m = key
        (src, src_verts), (dst, dst_verts) = self._nodes[u][0], self._nodes[y][flip]
        if src_verts[s : s + m + 1] != dst_verts[t : t + m + 1]:
            raise VerificationError("graph map misaligned: vertex mismatch")
        return src[s : s + m + 1], dst[t : t + m + 1]

    def _held(self, u: int, y: int, key: tuple) -> None:
        """Refuse a key of a graph map from member u to member y that the
        table does not hold, a construction bug."""
        if key not in self.hom_keys[u][y]:
            raise VerificationError(
                f"no graph map M({format_walk(self.entries[u].word)}) -> "
                f"M({format_walk(self.entries[y].word)}) at {key}"
            )

    def map_matrix(self, u: int, y: int, key: tuple) -> np.ndarray:
        """The graph map of the table from member u to member y at key, its
        (reading, s, t, m), written from its nodes (_cells) as one matrix on
        total coordinates: rows are u's basis and columns y's, each vertex
        by vertex."""
        self._held(u, y, key)
        out = np.zeros((self.widths[u], self.widths[y]), dtype=np.int64)
        out[self._cells(u, y, key)] = 1
        return out

    def run(self, u: int, y: int, key: tuple) -> tuple[int, int, int, int]:
        """The graph map of the table from member u to member y at key as
        its run of nodes (i, j, d, m): node i + x of u's word goes to node
        j + d*x of y's word, x = 0..m, with d = -1 where key reads y's
        inverse, whose node t is node len(y) - t of the word."""
        self._held(u, y, key)
        flip, s, t, m = key
        return (s, self.lengths[y] - t, -1, m) if flip else (s, t, 1, m)

    def map_key(self, u: int, fu: int, i: int, y: int, fy: int, j: int, m: int) -> tuple:
        """The key (reading, s, t, m) of the graph map that sends nodes
        i..i+m of member u's word to nodes j..j+m of member y's, each read
        as its inverse where fu or fy is 1: the table reads the source in its
        word and lists a trivial E in the target's word only."""
        if fu:
            i, j, fy = self.lengths[u] - i - m, self.lengths[y] - j - m, 1 - fy
        if fy and not m:
            return 0, i, self.lengths[y] - j, 0
        return fy, i, j, m

    def basis(self, u: int, y: int) -> list[Intertwiner]:
        """The table's basis of Hom(member u, member y): its graph maps in
        the order of hom_keys, each written from its key (map_matrix) and
        cut vertex by vertex on first use, and kept."""
        if (u, y) not in self._bases:
            U, Y, q = self.entries[u].rep, self.entries[y].rep, self.p.q
            cuts = list(zip(self.p.quiver.vertices, self.starts[u].tolist(), self.dimvecs[u].tolist(),
                            self.starts[y].tolist(), self.dimvecs[y].tolist()))
            self._bases[u, y] = [
                Intertwiner(U, Y, {v: Matrix(f[r : r + h, c : c + w], q) for v, r, h, c, w in cuts})
                for f in (self.map_matrix(u, y, key) for key in self.hom_keys[u][y])
            ]
        return self._bases[u, y]

    def key(self, w: Walk) -> tuple[int, ...] | str:
        """reading's key for the walk w: its code row, or its vertex if trivial."""
        return tuple(self.automaton.code[l] for l in w.letters) or w.vertex

    def lookup(self, w: Walk) -> CatalogEntry:
        found = self.reading(self.key(w))
        if found is None:
            raise StringAlgError(f"word {format_walk(w)} not in the catalog")
        return self.entries[found[0]]

    def reading(self, key: tuple[int, ...] | str) -> tuple[int, int] | None:
        """The index of the member whose word or its inverse has the code
        row key (the vertex, for a trivial word), and 1 when key reads the
        inverse, 0 when it reads the word; None for any other key."""
        return self._readings.get(key)

    def cover(self, entry: CatalogEntry) -> WordCover:
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
        member index of every summand, so its gate row reads Hom from the
        syzygy off the table."""
        c, C = entry.index, self.codes[entry.index][0]
        n = len(C)
        top = {v: 0 for v in self.p.quiver.vertices}
        peaks, readings, epi = [], [], []  # readings: per peak (w, d, lo, hi)
        for i in range(n + 1):
            if (i and not C[i - 1] & 1) or (i < n and C[i] & 1):
                continue  # a letter points into node i
            lo, hi = i, i
            while lo and C[lo - 1] & 1:
                lo -= 1
            while hi < n and not C[hi] & 1:
                hi += 1
            v = entry.nodes[i][0]
            u = self.projective_at[v]
            for flip, w in enumerate(self.codes[u]):
                # the top of P(v) is the node before its first direct letter
                k = next((j for j, x in enumerate(w) if not x & 1), len(w))
                if i - lo <= k <= len(w) - (hi - i) and w[k - i + lo : k + hi - i] == C[lo:hi]:
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
        for key, maps in _syzygy_words(self.automaton, readings, n):
            found = _member(self, key, f"syzygy of M({format_walk(entry.word)}) has the summand")
            # each run of nodes into one peak with one sign is a graph map
            for (t, sign), run in itertools.groupby(maps, key=lambda x: (x[1], x[3])):
                s, _, a, _ = next(run)
                m = sum(1 for _ in run)
                incl.append((len(syzygy), t, self.map_key(*found, s, *peaks[t], a, m), sign))
            syzygy.append(found[0])
        members = [u for u, _ in peaks]
        name = f"projective cover of {entry.rep.label}"
        certify_sequence(self, syzygy, members, [c], incl, epi, name)
        return WordCover(self, c, top, members, syzygy, incl, epi)

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
        of A; hom . w = 1 is checked, so that a table edited after
        construction is refused."""
        if self._weights is None:
            w = self.mesh.sum(axis=0)
            if (np.array(self.hom, dtype=np.int64) @ w != 1).any():
                raise VerificationError("the mesh column sums are no integral weight vector")
            self._weights = w.tolist()
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
        ctx's cover is a solved one (homalg.projective_cover), for member
        and non-member M alike, and its gate cover.ext(Y, hom(M, Y)) rules
        out the Y without extensions before any Ext basis is computed and
        checks the basis of every other Y against the long exact Hom
        sequence; the map is linear in c, so its matrix at each Ext basis
        cocycle is found once per Y and each c costs one small rank per Y."""
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


def _image_index(cat: Catalog) -> dict:
    """Every image substring of both readings of every member's word, for
    _graph_map_keys: each (reading, t, m) such that E, the walk of length m
    at node t of that reading, has no letter of the reading pointing out of
    it, that is, the letter left of E is direct or absent and the one right
    of it inverse or absent.  Keyed by the code row of E, or by its vertex
    when m = 0, and listed as (member, reading, t, m) with reading 0 for the
    word and 1 for its inverse.  A trivial E is listed in the word's own
    reading only, so that no map is listed twice."""
    index: dict = {}
    for y, (entry, readings) in enumerate(zip(cat.entries, cat.codes)):
        for flip, codes in enumerate(readings):
            k = len(codes)
            ends = [j for j in range(k + 1) if j == k or codes[j] & 1]
            for t in range(k + 1):
                if t and codes[t - 1] & 1:
                    continue  # the inverse letter left of node t points out of E
                for j in ends:
                    if j >= t + flip:
                        key = codes[t:j] or entry.nodes[t][0]
                        index.setdefault(key, []).append((y, flip, t, j - t))
    return index


def _moves(row: tuple[int, ...], i: int) -> set[tuple[int, int]]:
    """The arrows, by index, that act on node i of a reading's code row,
    each with the step, +1 or -1, to the node it sends i to: a direct
    letter right of node i, an inverse letter left of it."""
    out = set()
    if i < len(row) and not row[i] & 1:
        out.add((row[i] >> 1, 1))
    if i and row[i - 1] & 1:
        out.add((row[i - 1] >> 1, -1))
    return out


def _syzygy_words(aut: LetterAutomaton, readings: list, n: int) -> list:
    """The summands of the syzygy of M(C), C of length n, with their
    inclusion into P0 (Butler and Ringel 1987).

    readings lists the summands of P0, one per peak of C from left to
    right, as (w, d, lo, hi): the code row w of the reading of P(v) whose
    arms run along the slopes of C, the shift d that puts node a of w on
    node a + d of C, and the nodes lo..hi of C its slopes cover.  Two
    neighbouring peaks share the valley hi = lo of the next.  The summands
    are, from left to right: the tail of the first peak's arm past the left
    end of C; at each valley, the arm of the right peak's P(v) below the
    valley followed by that of the left peak's; the tail past the right
    end.  An empty tail is no summand.  Each comes as (key, maps), key its
    code row or vertex, maps listing (node s of it, peak t, node a of its w,
    coefficient): the inclusion sends node s to the sum of coefficient
    times node a of the t-th summand of P0.  The top of a valley summand
    goes to y1 - y2, its images y1 in the left peak's P(v) and y2 in the
    right one's, so its left arm, which lies in the right peak's P(v),
    carries the sign -1."""
    out = []
    w, d, lo, _ = readings[0]
    e = lo - d  # the node of w on the left end of C
    if e:
        out.append((w[: e - 1] or aut.source[w[0]], [(s, 0, s, 1) for s in range(e)]))
    for t in range(len(readings) - 1):
        (w1, d1, _, j), (w2, d2, _, _) = readings[t], readings[t + 1]
        pos1, pos2 = j - d1, j - d2  # the valley's node in w1 and in w2
        maps = [(s, t + 1, s, -1) for s in range(pos2 + 1)]
        maps += [(pos2 + s, t, pos1 + s, 1) for s in range(len(w1) - pos1 + 1)]
        out.append((w2[:pos2] + w1[pos1:] or aut.source[w2[0]], maps))
    w, d, _, hi = readings[-1]
    e = hi - d  # the node of w on the right end of C
    if e < len(w):
        t = len(readings) - 1
        maps = [(s, t, e + 1 + s, 1) for s in range(len(w) - e)]
        out.append((w[e + 1 :] or aut.source[w[-1] ^ 1], maps))
    return out


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


def _state(aut: LetterAutomaton, w: tuple[int, ...] | str) -> int:
    """The state the automaton reads w to, w a code row or the vertex of a
    trivial word; a row that is no word is a construction bug."""
    state = aut.index[(w, ())] if isinstance(w, str) else aut.read(aut.first[w[0]], w[1:])
    if state is None:
        raise VerificationError(f"surgery reached {row_text(aut, w)}, not a word")
    return state


def _inverse(w: tuple[int, ...] | str) -> tuple[int, ...] | str:
    """The inverse of a code row; a trivial word, its vertex, is fixed."""
    return w if isinstance(w, str) else tuple(c ^ 1 for c in reversed(w))


def row_text(aut: LetterAutomaton, w: tuple[int, ...] | str) -> str:
    """format_walk of the walk of a code row or of a vertex."""
    return f"e({w})" if isinstance(w, str) else " ".join(aut.letters[c].text for c in w)


def _right_end(aut: LetterAutomaton, w: tuple[int, ...] | str, beta: int | None) -> tuple[int, ...] | str | None:
    """Surgery at the right end of w, a code row or vertex.  With a direct
    letter's code beta, add the hook: beta followed by the maximal inverse
    run.  With None, delete the cohook: the trailing direct run and the
    inverse letter before it; None when w is entirely direct, and the
    vertex at w's source when no letter is left."""
    row = () if isinstance(w, str) else w
    if beta is None:
        k = len(row)
        while k and not row[k - 1] & 1:
            k -= 1
        if not k:
            return None
        return row[: k - 1] or aut.source[row[0]]
    state = aut.edges[_state(aut, w)][beta]
    out = row + (beta,)
    while True:
        inv = [c for c in aut.edges[state] if c & 1]
        if not inv:
            return out
        if len(inv) > 1:
            raise VerificationError("inverse continuation not unique; axioms violated?")
        out += (inv[0],)
        state = aut.edges[state][inv[0]]


def _left_end(aut: LetterAutomaton, w: tuple[int, ...] | str, beta: int | None) -> tuple[int, ...] | str | None:
    """Surgery at the left end of w: the right-end surgery of its inverse."""
    out = _right_end(aut, _inverse(w), beta)
    return None if out is None else _inverse(out)


@dataclass
class ARSequence:
    """Almost-split sequence 0 -> tau V -> E -> V -> 0 for V = M(word).

    tau_word and middle_words are the words of catalog members, in the
    reading the catalog lists them; tau_member, middle_members and
    target_member are the members' indices, and incl and proj the
    inclusion and projection certified on the table's graph maps, as their
    blocks (k, t, key, sign) of table keys (tablemaps).  The surgery's
    members, in the readings the graph maps need, stay on the catalog.
    """

    target_word: Walk
    tau_word: Walk
    middle_words: list[Walk]
    tau_member: int
    middle_members: list[int]
    target_member: int
    incl: list[tuple] = field(repr=False, compare=False)
    proj: list[tuple] = field(repr=False, compare=False)
    middle_summand_count: int


def ar_sequence(p: Presentation, w: Walk) -> ARSequence:
    cat = catalog_for(p)
    return cat.ar_sequence(cat.lookup(w))


def _surgery(cat: Catalog, entry: CatalogEntry) -> tuple:
    """The code rows (or vertices) of the almost-split sequence ending at a
    non-projective member, by surgery: tau V, and the middle summands from
    surgery at the right and at the left end, None where there is none."""
    aut = cat.automaton
    w = cat.codes[entry.index][0] or entry.nodes[0][0]
    right_cands, left_cands = ([c for c in aut.edges[_state(aut, x)] if not c & 1] for x in (w, _inverse(w)))
    if isinstance(w, str):
        # the two ends of a trivial word take distinct extensions, in code
        # order
        right_cands, left_cands = right_cands[:1], right_cands[1:2]
    elif len(right_cands) > 1 or len(left_cands) > 1:
        raise VerificationError("extension not unique at an end; axioms violated?")
    # each end adds the hook at its direct letter or, with None, deletes a cohook
    beta_r = right_cands[0] if right_cands else None
    beta_l = left_cands[0] if left_cands else None

    # middle summands: one-sided surgery on w
    right = _right_end(aut, w, beta_r)
    left = _left_end(aut, w, beta_l)

    # translate: both ends, additions before deletions so that a deletion
    # may consume into freshly added material on serial words
    ends = [(_right_end, beta_r), (_left_end, beta_l)]
    t = w
    for end, beta in sorted(ends, key=lambda e: e[1] is None):
        if t is not None:
            t = end(aut, t, beta)
    if t is None:
        # Catalog calls this on non-projective members only
        raise VerificationError(f"surgery deleted all of M({format_walk(entry.word)}), which is not projective")
    return t, right, left


def _member(cat: Catalog, key: tuple[int, ...] | str, source: str) -> tuple[int, int]:
    """The member index and reading of the code row (or vertex) key that
    surgery or a cover, named by source, made from members.  Both only
    reach members, so a miss is a construction bug."""
    found = cat.reading(key)
    if found is None:
        raise VerificationError(f"{source} {row_text(cat.automaton, key)}, not a catalog word")
    return found


def _build_ar_sequence(cat: Catalog, entry: CatalogEntry) -> ARSequence:
    """The sequence from the surgery's members stored on construction,
    certified on graph maps of the table (certify_sequence) with no module
    built; its mesh row is checked again, so that a table edited since is
    refused.

    Each map sends node i of its source reading to node i + d of its target
    reading, where both are in range: d is len(E_r) - len(tau V) into the
    right-surgery summand E_r and 0 out of it, 0 into the left-surgery
    summand E_l, which shares its left end with tau V, and len(V) - len(E_l)
    out of it.  With two summands both composites tau V -> E_i -> V are the
    same graph map, so the second map to V carries the sign -1 and the
    composite vanishes."""
    if entry.index in cat.projectives:
        raise StringAlgError(
            f"M({format_walk(entry.word)}) is projective; no almost-split sequence ends there"
        )
    _check_defect(cat, [entry.index])
    tau, right, left = cat._ends[entry.index]
    length = cat.lengths
    shifts = []  # (middle, shift from tau V, shift to V)
    if right is not None:
        shifts.append((right, length[right[0]] - length[tau[0]], 0))
    if left is not None:
        shifts.append((left, 0, length[entry.index] - length[left[0]]))
    target = (entry.index, 0)

    def key(src, dst, d):
        # the table key of the map between two readings, by shift d
        i = max(0, -d)
        return cat.map_key(*src, i, *dst, i + d, min(length[src[0]], length[dst[0]] - d) - i)

    middles, incl, proj = [], [], []
    for k, (middle, into, onto) in enumerate(shifts):
        middles.append(middle[0])
        incl.append((0, k, key(tau, middle, into), 1))
        proj.append((k, 0, key(middle, target, onto), -1 if k else 1))
    name = f"almost split sequence ending at {entry.rep.label}"
    certify_sequence(cat, [tau[0]], middles, [entry.index], incl, proj, name)
    return ARSequence(
        target_word=entry.word,
        tau_word=cat.entries[tau[0]].word,
        middle_words=[cat.entries[i].word for i in middles],
        tau_member=tau[0],
        middle_members=middles,
        target_member=entry.index,
        incl=incl,
        proj=proj,
        middle_summand_count=len(middles),
    )


def _check_defect(cat: Catalog, vs):
    """hom(U, L) - hom(U, E) + hom(U, V) = [U = V] on the table for every
    member U and each member V at the indices vs, L and E from V's mesh
    row: the columns vs of hom . A^T = I, each summed over the at most four
    nonzero entries of its row of A.  The first pair that fails, V by V and
    then U by U, is raised."""
    rows = cat.mesh[vs]
    cols = np.flatnonzero(rows.any(axis=0))
    table = np.array([[row[i] for i in cols.tolist()] for row in cat.hom], dtype=np.int64)
    ks, js = np.nonzero(rows[:, cols])
    lhs = np.zeros((len(vs), len(cat.entries)), dtype=np.int64)
    np.add.at(lhs, ks, (table[:, js] * rows[ks, cols[js]]).T)
    want = np.equal.outer(vs, np.arange(len(cat.entries))).astype(np.int64)
    bad = np.argwhere(lhs != want)
    if len(bad):
        k, u = bad[0]
        raise VerificationError(
            f"defect identity fails at U=M({format_walk(cat.entries[u].word)}): {lhs[k, u]} != {want[k, u]}"
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
