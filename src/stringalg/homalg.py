"""Hom spaces, first extension groups, and explicit extension middle terms.

Hom(M, N) is the solution space of the commutation system
X^M_a f_t = f_s X^N_a over all arrows a.  hom_basis assembles it sparsely;
between string-like modules every equation has at most two terms, so
elimination never fills in and large band modules stay cheap.  Between
members of a catalog no system is solved: the catalog's Hom table holds a
basis of graph maps written from the words (artheory.Catalog), and
hom_basis serves every other pair of modules.

Ext^1(M, N) is realized on a projective cover P0 of M with syzygy S: the
cokernel of restriction Hom(P0, N) -> Hom(S, N).  projective_cover
builds and verifies the cover of any module by elimination.  The one
gate, cover.ext_dim(N, hom), counts dim Ext^1 by the long exact Hom
sequence from one solve of the kernel of Hom(S, N) and builds no basis.
cover.ext(N, hom) builds one with ext1, which stacks Hom(P0, N)
restricted to S over that kernel and builds and verifies only the
cocycles its basis takes from it; the basis must have the gate's
dimension, and at 0 ext1 never runs.  Each cocycle gives an explicit
short exact sequence whose middle is written on N_v + M_v at every
vertex, with the cocycle in the off-diagonal block of each arrow.  The
census of verify-main-theorem solves no cover where the gate of a
member's word cover (artheory.WordCover) finds dimension 1: there the
middle is read off the words and certified by table maps (wordext).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import StringAlgError, VerificationError
from .linalg import Matrix, sparse_kernel, vstack
from .reps import (
    Representation,
    direct_sum,
    make_representation,
    projective_with_basis,
    subrepresentation,
)


@dataclass
class Intertwiner:
    """A module map: one matrix per vertex, commuting with all arrow actions."""

    source: Representation
    target: Representation
    mats: dict[str, Matrix]

    def verify(self) -> None:
        p = self.source.pres
        for v in p.quiver.vertices:
            want = (self.source.dim(v), self.target.dim(v))
            if self.mats[v].shape != want:
                raise VerificationError(f"map at vertex {v} has shape {self.mats[v].shape}")
        for a in p.quiver.arrows:
            lhs = self.source.mats[a.name] @ self.mats[a.target]
            rhs = self.mats[a.source] @ self.target.mats[a.name]
            if lhs != rhs:
                raise VerificationError(f"map does not commute with arrow {a.name}")

    def compose(self, other: "Intertwiner") -> "Intertwiner":
        if self.target is not other.source:
            raise StringAlgError("intertwiners do not compose")
        mats = {v: self.mats[v] @ other.mats[v] for v in self.mats}
        return Intertwiner(self.source, other.target, mats)

    def add(self, other: "Intertwiner") -> "Intertwiner":
        return Intertwiner(
            self.source, self.target, {v: self.mats[v] + other.mats[v] for v in self.mats}
        )

    def scale(self, c: int) -> "Intertwiner":
        return Intertwiner(self.source, self.target, {v: m.scale(c) for v, m in self.mats.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def flatten(self) -> np.ndarray:
        p = self.source.pres
        parts = [self.mats[v].a.reshape(-1) for v in p.quiver.vertices]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def zero_map(M: Representation, N: Representation) -> Intertwiner:
    return Intertwiner(
        M, N, {v: Matrix.zeros(M.dim(v), N.dim(v), M.q) for v in M.pres.quiver.vertices}
    )


# ---------------------------------------------------------------------------
# Hom
# ---------------------------------------------------------------------------


def _hom_system(
    M: Representation, N: Representation
) -> tuple[int, list[dict[int, int]], dict[str, int]]:
    """The commutation system of Hom(M, N): the number of unknowns, one
    sparse row per nonzero equation, and the offset of each vertex's block
    of unknowns, the entries of f_v row by row."""
    if M.pres is not N.pres:
        raise StringAlgError("modules live over different presentations")
    p = M.pres
    q = M.q
    dm = {v: M.dim(v) for v in p.quiver.vertices}
    dn = {v: N.dim(v) for v in p.quiver.vertices}
    off: dict[str, int] = {}
    total = 0
    for v in p.quiver.vertices:
        off[v] = total
        total += dm[v] * dn[v]

    # the unknown of entry (i, j) of f_v is off[v] + i * dn[v] + j
    rows: list[dict[int, int]] = []
    for a in p.quiver.arrows:
        s, t = a.source, a.target
        XM = M.mats[a.name].a
        XN = N.mats[a.name].a
        ws, wt = dn[s], dn[t]
        # X^M_a f_t: entry (i, j) takes XM[i, k] times unknown (t, k, j)
        xm_terms = [
            [(off[t] + k * wt, int(XM[i, k])) for k in np.nonzero(XM[i])[0].tolist()]
            for i in range(dm[s])
        ]
        # f_s X^N_a: entry (i, j) takes XN[l, j] times unknown (s, i, l)
        xn_terms = [
            [(l, int(XN[l, j])) for l in np.nonzero(XN[:, j])[0].tolist()] for j in range(wt)
        ]
        for i, xm_i in enumerate(xm_terms):
            base_s = off[s] + i * ws
            for j, xn_j in enumerate(xn_terms):
                row: dict[int, int] = {}
                for base, x in xm_i:
                    key = base + j
                    row[key] = (row.get(key, 0) + x) % q
                for l, x in xn_j:
                    key = base_s + l
                    row[key] = (row.get(key, 0) - x) % q
                if any(row.values()):
                    rows.append(row)
    return total, rows, off


def _hom_kernel(
    M: Representation, N: Representation
) -> tuple[dict[str, int], list[dict[int, int]]]:
    """One solve of the commutation system of Hom(M, N): the offset of each
    vertex's block of unknowns and a kernel basis, one sparse vector per
    map, indexed like Intertwiner.flatten.  No map is built or verified."""
    total, rows, off = _hom_system(M, N)
    return off, sparse_kernel(total, rows, M.q)


def _intertwiner(
    M: Representation, N: Representation, off: dict[str, int], vec: dict[int, int]
) -> Intertwiner:
    """The kernel vector vec of _hom_kernel(M, N) as a map, verified."""
    flat = np.zeros(sum(M.dim(v) * N.dim(v) for v in off), dtype=np.int64)
    flat[list(vec)] = list(vec.values())
    mats = {
        v: Matrix(flat[base : base + M.dim(v) * N.dim(v)].reshape(M.dim(v), N.dim(v)), M.q)
        for v, base in off.items()
    }
    f = Intertwiner(M, N, mats)
    f.verify()
    return f


def hom_basis(M: Representation, N: Representation) -> list[Intertwiner]:
    """Basis of the intertwiner space, deterministic and verified."""
    off, kernel = _hom_kernel(M, N)
    return [_intertwiner(M, N, off, vec) for vec in kernel]


def hom_dim(M: Representation, N: Representation) -> int:
    return len(hom_basis(M, N))


# ---------------------------------------------------------------------------
# projective cover and syzygy
# ---------------------------------------------------------------------------


@dataclass
class CoverData:
    """A projective cover 0 -> syzygy -> P0 -> module -> 0, built and
    verified by projective_cover."""

    module: Representation
    cover: Representation  # P0
    epi: Intertwiner  # P0 -> M
    syzygy: Representation
    incl: Intertwiner  # syzygy -> P0
    top: dict[str, int]  # top_v: the number of copies of P(v) in P0
    _counts: dict = field(default_factory=dict, repr=False, compare=False)
    _exts: dict = field(default_factory=dict, repr=False, compare=False)
    _slips: dict | None = field(default=None, repr=False, compare=False)

    def ext_dim(self, N: Representation, hom: int) -> int:
        """The one gate: dim Ext^1(module, N), given hom = dim Hom(module, N),
        with no Ext basis.

        The long exact Hom sequence of 0 -> syzygy -> P0 -> module -> 0
        gives dim Ext^1 = hom(syzygy, N) - sum_v top_v dim N_v + hom (Yoneda
        for P0), with hom(syzygy, N) the length of one kernel solve, which
        ext reuses.  The count is kept per N; a negative value is a
        construction bug."""
        if N not in self._counts:
            kernel = _hom_kernel(self.syzygy, N)
            expected = len(kernel[1]) - sum(t * N.dim(v) for v, t in self.top.items()) + hom
            if expected < 0:
                raise VerificationError(
                    f"long exact Hom sequence gives dim Ext^1({self.module.label}, "
                    f"{N.label}) = {expected}"
                )
            self._counts[N] = (expected, kernel)
        return self._counts[N][0]

    def ext(self, N: Representation, hom: int) -> "Ext1Context":
        """Ext^1(module, N) on this cover with a verified basis, given
        hom = dim Hom(module, N), computed once per N and kept, so that a
        scan row and the exact counts of its middles share it.

        The basis must have the gate's dimension, ext_dim(N, hom), or a
        construction bug is raised: at 0 ext1 never runs, and otherwise it
        reuses the gate's kernel.  Only the first request for N is
        checked."""
        if N not in self._exts:
            expected = self.ext_dim(N, hom)
            ctx = Ext1Context(self, N, [], None) if expected == 0 else ext1(self, N, self._counts[N][1])
            if ctx.dim != expected:
                raise VerificationError(
                    f"Ext^1({self.module.label}, {N.label}) has a basis of {ctx.dim} "
                    f"but the long exact Hom sequence gives {expected}"
                )
            self._exts[N] = ctx
        return self._exts[N]

    def slips(self) -> dict[str, Matrix]:
        """Per arrow a: u -> t, the syzygy coordinates slip_a of
        s_u P0_a - M_a s_t, where s is a section of epi.  Its rows lie in
        ker epi_t, which is the syzygy.  Computed on first use and kept."""
        if self._slips is None:
            M, P0 = self.module, self.cover
            p = M.pres
            section = {}
            for v in p.quiver.vertices:
                s = self.epi.mats[v].solve_left(Matrix.identity(M.dim(v), M.q))
                if s is None:
                    raise VerificationError(f"projective cover has no section at vertex {v}")
                section[v] = s
            slips = {}
            for a in p.quiver.arrows:
                diff = section[a.source] @ P0.mats[a.name] - M.mats[a.name] @ section[a.target]
                slip = self.incl.mats[a.target].solve_left(diff)
                if slip is None:
                    raise VerificationError(f"section slips out of the syzygy along arrow {a.name}")
                slips[a.name] = slip
            self._slips = slips
        return self._slips


def _radical_rows(M: Representation, v: str) -> Matrix:
    mats = [M.mats[a.name] for a in M.pres.quiver.arrows_into(v)]
    mats = [m for m in mats if m.rows]
    if not mats:
        return Matrix.zeros(0, M.dim(v), M.q)
    return vstack(mats)


def projective_cover(M: Representation) -> CoverData:
    """Minimal projective cover with its syzygy, all maps verified."""
    if M.total_dim == 0:
        raise StringAlgError("zero module has no projective cover summands")
    p = M.pres
    q = M.q
    # lift a basis of the top at each vertex
    lifts: list[tuple[str, Matrix]] = []
    top = {}
    for v in p.quiver.vertices:
        rad = _radical_rows(M, v)
        pivots = rad.pivots()
        free = [j for j in range(M.dim(v)) if j not in pivots]
        top[v] = len(free)
        for j in free:
            row = np.zeros((1, M.dim(v)), dtype=np.int64)
            row[0, j] = 1
            lifts.append((v, Matrix(row, q)))
    summands = []
    bases = []
    for v, _ in lifts:
        rep, index, gen = projective_with_basis(p, v)
        summands.append(rep)
        bases.append(index)
    P0 = direct_sum(summands, label="P0") if summands else None
    if P0 is None:
        raise StringAlgError("module has empty top")
    # epi on each summand: generator path e_v goes to the lift, paths act
    eps = {v: np.zeros((P0.dim(v), M.dim(v)), dtype=np.int64) for v in p.quiver.vertices}
    offsets = {v: 0 for v in p.quiver.vertices}
    for (v, lift_row), rep, index in zip(lifts, summands, bases):
        for path, (endv, local_idx) in index.items():
            img = lift_row @ M.path_action(path, v)
            eps[endv][offsets[endv] + local_idx] = img.a[0]
        for u in p.quiver.vertices:
            offsets[u] += rep.dim(u)
    epi = Intertwiner(P0, M, {v: Matrix(eps[v], q) for v in p.quiver.vertices})
    epi.verify()
    for v in p.quiver.vertices:
        if epi.mats[v].rank() != M.dim(v):
            raise VerificationError(f"projective cover is not surjective at vertex {v}")
    kernel_rows = {v: epi.mats[v].left_kernel() for v in p.quiver.vertices}
    syz, incl_mats = subrepresentation(P0, kernel_rows, label=f"syzygy({M.label})")
    incl = Intertwiner(syz, P0, incl_mats)
    incl.verify()
    return CoverData(M, P0, epi, syz, incl, top)


# ---------------------------------------------------------------------------
# Ext^1
# ---------------------------------------------------------------------------


@dataclass
class Ext1Context:
    cover: CoverData  # projective cover of the left module M = cover.module
    N: Representation
    basis: list[Intertwiner]  # cocycles syzygy -> N representing an Ext basis
    # the coboundaries: restrictions of Hom(P0, N) to the syzygy, flattened
    # as rows like Intertwiner.flatten; None when the gate found Ext^1 = 0
    coboundaries: np.ndarray | None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def classes(self, cocycles: np.ndarray) -> np.ndarray:
        """Coordinates in self.basis of the Ext classes of cocycles given as
        flattened rows.  The basis is independent modulo the coboundaries,
        so these coordinates do not depend on the solution chosen."""
        q = self.N.q
        basis = np.array([b.flatten() for b in self.basis], dtype=np.int64)
        span = Matrix(np.vstack([self.coboundaries, basis]), q)
        sol = span.solve_left(Matrix(cocycles, q))
        if sol is None:
            raise VerificationError("a composite cocycle is not a map from the syzygy")
        return sol.a[:, len(self.coboundaries):]

    def cocycle(self, coeffs) -> Intertwiner:
        out = zero_map(self.cover.syzygy, self.N)
        for c, b in zip(coeffs, self.basis):
            if int(c) % self.N.q:
                out = out.add(b.scale(int(c)))
        return out

    def extension(self, coeffs) -> "ShortExactSequence":
        return extension_of_cocycle(self.cover, self.N, self.cocycle(coeffs))


def ext1(
    cover: CoverData,
    N: Representation,
    kernel: tuple[dict[str, int], list[dict[int, int]]] | None = None,
) -> Ext1Context:
    """Ext^1(cover.module, N) on the given projective cover.

    The maps Hom(P0, N) restricted to the syzygy come first and the kernel
    vectors of Hom(S, N) after them, as the columns of one matrix; a
    cocycle joins the basis exactly when its column is a pivot, that is,
    when it is not in the span of the restricted maps and the cocycles
    already chosen.  Only those are built and verified: the columns before
    a kernel vector that is not a map span only maps, so the first such
    vector is a pivot and fails its check.  The kernel is solved here
    unless the caller passes _hom_kernel(cover.syzygy, N), and Hom(P0, N)
    is solved.
    """
    if cover.module.pres is not N.pres:
        raise StringAlgError("modules live over different presentations")
    off, kernel = kernel or _hom_kernel(cover.syzygy, N)
    from_p0 = hom_basis(cover.cover, N)
    k = len(from_p0)
    width = sum(cover.syzygy.dim(v) * N.dim(v) for v in N.pres.quiver.vertices)
    stacked = np.zeros((k + len(kernel), width), dtype=np.int64)
    for row, h in zip(stacked, from_p0):
        row[:] = cover.incl.compose(h).flatten()
    for row, vec in zip(stacked[k:], kernel):
        row[list(vec)] = list(vec.values())
    pivots = Matrix(stacked.T, N.q).pivots()
    basis = [_intertwiner(cover.syzygy, N, off, kernel[j - k]) for j in pivots if j >= k]
    return Ext1Context(cover, N, basis, stacked[:k])


def composites(first: list[Intertwiner], second: list[Intertwiner]) -> np.ndarray:
    """The maps f then g for f in first and g in second, all from one source
    X through one module to one target Y, flattened like
    Intertwiner.flatten: entry [i, j] is first[i].compose(second[j]).

    One product per vertex: first's matrices stacked over second's side by
    side hold every composite as a block."""
    X, Y = first[0].source, second[0].target
    q = X.q
    parts = []
    for v in X.pres.quiver.vertices:
        x, y = X.dim(v), Y.dim(v)
        left = Matrix(np.vstack([f.mats[v].a for f in first]), q)
        right = Matrix(np.hstack([g.mats[v].a for g in second]), q)
        blocks = (left @ right).a.reshape(len(first), x, len(second), y)
        parts.append(blocks.transpose(0, 2, 1, 3).reshape(len(first), len(second), x * y))
    return np.concatenate(parts, axis=2)


def ext1_dim(M: Representation, N: Representation) -> int:
    """dim Ext^1(M, N) through the gate, so the basis is checked against
    the long exact Hom sequence."""
    return projective_cover(M).ext(N, hom_dim(M, N)).dim


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------


@dataclass
class ShortExactSequence:
    left: Representation
    middle: Representation
    right: Representation
    incl: Intertwiner  # left -> middle
    proj: Intertwiner  # middle -> right

    def verify(self) -> None:
        """Exactness, vertexwise: mono, epi, composite zero, dimensions add."""
        self.incl.verify()
        self.proj.verify()
        p = self.left.pres
        for v in p.quiver.vertices:
            if self.incl.mats[v].rank() != self.left.dim(v):
                raise VerificationError(f"inclusion not injective at vertex {v}")
            if self.proj.mats[v].rank() != self.right.dim(v):
                raise VerificationError(f"projection not surjective at vertex {v}")
            comp = self.incl.mats[v] @ self.proj.mats[v]
            if not comp.is_zero():
                raise VerificationError(f"composite not zero at vertex {v}")
            if self.left.dim(v) + self.right.dim(v) != self.middle.dim(v):
                raise VerificationError(f"dimensions do not add at vertex {v}")


def extension_of_cocycle(
    cover: CoverData, N: Representation, c: Intertwiner
) -> ShortExactSequence:
    """The extension of M = cover.module by N that the cocycle c:
    syzygy -> N classifies, written on E_v = N_v + M_v.

    This is the pushout of the syzygy inclusion along c in the coordinates
    (n, m) -> [n, s(m)], s a section of the cover's epi: arrow a: u -> t
    acts as [[N_a, 0], [slip_a c_t, M_a]] (CoverData.slips), N goes in as
    [I 0] and E goes onto M as [0; I].  The relation check of the middle
    and ShortExactSequence.verify certify the result.
    """
    M = cover.module
    p = M.pres
    q = M.q
    if c.target is not N:
        raise StringAlgError("cocycle must land in N")
    if c.source is not cover.syzygy:
        raise StringAlgError("cocycle must start at the cover's syzygy")
    c.verify()
    slips = cover.slips()
    dims = {v: N.dim(v) + M.dim(v) for v in p.quiver.vertices}
    mats = {}
    for a in p.quiver.arrows:
        u, t = a.source, a.target
        block = np.zeros((dims[u], dims[t]), dtype=np.int64)
        block[: N.dim(u), : N.dim(t)] = N.mats[a.name].a
        block[N.dim(u) :, : N.dim(t)] = (slips[a.name] @ c.mats[t]).a
        block[N.dim(u) :, N.dim(t) :] = M.mats[a.name].a
        mats[a.name] = Matrix(block, q)
    E = make_representation(p, dims, mats, label="E")
    eye = {v: np.eye(dims[v], dtype=np.int64) for v in p.quiver.vertices}
    ses = ShortExactSequence(
        left=N,
        middle=E,
        right=M,
        incl=Intertwiner(N, E, {v: Matrix(eye[v][: N.dim(v)], q) for v in eye}),
        proj=Intertwiner(E, M, {v: Matrix(eye[v][:, N.dim(v) :], q) for v in eye}),
    )
    ses.verify()
    return ses


# ---------------------------------------------------------------------------
# census over the projective space of Ext^1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusLine:
    coeffs: tuple[int, ...]
    summands: int
    dimvec: tuple[int, ...]


@dataclass
class CensusReport:
    ext_dim: int
    lines: list[CensusLine]
    histogram: dict[int, int]


def projective_line_representatives(q: int, k: int):
    """One vector per 1-dimensional subspace of F_q^k: first nonzero entry 1."""
    for lead in range(k):
        for rest in itertools.product(range(q), repeat=k - lead - 1):
            yield (0,) * lead + (1,) + rest


def middle_census(
    cover: CoverData,
    N: Representation,
    hom: int,
    max_lines: int = 10_000,
    seed: int = 0,
) -> CensusReport:
    """Summand counts of extension middles over every line of P(Ext^1(M, N)),
    where M = cover.module and hom = dim Hom(M, N), on the Ext basis of
    cover.ext(N, hom), verified and checked against the gate.

    Over a finite-type string presentation the counts are exact and no
    middle is built (Catalog.middle_counter).  Otherwise each middle is
    built by extension_of_cocycle and decomposed, and its count is a
    Monte Carlo lower bound.  The census of verify-main-theorem calls this
    off the catalog path and, on it, for pairs with dim Ext^1 >= 2, on the
    solved cover of the left member; a 1-dimensional Ext^1 between members
    has its one middle read off the words instead (verify.middle_term_scan).
    """
    from .artheory import finite_type_catalog
    from .decomp import decompose

    ctx = cover.ext(N, hom)
    k = ctx.dim
    q = N.q
    if k == 0:
        return CensusReport(0, [], {})
    nlines = (q**k - 1) // (q - 1)
    if nlines > max_lines:
        raise StringAlgError(
            f"census over {nlines} lines exceeds the cap of {max_lines} "
            f"(Ext^1({cover.module.label}, {N.label}) over F_{q})"
        )
    catalog = finite_type_catalog(N.pres)
    if catalog is not None:
        count = catalog.middle_counter(ctx)
    else:
        def count(coeffs):
            return decompose(ctx.extension(coeffs).middle, seed=seed).summand_count
    dv = tuple(cover.module.dim(v) + N.dim(v) for v in N.pres.quiver.vertices)
    lines = []
    histogram: dict[int, int] = {}
    for coeffs in projective_line_representatives(q, k):
        summands = count(coeffs)
        lines.append(CensusLine(coeffs, summands, dv))
        histogram[summands] = histogram.get(summands, 0) + 1
    return CensusReport(k, lines, dict(sorted(histogram.items())))
