"""Representations of the presented algebra.

A representation assigns to each vertex a coordinate space of row vectors
and to each arrow a matrix of shape (dim at source) x (dim at target);
the right action of a path is the product of its arrow matrices read left
to right.  Every constructor checks that all relation paths act as zero.

Module literal format (line oriented, '#' comments):

    module
    dim: 0=2 1=1
    map: a 1 0        # rows separated by ';', entries are integers mod q
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, StringAlgError, VerificationError
from .linalg import Matrix
from .presentation import Presentation, parse_decimal
from .words import (
    Letter,
    Walk,
    format_walk,
    is_primitive,
    letter_source,
    surviving_paths,
    trivial_walk,
    walk_vertices,
    word,
)


@dataclass(frozen=True, eq=False)
class Representation:
    """Identity semantics: isomorphism testing is a mathematical question,
    so == is deliberately not structural."""

    pres: Presentation
    dims: dict[str, int]
    mats: dict[str, Matrix]
    label: str = ""

    def __post_init__(self):
        q = self.pres.field_order
        for v in self.pres.quiver.vertices:
            if self.dims.get(v, 0) < 0:
                raise StringAlgError(f"negative dimension at vertex {v}")
        for a in self.pres.quiver.arrows:
            m = self.mats[a.name]
            want = (self.dims.get(a.source, 0), self.dims.get(a.target, 0))
            if m.shape != want:
                raise StringAlgError(
                    f"matrix for arrow {a.name} has shape {m.shape}, expected {want}"
                )
            if m.q != q:
                raise StringAlgError(f"matrix for arrow {a.name} is over F_{m.q}, not F_{q}")

    @property
    def q(self) -> int:
        return self.pres.field_order

    def dim(self, v: str) -> int:
        return self.dims.get(v, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dimension_vector(self) -> dict[str, int]:
        return {v: self.dims.get(v, 0) for v in self.pres.quiver.vertices}

    def mat(self, arrow_name: str) -> Matrix:
        return self.mats[arrow_name]

    def path_action(self, path: tuple[str, ...], start_vertex: str) -> Matrix:
        """Product of arrow matrices along the path, from the given vertex."""
        out = Matrix.identity(self.dim(start_vertex), self.q)
        for name in path:
            out = out @ self.mats[name]
        return out

    def check_relations(self) -> None:
        for rel in self.pres.relations:
            src = self.pres.arrow(rel[0]).source
            if not self.path_action(rel, src).is_zero():
                raise StringAlgError(
                    f"relation {' '.join(rel)} does not annihilate {self.label or 'module'}"
                )

    def __repr__(self):
        dv = " ".join(f"{v}={self.dim(v)}" for v in self.pres.quiver.vertices)
        return f"Representation({self.label or '?'}: {dv})"


def make_representation(
    p: Presentation,
    dims: dict[str, int],
    mats: dict[str, Matrix],
    label: str = "",
) -> Representation:
    """Build and validate a representation (shapes and relation annihilation)."""
    full_dims = {v: dims.get(v, 0) for v in p.quiver.vertices}
    full_mats = {}
    for a in p.quiver.arrows:
        if a.name in mats:
            full_mats[a.name] = mats[a.name]
        else:
            full_mats[a.name] = Matrix.zeros(full_dims[a.source], full_dims[a.target], p.q)
    rep = Representation(p, full_dims, full_mats, label)
    rep.check_relations()
    return rep


def zero_representation(p: Presentation) -> Representation:
    return make_representation(p, {}, {}, label="0")


# ---------------------------------------------------------------------------
# string and band modules
# ---------------------------------------------------------------------------


def _nodes_to_indices(p: Presentation, vertices_seq: list[str]):
    """Per-vertex dimension and node -> (vertex, coordinate) placement."""
    dims: dict[str, int] = {v: 0 for v in p.quiver.vertices}
    place = []
    for v in vertices_seq:
        place.append((v, dims[v]))
        dims[v] += 1
    return dims, place


def string_module(p: Presentation, w: Walk) -> Representation:
    """The module with one basis element per vertex visit of the word.

    A direct letter sends its left node to its right node, an inverse
    letter the reverse; all other actions are zero.
    """
    return string_module_with_nodes(p, w)[0]


def string_module_with_nodes(p: Presentation, w: Walk):
    """String module plus the node placement list [(vertex, coordinate)]."""
    verts = walk_vertices(p, w)
    dims, place = _nodes_to_indices(p, verts)
    entries: dict[str, list[tuple[int, int]]] = {a.name: [] for a in p.quiver.arrows}
    for i, l in enumerate(w.letters):
        left = place[i]
        right = place[i + 1]
        if l.is_direct:
            entries[l.arrow].append((left[1], right[1]))
        else:
            entries[l.arrow].append((right[1], left[1]))
    mats = {}
    for a in p.quiver.arrows:
        m = np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
        for r, c in entries[a.name]:
            if m[r, c]:
                raise StringAlgError("conflicting letter actions; walk is not a word")
            m[r, c] = 1
        mats[a.name] = Matrix(m, p.q)
    rep = make_representation(p, dims, mats, label=f"M({format_walk(w)})")
    return rep, place


def simple(p: Presentation, v: str) -> Representation:
    if v not in p.quiver.vertices:
        raise StringAlgError(f"unknown vertex {v!r}")
    return string_module(p, word(p, trivial_walk(v)))


def cyclic_recipe_module(
    p: Presentation,
    letters: tuple[Letter, ...],
    lam: int,
    n: int,
    label: str = "",
) -> Representation:
    """Band-style module on the node cycle of a closed word.

    Each of the len(letters) positions carries an n-dimensional block; every
    letter acts as the identity between neighbouring blocks except the last
    letter, which carries the n x n Jordan block with eigenvalue lam.
    """
    q = p.q
    lam %= q
    if lam == 0:
        raise StringAlgError("band parameter lambda must be nonzero")
    if n < 1:
        raise StringAlgError("band multiplicity must be at least 1")
    L = len(letters)
    verts = [letter_source(p, l) for l in letters]
    dims_nodes, place = _nodes_to_indices(p, verts)
    dims = {v: c * n for v, c in dims_nodes.items()}
    jordan = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        jordan[i, i] = lam
        if i + 1 < n:
            jordan[i, i + 1] = 1
    ident = np.eye(n, dtype=np.int64)
    blocks: dict[str, np.ndarray] = {
        a.name: np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
        for a in p.quiver.arrows
    }
    for i, l in enumerate(letters):
        jnext = (i + 1) % L
        src_place = place[i]
        dst_place = place[jnext]
        block = jordan if i == L - 1 else ident
        if l.is_direct:
            fr, to = src_place, dst_place
        else:
            fr, to = dst_place, src_place
        m = blocks[l.arrow]
        m[fr[1] * n : (fr[1] + 1) * n, to[1] * n : (to[1] + 1) * n] += block
    mats = {name: Matrix(m, q) for name, m in blocks.items()}
    return make_representation(p, dims, mats, label=label)


def band_module(p: Presentation, w: Walk, lam: int, n: int) -> Representation:
    """Band module for a primitive cyclic word; refuses any other walk."""
    if not is_primitive(p, w)[0]:
        raise StringAlgError(
            f"band modules need a primitive cyclic word; {format_walk(w)} is a proper power"
        )
    label = f"B({format_walk(w)},{lam % p.q},{n})"
    return cyclic_recipe_module(p, w.letters, lam, n, label=label)


# ---------------------------------------------------------------------------
# projectives and sums
# ---------------------------------------------------------------------------


def projective_with_basis(p: Presentation, v: str):
    """The projective at v, its path basis, and the generator position.

    Basis elements are the relation-free paths from v; the right action
    extends paths by one arrow when the extension survives.
    """
    paths = surviving_paths(p, v)
    dims: dict[str, int] = {u: 0 for u in p.quiver.vertices}
    index: dict[tuple[str, ...], tuple[str, int]] = {}
    for endv, path in paths:
        index[path] = (endv, dims[endv])
        dims[endv] += 1
    mats = {
        a.name: np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
        for a in p.quiver.arrows
    }
    for endv, path in paths:
        for a in p.quiver.arrows_from(endv):
            ext = path + (a.name,)
            if ext in index:
                _, col = index[ext]
                _, row = index[path]
                mats[a.name][row, col] = 1
    rep = make_representation(
        p, dims, {k: Matrix(m, p.q) for k, m in mats.items()}, label=f"P({v})"
    )
    return rep, index, index[()][1]


def projective(p: Presentation, v: str) -> Representation:
    return projective_with_basis(p, v)[0]


def graph_map(p: Presentation, src_rep, src_nodes, dst_rep, dst_nodes, node_offset: int) -> dict:
    """Map sending node i of the source word to node i + node_offset of the
    destination word when in range, else to zero; per-vertex matrices."""
    q = p.field_order
    mats = {
        v: np.zeros((src_rep.dim(v), dst_rep.dim(v)), dtype=np.int64)
        for v in p.quiver.vertices
    }
    for i, (sv, sc) in enumerate(src_nodes):
        j = i + node_offset
        if 0 <= j < len(dst_nodes):
            dv, dc = dst_nodes[j]
            if dv != sv:
                raise VerificationError("graph map misaligned: vertex mismatch")
            mats[sv][sc, dc] = 1
    return {v: Matrix(m, q) for v, m in mats.items()}


def direct_sum(reps: list[Representation], label: str = "") -> Representation:
    if not reps:
        raise StringAlgError("direct sum needs at least one summand")
    p = reps[0].pres
    for r in reps:
        if r.pres is not p:
            raise StringAlgError("summands live over different presentations")
    dims = {v: sum(r.dim(v) for r in reps) for v in p.quiver.vertices}
    mats = {}
    for a in p.quiver.arrows:
        m = np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
        r0 = c0 = 0
        for r in reps:
            mr, mc = r.dim(a.source), r.dim(a.target)
            m[r0 : r0 + mr, c0 : c0 + mc] = r.mats[a.name].a
            r0 += mr
            c0 += mc
        mats[a.name] = Matrix(m, p.q)
    if not label:
        label = " + ".join(r.label or "?" for r in reps)
    return make_representation(p, dims, mats, label=label)


# ---------------------------------------------------------------------------
# subrepresentations
# ---------------------------------------------------------------------------


def subrepresentation(
    rep: Representation, rows: dict[str, Matrix], label: str = ""
) -> tuple[Representation, dict[str, Matrix]]:
    """Representation on an invariant subspace given by basis rows per vertex.

    Returns the restricted representation and the inclusion matrices
    (sub coordinates -> ambient coordinates).  Raises when the rows are not
    invariant under the arrow actions.
    """
    p = rep.pres
    q = rep.q
    incl = {}
    dims = {}
    for v in p.quiver.vertices:
        b = rows.get(v, Matrix.zeros(0, rep.dim(v), q))
        if b.cols != rep.dim(v):
            raise StringAlgError(f"basis rows at vertex {v} have wrong width")
        incl[v] = b
        dims[v] = b.rows
    mats = {}
    for a in p.quiver.arrows:
        image = incl[a.source] @ rep.mats[a.name]
        coeff = incl[a.target].solve_left(image)
        if coeff is None:
            raise StringAlgError(f"subspace not invariant under arrow {a.name}")
        mats[a.name] = coeff
    sub = make_representation(p, dims, mats, label=label)
    return sub, incl


# ---------------------------------------------------------------------------
# module literals
# ---------------------------------------------------------------------------


def parse_module_literal(p: Presentation, text: str) -> Representation:
    dims: dict[str, int] = {}
    mats: dict[str, Matrix] = {}
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != "module":
                raise ParseError("module literal must start with 'module'", lineno)
            saw_header = True
            continue
        keyword, _, rest = line.partition(":")
        keyword = keyword.strip()
        if keyword == "dim":
            for tok in rest.split():
                v, _, count = tok.partition("=")
                if v not in p.quiver.vertices:
                    raise ParseError(f"unknown vertex {v!r}", lineno)
                if v in dims:
                    raise ParseError(f"repeated dimension for vertex {v!r}", lineno)
                dims[v] = parse_decimal(count, lineno, f"bad dimension {tok!r}")
        elif keyword == "map":
            parts = rest.split(None, 1)
            if not parts:
                raise ParseError("map line needs an arrow name", lineno)
            name = parts[0]
            try:
                arrow = p.arrow(name)
            except StringAlgError:
                raise ParseError(f"unknown arrow {name!r}", lineno) from None
            if name in mats:
                raise ParseError(f"repeated map for arrow {name!r}", lineno)
            body = parts[1] if len(parts) > 1 else ""
            rows = []
            for chunk in body.split(";"):
                chunk = chunk.strip()
                if chunk:
                    rows.append([
                        parse_decimal(t, lineno, f"bad entry {t!r} for {name}", signed=True) % p.q
                        for t in chunk.split()
                    ])
            r, c = dims.get(arrow.source, 0), dims.get(arrow.target, 0)
            if not rows:
                m = Matrix.zeros(r, c, p.q)
            else:
                if len(rows) != r or any(len(row) != c for row in rows):
                    raise ParseError(
                        f"matrix for {name} must be {r}x{c}", lineno
                    )
                m = Matrix(rows, p.q)
            mats[name] = m
        else:
            raise ParseError(f"unknown keyword {keyword!r} in module literal", lineno)
    if not saw_header:
        raise ParseError("empty module literal")
    return make_representation(p, dims, mats, label="literal")


def serialize_module_literal(rep: Representation) -> str:
    p = rep.pres
    lines = ["module"]
    lines.append("dim: " + " ".join(f"{v}={rep.dim(v)}" for v in p.quiver.vertices))
    for a in p.quiver.arrows:
        m = rep.mats[a.name]
        body = " ; ".join(" ".join(str(int(x)) for x in row) for row in m.a)
        lines.append(f"map: {a.name} {body}".rstrip())
    return "\n".join(lines) + "\n"


def load_module_literal(p: Presentation, path) -> Representation:
    with open(path, encoding="utf-8") as fh:
        return parse_module_literal(p, fh.read())
