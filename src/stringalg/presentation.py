"""Quiver presentations with monomial relations.

A presentation is a finite quiver, a set of relation paths of length at
least two, and a prime field order.  The file grammar is line oriented:

    # comment
    vertices: 1 2 3
    arrow: a 1 2
    relation: a b
    field: 32003

Serialization reproduces the grammar bit-exactly in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ParseError, StringAlgError
from .linalg import _ACC_LIMIT, is_prime

DEFAULT_FIELD_ORDER = 32003

_ID_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")


def _valid_id(s: str) -> bool:
    return bool(s) and set(s) <= _ID_CHARS


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    _arrow_index: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise StringAlgError("duplicate vertex identifiers")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise StringAlgError("duplicate arrow identifiers")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise StringAlgError(f"arrow {a.name} has undeclared endpoint")
        object.__setattr__(self, "_arrow_index", {name: i for i, name in enumerate(names)})

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self.arrow_index(name)]

    def arrows_from(self, v: str) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def arrows_into(self, v: str) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]

    def arrow_index(self, name: str) -> int:
        try:
            return self._arrow_index[name]
        except KeyError:
            raise StringAlgError(f"unknown arrow {name!r}") from None


@dataclass(frozen=True)
class Presentation:
    quiver: Quiver
    relations: tuple[tuple[str, ...], ...]  # arrow-name sequences, length >= 2
    field_order: int = DEFAULT_FIELD_ORDER
    # per-presentation caches, not copied by with_field: the catalog built by
    # artheory.catalog_for and the letter automaton built by words.automaton_for
    _catalog: object = field(default=None, init=False, repr=False, compare=False)
    _automaton: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.field_order):
            raise StringAlgError(f"field order {self.field_order} is not prime")
        if (self.field_order - 1) ** 2 >= _ACC_LIMIT:
            raise StringAlgError(
                f"field order {self.field_order} is too large for exact int64 "
                "arithmetic: (q-1)^2 must stay below 2^62"
            )
        amap = {a.name: a for a in self.quiver.arrows}
        for rel in self.relations:
            if len(rel) < 2:
                raise StringAlgError(f"relation {' '.join(rel)} shorter than two arrows")
            for i, name in enumerate(rel):
                if name not in amap:
                    raise StringAlgError(f"relation uses unknown arrow {name!r}")
                if i > 0 and amap[rel[i - 1]].target != amap[name].source:
                    raise StringAlgError(
                        f"relation {' '.join(rel)} is not a composable path: "
                        f"{rel[i - 1]} ends at {amap[rel[i - 1]].target}, "
                        f"{name} starts at {amap[name].source}"
                    )

    @property
    def q(self) -> int:
        return self.field_order

    def arrow(self, name: str) -> Arrow:
        return self.quiver.arrow(name)

    def max_relation_length(self) -> int:
        return max((len(r) for r in self.relations), default=0)

    def with_field(self, q: int) -> "Presentation":
        return replace(self, field_order=q)

    def path_is_relation_free(self, path: tuple[str, ...]) -> bool:
        """True when no relation occurs as a contiguous factor of the path."""
        for rel in self.relations:
            r = len(rel)
            for i in range(len(path) - r + 1):
                if path[i : i + r] == rel:
                    return False
        return True


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def parse_decimal(token: str, lineno: int, message: str, signed: bool = False) -> int:
    """The integer an ASCII decimal token spells, with a leading minus only
    when signed; any other token, such as '1.5', 'x' or '²', raises
    ParseError(message) at lineno."""
    digits = token[1:] if signed and token.startswith("-") else token
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(message, lineno)


def parse_presentation(text: str) -> Presentation:
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[tuple[str, ...]] = []
    field_order: int | None = None
    seen_vertices: set[str] = set()
    arrow_names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"expected '<keyword>: ...', got {raw!r}", lineno, 1)
        keyword, _, rest = line.partition(":")
        keyword = keyword.strip()
        tokens = rest.split()
        if keyword == "vertices":
            if not tokens:
                raise ParseError("empty vertex list", lineno)
            for tok in tokens:
                if not _valid_id(tok):
                    raise ParseError(f"bad vertex identifier {tok!r}", lineno)
                if tok in seen_vertices:
                    raise ParseError(f"duplicate vertex {tok!r}", lineno)
                seen_vertices.add(tok)
                vertices.append(tok)
        elif keyword == "arrow":
            if len(tokens) != 3:
                raise ParseError("arrow line needs '<id> <src> <tgt>'", lineno)
            name, src, tgt = tokens
            if not _valid_id(name):
                raise ParseError(f"bad arrow identifier {name!r}", lineno)
            if name in arrow_names:
                raise ParseError(f"duplicate arrow {name!r}", lineno)
            if src not in seen_vertices:
                raise ParseError(f"unknown vertex {src!r}", lineno)
            if tgt not in seen_vertices:
                raise ParseError(f"unknown vertex {tgt!r}", lineno)
            arrow_names.add(name)
            arrows.append(Arrow(name, src, tgt))
        elif keyword == "relation":
            if len(tokens) < 2:
                raise ParseError("relation needs at least two arrows", lineno)
            amap = {a.name: a for a in arrows}
            for tok in tokens:
                if tok not in amap:
                    raise ParseError(f"unknown arrow {tok!r} in relation", lineno)
            for left, right in zip(tokens, tokens[1:]):
                if amap[left].target != amap[right].source:
                    raise ParseError(
                        f"non-composable path: {left} ends at {amap[left].target}, "
                        f"{right} starts at {amap[right].source}",
                        lineno,
                    )
            relations.append(tuple(tokens))
        elif keyword == "field":
            if field_order is not None:
                raise ParseError("repeated field line", lineno)
            if len(tokens) != 1:
                raise ParseError("field line needs a single integer", lineno)
            value = parse_decimal(tokens[0], lineno, "field line needs a single integer")
            if not is_prime(value):
                raise ParseError(f"field order {value} is not prime", lineno)
            field_order = value
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, 1)

    return Presentation(
        quiver=Quiver(tuple(vertices), tuple(arrows)),
        relations=tuple(relations),
        field_order=DEFAULT_FIELD_ORDER if field_order is None else field_order,
    )


def serialize_presentation(p: Presentation) -> str:
    lines = []
    if p.quiver.vertices:
        lines.append("vertices: " + " ".join(p.quiver.vertices))
    for a in p.quiver.arrows:
        lines.append(f"arrow: {a.name} {a.source} {a.target}")
    for rel in p.relations:
        lines.append("relation: " + " ".join(rel))
    lines.append(f"field: {p.field_order}")
    return "\n".join(lines) + "\n"


def load_presentation(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


# ---------------------------------------------------------------------------
# string axioms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    s1: bool
    s2: bool
    s3: bool
    violations: tuple[str, ...]

    @property
    def is_string(self) -> bool:
        return self.s1 and self.s2 and self.s3


def validate_axioms(p: Presentation) -> AxiomReport:
    """Check the three string-presentation conditions.

    S1: every vertex has in-degree and out-degree at most two.
    S2: each arrow has at most one relation-free successor and at most one
        relation-free predecessor among length-two paths.
    S3: structural in this format, since relations are paths by construction.
    """
    violations: list[str] = []
    s1 = True
    for v in p.quiver.vertices:
        indeg = len(p.quiver.arrows_into(v))
        outdeg = len(p.quiver.arrows_from(v))
        if indeg > 2:
            s1 = False
            violations.append(f"S1: vertex {v} has in-degree {indeg}")
        if outdeg > 2:
            s1 = False
            violations.append(f"S1: vertex {v} has out-degree {outdeg}")
    s2 = True
    for a in p.quiver.arrows:
        succ = [
            b.name
            for b in p.quiver.arrows_from(a.target)
            if p.path_is_relation_free((a.name, b.name))
        ]
        if len(succ) > 1:
            s2 = False
            violations.append(
                f"S2: arrow {a.name} has successors {' '.join(succ)} all avoiding relations"
            )
        pred = [
            b.name
            for b in p.quiver.arrows_into(a.source)
            if p.path_is_relation_free((b.name, a.name))
        ]
        if len(pred) > 1:
            s2 = False
            violations.append(
                f"S2: arrow {a.name} has predecessors {' '.join(pred)} all avoiding relations"
            )
    return AxiomReport(s1=s1, s2=s2, s3=True, violations=tuple(violations))

