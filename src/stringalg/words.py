"""Letters, walks, words and cyclic words over a presentation.

A letter is an arrow or its formal inverse.  A walk is a composable
sequence of letters, or a single vertex (the trivial walk).  A walk is a
word when it has no factor l l^{-1} and neither it nor its inverse
contains a relation path as a factor.  Cyclic words are the non-serial
closed words whose square is again a word; bands are the primitive ones.
Words and cyclic words are walks that pass these checks, not types of
their own: word, parse_word, is_cyclic and is_primitive check at the
boundaries and hand the walk back.  The letter automaton decides which
letters may follow a word, and its walk builds the words level by level
as arrays of letter codes along its edges; enumerate_words makes walks of
the kept rows, and word_texts prints them without making any.  is_word and
is_cyclic are the checks written from the definitions.  Each presentation
has one automaton, built on first use by automaton_for and kept on the
presentation.  Its direct letters also answer the questions about paths:
the relation-free paths are the walks of direct letters, and the algebra
is finite dimensional exactly when no cycle of direct letters exists.

CLI syntax: letters separated by spaces, inverses marked "^-1", trivial
words written "e(<vertex>)".  Example: "a b^-1 a".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, total_ordering
from itertools import accumulate, compress
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import (
    CompositionError,
    NonStringPresentationError,
    NotFiniteDimensionalError,
    ParseError,
    StringAlgError,
)
from .presentation import Presentation, validate_axioms


class Direction(Enum):
    DIRECT = 0
    INVERSE = 1


@total_ordering
@dataclass(frozen=True)
class Letter:
    """An arrow or its formal inverse.

    Its printed text, the arrow name with "^-1" on an inverse, is built
    once per instance; words share the letters of the automaton, so
    printing a word joins texts already built.  The text is not a field:
    equality, hashing and the repr see the arrow and direction alone.
    """

    arrow: str
    direction: Direction

    @property
    def is_direct(self) -> bool:
        return self.direction is Direction.DIRECT

    @cached_property
    def text(self) -> str:
        return self.arrow + ("" if self.is_direct else "^-1")

    def inverse(self) -> "Letter":
        return Letter(
            self.arrow,
            Direction.INVERSE if self.is_direct else Direction.DIRECT,
        )

    def __repr__(self):
        return self.text

    def __hash__(self):
        # agrees with the generated __eq__; _value_ is a plain attribute, so
        # neither Enum.__hash__ nor the Enum value property runs
        return hash((self.arrow, self.direction._value_))

    def __lt__(self, other: "Letter"):
        # ordering refined per presentation via letter_key; this is a fallback
        return (self.arrow, self.direction.value) < (other.arrow, other.direction.value)


def letter_source(p: Presentation, l: Letter) -> str:
    a = p.arrow(l.arrow)
    return a.source if l.is_direct else a.target


def letter_target(p: Presentation, l: Letter) -> str:
    a = p.arrow(l.arrow)
    return a.target if l.is_direct else a.source


def letter_key(p: Presentation, l: Letter) -> tuple[int, int]:
    """Total order on letters: arrow declaration order, direct before inverse."""
    return (p.quiver.arrow_index(l.arrow), l.direction.value)


def all_letters(p: Presentation) -> list[Letter]:
    out = []
    for a in p.quiver.arrows:
        out.append(Letter(a.name, Direction.DIRECT))
        out.append(Letter(a.name, Direction.INVERSE))
    return out


@dataclass(frozen=True)
class Walk:
    """Either a trivial walk at a vertex or a nonempty letter sequence."""

    letters: tuple[Letter, ...]
    vertex: str | None = None  # set exactly when the walk is trivial

    def __post_init__(self):
        if (len(self.letters) == 0) != (self.vertex is not None):
            raise StringAlgError("a walk is either a vertex or a nonempty letter sequence")

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"Walk({format_walk(self)!r})"


def trivial_walk(vertex: str) -> Walk:
    return Walk((), vertex)


def make_walk(p: Presentation, letters) -> Walk:
    """Build a walk, checking that consecutive letters compose."""
    letters = tuple(letters)
    if not letters:
        raise StringAlgError("use trivial_walk for length-zero walks")
    for left, right in zip(letters, letters[1:]):
        if letter_target(p, left) != letter_source(p, right):
            raise CompositionError(
                f"letters {left} and {right} do not compose: "
                f"{left} ends at {letter_target(p, left)}, "
                f"{right} starts at {letter_source(p, right)}"
            )
    return Walk(letters)


def walk_source(p: Presentation, w: Walk) -> str:
    return w.vertex if w.is_trivial else letter_source(p, w.letters[0])


def walk_target(p: Presentation, w: Walk) -> str:
    return w.vertex if w.is_trivial else letter_target(p, w.letters[-1])


def inverse(w: Walk) -> Walk:
    """Reverse the walk and invert each letter; trivial walks are fixed."""
    if w.is_trivial:
        return w
    return Walk(tuple(l.inverse() for l in reversed(w.letters)))


def concat(p: Presentation, u: Walk, v: Walk) -> Walk:
    """Concatenation; trivial walks act as units."""
    if walk_target(p, u) != walk_source(p, v):
        raise CompositionError(
            f"walks do not compose: {format_walk(u)} ends at {walk_target(p, u)}, "
            f"{format_walk(v)} starts at {walk_source(p, v)}"
        )
    if u.is_trivial:
        return v
    if v.is_trivial:
        return u
    return Walk(u.letters + v.letters)


def walk_vertices(p: Presentation, w: Walk) -> list[str]:
    """The length+1 vertices visited by the walk."""
    if w.is_trivial:
        return [w.vertex]
    out = [letter_source(p, w.letters[0])]
    for l in w.letters:
        out.append(letter_target(p, l))
    return out


# ---------------------------------------------------------------------------
# word conditions
# ---------------------------------------------------------------------------


def _direct_run_violation(p: Presentation, letters: tuple[Letter, ...]):
    """Find a relation occurring inside the letters or their inverses.

    Relations are direct paths, so any occurrence lies inside a maximal run
    of direct letters (reading the walk) or of inverse letters (reading the
    inverse walk).  Returns a description or None.
    """
    n = len(letters)
    maxrel = p.max_relation_length()
    if maxrel == 0:
        return None
    i = 0
    while i < n:
        d = letters[i].direction
        j = i
        while j < n and letters[j].direction == d:
            j += 1
        run = [l.arrow for l in letters[i:j]]
        if d is Direction.INVERSE:
            run.reverse()
        path = tuple(run)
        for rel in p.relations:
            r = len(rel)
            for k in range(len(path) - r + 1):
                if path[k : k + r] == rel:
                    side = "walk" if d is Direction.DIRECT else "inverse walk"
                    return f"relation {' '.join(rel)} occurs in the {side} at letters {i}..{j - 1}"
        i = j
    return None


def is_word(p: Presentation, w: Walk) -> tuple[bool, str | None]:
    """Word test; on failure the second component pinpoints the violation."""
    if w.is_trivial:
        if w.vertex not in p.quiver.vertices:
            return False, f"unknown vertex {w.vertex!r}"
        return True, None
    for i, (left, right) in enumerate(zip(w.letters, w.letters[1:])):
        if letter_target(p, left) != letter_source(p, right):
            return False, f"letters {left} {right} at {i} do not compose"
        if right == left.inverse():
            return False, f"factor {left} {right} of the form l l^-1 at position {i}"
    violation = _direct_run_violation(p, w.letters)
    if violation is not None:
        return False, violation
    return True, None


def word(p: Presentation, w: Walk) -> Walk:
    """w itself, once is_word accepts it."""
    ok, violation = is_word(p, w)
    if not ok:
        raise StringAlgError(f"not a word: {violation}")
    return w


def is_serial(w: Walk) -> bool:
    """Direct or inverse; trivial walks are serial."""
    return all(l.is_direct for l in w.letters) or all(not l.is_direct for l in w.letters)


def is_cyclic(p: Presentation, w: Walk) -> bool:
    """Non-serial, closed, and with a valid square."""
    if is_serial(w):
        return False
    if walk_source(p, w) != walk_target(p, w):
        return False
    ok, _ = is_word(p, Walk(w.letters + w.letters))
    return ok


def is_primitive(p: Presentation, w: Walk) -> tuple[bool, Walk, int]:
    """Primitivity of a cyclic word; on failure also the root and exponent.

    Returns (True, w, 1) when primitive, else (False, root, r) with
    w = root^r and root itself cyclic.
    """
    if not is_cyclic(p, w):
        raise StringAlgError(f"{format_walk(w)} is not a cyclic word")
    n = len(w)
    for period in range(1, n):
        if n % period:
            continue
        if all(w.letters[i] == w.letters[i % period] for i in range(n)):
            return False, Walk(w.letters[:period]), n // period
    return True, w, 1


def rotations(w: Walk) -> list[Walk]:
    n = len(w)
    return [Walk(w.letters[i:] + w.letters[:i]) for i in range(n)]


def canonical_cyclic(p: Presentation, w: Walk) -> Walk:
    """Lexicographically least rotation of w or of its inverse.

    The letter order is arrow declaration order with direct before inverse,
    so the choice is reproducible; the function is idempotent.
    """
    candidates = rotations(w) + rotations(inverse(w))
    return min(candidates, key=lambda ww: [letter_key(p, l) for l in ww.letters])


# ---------------------------------------------------------------------------
# Fine and Wilf periodicity threshold
# ---------------------------------------------------------------------------


class Verdict(Enum):
    FORCED_COMMON_ROOT = "ForcedCommonRoot"
    INCONCLUSIVE = "Inconclusive"


def fine_wolf_common_power(x, y, prefix_len: int) -> Verdict:
    """Periodicity verdict for two sequences sharing a left factor.

    When powers of x and of y share a left factor of length at least
    |x| + |y| - gcd(|x|, |y|), the two are powers of a common sequence.
    The caller supplies the observed common-left-factor length.
    """
    nx, ny = len(x), len(y)
    if nx == 0 or ny == 0:
        raise StringAlgError("sequences must be nonempty")
    threshold = nx + ny - math.gcd(nx, ny)
    return Verdict.FORCED_COMMON_ROOT if prefix_len >= threshold else Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# letter automaton and enumeration
# ---------------------------------------------------------------------------


def _extensions(p: Presentation, letters: tuple[Letter, ...], at_vertex: str) -> list[Letter]:
    """Letters that extend the given valid word by one position."""
    out = []
    maxrel = p.max_relation_length()
    for a in p.quiver.arrows_from(at_vertex):
        out.append(Letter(a.name, Direction.DIRECT))
    for a in p.quiver.arrows_into(at_vertex):
        out.append(Letter(a.name, Direction.INVERSE))
    good = []
    for cand in out:
        if letters:
            last = letters[-1]
            if cand == last.inverse():
                continue
        window = letters[-max(maxrel - 1, 0):] + (cand,) if maxrel else (cand,)
        if _direct_run_violation(p, window) is None:
            good.append(cand)
    return sorted(good, key=lambda l: letter_key(p, l))


def _first_cycle(starts, successors) -> list | None:
    """Labels along the first cycle a depth-first search meets, or None.

    The search starts from each node of starts in turn and tries the
    (label, next node) pairs of successors(node) in order.  The cycle is
    read from the node the search enters a second time.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict = {}
    parent: dict = {}
    for start in starts:
        if color.get(start, WHITE) != WHITE:
            continue
        color[start] = GRAY
        stack = [(start, iter(successors(start)))]
        while stack:
            node, it = stack[-1]
            for label, nxt in it:
                seen = color.get(nxt, WHITE)
                if seen == GRAY:
                    cycle = [label]
                    while node != nxt:
                        node, label = parent[node]
                        cycle.append(label)
                    return cycle[::-1]
                if seen == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = (node, label)
                    stack.append((nxt, iter(successors(nxt))))
                    break
            else:
                color[node] = BLACK
                stack.pop()
    return None


class WordLevel(NamedTuple):
    """The walked words of one length: one row of codes per word, the state
    each ends in, and the row of the level before that each extends."""

    codes: np.ndarray
    states: np.ndarray
    parent: np.ndarray | None


class LetterAutomaton:
    """Extension automaton: states are (vertex, trailing letter window).

    The window length is max(relation length - 1, 1), which is enough to
    test both the l l^-1 condition and relation factors in either reading.
    Transitions are exactly the single-letter extensions of valid words, so
    the words are the paths from the empty-window states.

    Letters are numbered by code = 2 * arrow index + direction: code ^ 1 is
    the inverse letter and code order is letter_key order.  States are
    numbered in the order of nodes, and edges[s] maps the code of each
    letter that may follow state s to the next state, in code order.  The
    same edges are kept as a table of arrays (offsets per state, then edge
    codes and next states), from which walk builds whole levels of words.
    """

    def __init__(self, p: Presentation):
        self.p = p
        self.window = max(p.max_relation_length() - 1, 1)
        self.letters = all_letters(p)  # indexed by code
        self.code = {l: c for c, l in enumerate(self.letters)}
        outs: dict[tuple[str, tuple[Letter, ...]], list] = {}
        todo = [(v, ()) for v in p.quiver.vertices]
        while todo:
            node = todo.pop()
            if node in outs:
                continue
            endv, win = node
            outs[node] = [
                (letter, (letter_target(p, letter), (win + (letter,))[-self.window:]))
                for letter in _extensions(p, win, endv)
            ]
            todo.extend(nxt for _, nxt in outs[node] if nxt not in outs)
        self.nodes: list[tuple[str, tuple[Letter, ...]]] = sorted(
            outs, key=lambda n: (n[0], [self.code[l] for l in n[1]])
        )
        self.index = {node: s for s, node in enumerate(self.nodes)}
        self.edges: list[dict[int, int]] = [
            {self.code[letter]: self.index[nxt] for letter, nxt in outs[node]}
            for node in self.nodes
        ]
        self.source = [letter_source(p, l) for l in self.letters]
        # the state after the one-letter word of each code
        self.first = [self.edges[self.index[(v, ())]][c] for c, v in enumerate(self.source)]
        # the edges once more as a table: those of state s are entries
        # offsets[s] to offsets[s + 1] of edge_codes and edge_next
        self.code_dtype = np.min_scalar_type(max(len(self.letters) - 1, 0))
        self.offsets = np.array([0, *accumulate(map(len, self.edges))], np.intp)
        self.edge_codes = np.array([c for out in self.edges for c in out], self.code_dtype)
        self.edge_next = np.array([s for out in self.edges for s in out.values()], np.intp)

    @property
    def state_count(self) -> int:
        return len(self.nodes)

    def extensions(self, letters: tuple[Letter, ...], endv: str) -> list[Letter]:
        """The letters that extend a word ending at endv, in letter_key order."""
        state = self.index[(endv, letters[-self.window:])]
        return [self.letters[c] for c in self.edges[state]]

    def walk(self, max_len: int):
        """The levels of the nonempty words of length <= max_len.

        Level k holds the words of length k as rows of a (N_k x k) array of
        codes in code order, with their end states; parent[i] is the row of
        level k - 1 that row i extends (None at level 1, whose rows are the
        letters).  Each level repeats every row of the one before by the
        out-degree of its end state and appends the codes of those edges,
        so rows are in (length, code) order.  The walk stops at the first
        empty level, and it holds one level at a time.
        """
        if max_len < 1:
            return
        codes = np.arange(len(self.letters), dtype=self.code_dtype)[:, None]
        states = np.array(self.first, dtype=np.intp)
        parent = None
        for length in range(1, max_len + 1):
            if not len(states):
                return
            yield WordLevel(codes, states, parent)
            if length == max_len:
                return
            lo = self.offsets[states]
            degree = self.offsets[states + 1] - lo
            parent = np.arange(len(states)).repeat(degree)
            # edge j of row i sits at offsets[state] + j in the edge table
            edge = np.arange(len(parent)) + (lo - degree.cumsum() + degree).repeat(degree)
            grown = np.empty((len(edge), length + 1), self.code_dtype)
            grown[:, :length] = codes[parent]
            grown[:, length] = self.edge_codes[edge]
            codes, states = grown, self.edge_next[edge]

    def is_cyclic(self, codes: tuple[int, ...], state: int) -> bool:
        """is_cyclic for a walked word ending in state.

        The word is closed and non-serial, and its square is a word exactly
        when its first window letters can be read again from state: from
        there on the states repeat those of the first reading.
        """
        if self.nodes[state][0] != self.source[codes[0]]:
            return False
        if not ((codes[0] ^ codes[-1]) & 1 or len({c & 1 for c in codes}) == 2):
            return False
        return self.read(state, codes[: self.window]) is not None

    def read(self, state: int, codes) -> int | None:
        """The state reached by reading codes on from state, or None when a
        letter may not follow."""
        for c in codes:
            state = self.edges[state].get(c)
            if state is None:
                return None
        return state

    def find_cycle(self) -> tuple[Letter, ...] | None:
        """Letters along some cycle, or None when the automaton is acyclic."""
        cycle = _first_cycle(range(len(self.nodes)), lambda s: self.edges[s].items())
        return None if cycle is None else tuple(self.letters[c] for c in cycle)

    def branching_cycles(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Codes of two cycles through one state, or None when no state has
        two out-edges that lead back to it.

        Products of cycles through one state are read from it, so they are
        words: two such cycles give the infinitely many bands C1^k C2, and
        without them the bands are finitely many (Ringel 1995).  The state
        is the first with two such edges, the cycles take the first two of
        them in code order and return along the first shortest path.
        """
        for s, out in enumerate(self.edges):
            cycles = []
            for c, nxt in out.items():
                back = self._shortest_path(nxt, s)
                if back is not None:
                    cycles.append((c,) + back)
                    if len(cycles) == 2:
                        return cycles[0], cycles[1]
        return None

    def _shortest_path(self, start: int, goal: int) -> tuple[int, ...] | None:
        """Codes of the first shortest path from start to goal in code order
        (breadth-first search), or None when goal cannot be reached."""
        paths = {start: ()}
        level = [start]
        while level and goal not in paths:
            following = []
            for s in level:
                for c, nxt in self.edges[s].items():
                    if nxt not in paths:
                        paths[nxt] = paths[s] + (c,)
                        following.append(nxt)
            level = following
        return paths.get(goal)

    @cached_property
    def relation_free_cycle(self) -> tuple[str, ...] | None:
        """Arrows of an oriented cycle whose powers avoid every relation, or
        None when the algebra is finite dimensional.

        Relation-free paths are the walks of direct letters, so the search
        follows direct letters between the states whose window is direct.
        Each window is cut to its last (max relation length - 1) arrows,
        all that decides which arrow may follow; without relations the
        states are the vertices.  Starts are tried in (vertex, arrow names)
        order, which fixes the cycle reported.
        """
        keep = self.p.max_relation_length() - 1

        def cut(s: int) -> int:
            v, win = self.nodes[s]
            return self.index[(v, win[-keep:] if keep > 0 else ())]

        starts = sorted(
            {cut(s) for s, (_, win) in enumerate(self.nodes) if all(l.is_direct for l in win)},
            key=lambda s: (self.nodes[s][0], [l.arrow for l in self.nodes[s][1]]),
        )
        cycle = _first_cycle(
            starts,
            lambda s: [(c, cut(nxt)) for c, nxt in self.edges[s].items() if not c & 1],
        )
        return None if cycle is None else tuple(self.letters[c].arrow for c in cycle)

    def cyclic_witness(self) -> Walk | None:
        """A primitive cyclic word, or None when no cyclic word exists.

        Complete: the automaton has a cycle exactly when a cyclic word
        exists (over a finite-dimensional presentation an all-direct cycle
        would make the algebra infinite dimensional).
        """
        cycle = self.find_cycle()
        if cycle is None:
            return None
        p = self.p
        w = word(p, Walk(cycle))
        if not is_cyclic(p, w):
            raise StringAlgError(
                "automaton cycle did not give a cyclic word; is the algebra finite dimensional?"
            )
        _, root, _ = is_primitive(p, w)
        return canonical_cyclic(p, root)


def automaton_for(p: Presentation) -> LetterAutomaton:
    """The letter automaton of p, built on first use and kept on p."""
    if p._automaton is None:
        object.__setattr__(p, "_automaton", LetterAutomaton(p))
    return p._automaton


def check_finite_dimensional(p: Presentation) -> tuple[bool, tuple[str, ...] | None]:
    """Whether only finitely many paths avoid the relations.

    On False the witness is a directed cycle of arrows whose repeated
    traversal never meets a relation.
    """
    cycle = automaton_for(p).relation_free_cycle
    return cycle is None, cycle


def require_string(p: Presentation):
    report = validate_axioms(p)
    if not report.is_string:
        raise NonStringPresentationError("; ".join(report.violations))
    cycle = automaton_for(p).relation_free_cycle
    if cycle is not None:
        raise NotFiniteDimensionalError(cycle)


def surviving_paths(p: Presentation, v: str) -> list[tuple[str, tuple[str, ...]]]:
    """The relation-free paths from v as (end vertex, arrow names) pairs.

    The empty path comes first.  Then each length extends the paths of the
    length before, in order, by the direct letters the automaton allows
    after them, starting from v's empty-window state.  Raises
    NotFiniteDimensionalError when the algebra is infinite dimensional.
    """
    if v not in p.quiver.vertices:
        raise StringAlgError(f"unknown vertex {v!r}")
    automaton = automaton_for(p)
    if automaton.relation_free_cycle is not None:
        raise NotFiniteDimensionalError(automaton.relation_free_cycle)
    out = []
    level = [((), automaton.index[(v, ())])]
    while level:
        out.extend((automaton.nodes[s][0], path) for path, s in level)
        level = [
            (path + (automaton.letters[c].arrow,), nxt)
            for path, s in level
            for c, nxt in automaton.edges[s].items()
            if not c & 1
        ]
    return out


def _smaller_reading(codes: np.ndarray) -> np.ndarray:
    """Mask of the rows of codes that are no larger than their inverse.

    The codes of the inverse reading start with the last code ^ 1, so the
    end codes decide, and whole rows are compared with their reversed
    inverses only when the first letter is the inverse of the last.  No
    word is its own inverse (its middle would be a letter equal to its
    inverse or a factor l l^-1), so the first position where the two
    readings differ decides.
    """
    first, back = codes[:, 0], codes[:, -1] ^ 1
    keep = first < back
    tie = (first == back).nonzero()[0]
    if len(tie):
        rows = codes[tie]
        inverses = rows[:, ::-1] ^ 1
        at = (rows != inverses).argmax(axis=1)
        picked = np.arange(len(tie))
        keep[tie] = rows[picked, at] < inverses[picked, at]
    return keep


def enumerate_words(p: Presentation, max_len: int) -> list[Walk]:
    """All words of length at most max_len, one per inversion pair {w, w^-1}.

    Includes the trivial word at each vertex.  Each word is given in the
    reading whose codes are smaller, which is the reading smaller by
    letter keys; the walk visits both readings, and each level keeps the
    rows that _smaller_reading picks.  Output is sorted by length and then
    lexicographically by letter keys.
    """
    out = [trivial_walk(v) for v in sorted(p.quiver.vertices)]
    automaton = automaton_for(p)
    letter = automaton.letters.__getitem__
    for level in automaton.walk(max_len):
        kept = level.codes[_smaller_reading(level.codes)]
        out.extend(Walk(tuple(map(letter, row))) for row in kept.tolist())
    return out


def word_texts(p: Presentation, max_len: int) -> list[str]:
    """format_walk of each word of enumerate_words(p, max_len), in order.

    No walk is built: the text of a walked row is the text of the row it
    extends, a space and the text of its last letter, so each level's texts
    are made from the level before.  Every kept word is a walked row, and
    its prefixes are walked rows too, so all texts come out this way.
    """
    out = [f"e({v})" for v in sorted(p.quiver.vertices)]
    automaton = automaton_for(p)
    spaced = [" " + l.text for l in automaton.letters]
    texts: list[str] = []
    for level in automaton.walk(max_len):
        last = level.codes[:, -1].tolist()
        if level.parent is None:
            texts = [automaton.letters[c].text for c in last]
        else:
            texts = list(map(add, map(texts.__getitem__, level.parent.tolist()),
                             map(spaced.__getitem__, last)))
        out.extend(compress(texts, _smaller_reading(level.codes).tolist()))
    return out


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------


def format_walk(w: Walk) -> str:
    if w.is_trivial:
        return f"e({w.vertex})"
    return " ".join([l.text for l in w.letters])


def parse_walk(p: Presentation, text: str) -> Walk:
    text = text.strip()
    if text.startswith("e(") and text.endswith(")"):
        v = text[2:-1].strip()
        if v not in p.quiver.vertices:
            raise ParseError(f"unknown vertex {v!r} in trivial word")
        return trivial_walk(v)
    letters = []
    for tok in text.split():
        if tok.endswith("^-1"):
            name, direction = tok[:-3], Direction.INVERSE
        else:
            name, direction = tok, Direction.DIRECT
        try:
            p.arrow(name)
        except StringAlgError:
            raise ParseError(f"unknown arrow {name!r} in word") from None
        letters.append(Letter(name, direction))
    if not letters:
        raise ParseError("empty word text")
    return make_walk(p, letters)


def parse_word(p: Presentation, text: str) -> Walk:
    return word(p, parse_walk(p, text))
