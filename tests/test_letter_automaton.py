"""Property tests: walks on the letter automaton against the definitions.

The presentations are small ones drawn by hypothesis: one to three
vertices, up to four arrows, and monomial relations of length two or
three.  On string presentations with at least two arrows, walks must list
exactly the composable letter sequences that pass is_word, the bands must
match loops that decide cyclicity with is_cyclic, and the exact verdict of
classify must agree with a bounded search for generators of the semigroups
N(alpha) of cyclic words.  On any of them, finite or not, the relation-free paths read
from the direct letters must match a scan of every arrow sequence, and an
infinite verdict must come with an arrow cycle whose powers avoid the
relations.
"""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from test_presentation import brute_surviving_paths
from test_words import brute_words_up_to_inversion

from stringalg.classify import classify, find_bands
from stringalg.errors import NotFiniteDimensionalError
from stringalg.presentation import Arrow, Presentation, Quiver, validate_axioms
from stringalg.words import (
    Direction,
    Letter,
    Walk,
    all_letters,
    automaton_for,
    canonical_cyclic,
    check_finite_dimensional,
    enumerate_words,
    format_walk,
    is_cyclic,
    is_primitive,
    is_word,
    letter_key,
    letter_source,
    letter_target,
    surviving_paths,
    word_texts,
)


@st.composite
def presentations(draw, min_arrows, string_only):
    n_vertices = draw(st.integers(1, 3))
    vertices = tuple(str(i) for i in range(n_vertices))
    arrows = tuple(
        Arrow(f"x{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        for i in range(draw(st.integers(min_arrows, 4)))
    )
    relations = set()
    for _ in range(draw(st.integers(0, 4))):
        path = [draw(st.sampled_from(arrows))]
        for _ in range(draw(st.integers(2, 3)) - 1):
            successors = [a for a in arrows if a.source == path[-1].target]
            if not successors:
                break
            path.append(draw(st.sampled_from(successors)))
        if len(path) >= 2:
            relations.add(tuple(a.name for a in path))
    p = Presentation(Quiver(vertices, arrows), tuple(sorted(relations)))
    if string_only:
        assume(validate_axioms(p).is_string)
    return p


def walk_words(p, max_len):
    """The words walked by the letter automaton, as letter tuples."""
    automaton = automaton_for(p)
    return [
        tuple(automaton.letters[c] for c in codes)
        for level in automaton.walk(max_len)
        for codes in level.codes.tolist()
    ]


def brute_force_words(p, max_len):
    """Composable letter sequences that pass is_word, in (length, letter_key)
    order.  Factors of words are words, so each length extends the last."""
    letters = all_letters(p)
    out = []
    level = [(l,) for l in letters]
    for _ in range(max_len):
        level = sorted(
            (seq for seq in level if is_word(p, Walk(seq))[0]),
            key=lambda seq: [letter_key(p, l) for l in seq],
        )
        out.extend(level)
        level = [
            seq + (l,) for seq in level for l in letters
            if letter_source(p, l) == letter_target(p, seq[-1])
        ]
    return out


def reference_n_alpha_generators(p, alpha, max_len):
    """Generators of N(alpha) with membership decided by is_cyclic."""
    first = Letter(alpha, Direction.DIRECT)

    def member(letters):
        return (letters[0] == first and not letters[-1].is_direct
                and is_cyclic(p, Walk(letters)))

    members = set()
    out = []
    for letters in walk_words(p, max_len):
        if not member(letters):
            continue
        members.add(letters)
        if not any(letters[:i] in members and member(letters[i:])
                   for i in range(1, len(letters))):
            out.append(Walk(letters))
    return out


def reference_band_letters(p, max_len):
    """Canonical letters of the primitive cyclic words, decided by is_cyclic."""
    found = set()
    for letters in walk_words(p, max_len):
        w = Walk(letters)
        if is_cyclic(p, w) and is_primitive(p, w)[0]:
            found.add(canonical_cyclic(p, w).letters)
    return sorted(found, key=lambda ls: (len(ls), [letter_key(p, l) for l in ls]))


PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@PROPERTY
@given(presentations(min_arrows=2, string_only=True), st.integers(0, 6))
def test_walk_words_matches_brute_force(p, max_len):
    assert walk_words(p, max_len) == brute_force_words(p, max_len)


# a loop and a relation of length three, so the window is two letters; the
# walk meets words whose first letter is the inverse of the last (x1 x0 x1^-1)
LOOP_WINDOW_TWO = Presentation(
    Quiver(("0", "1"), (Arrow("x0", "0", "0"), Arrow("x1", "1", "0"))),
    (("x0", "x0", "x0"),),
)
# a path of two arrows with their composite a relation: no word is longer
# than one letter, so the levels die out long before the bound
DIES_OUT = Presentation(
    Quiver(("0", "1", "2"), (Arrow("x0", "0", "1"), Arrow("x1", "1", "2"))),
    (("x0", "x1"),),
)


def test_the_examples_show_what_they_are_drawn_for():
    automaton = automaton_for(LOOP_WINDOW_TWO)
    assert automaton.window == 2
    rows = [row for level in automaton.walk(6) for row in level.codes.tolist()]
    assert any(len(row) > 1 and row[0] == row[-1] ^ 1 for row in rows)
    assert [len(level.codes) for level in automaton_for(DIES_OUT).walk(20)] == [4]


@PROPERTY
@given(presentations(min_arrows=1, string_only=False), st.integers(0, 6))
@example(LOOP_WINDOW_TWO, 6)
@example(DIES_OUT, 6)
def test_word_texts_and_enumerate_words_match_brute_force(p, max_len):
    words = enumerate_words(p, max_len)
    assert word_texts(p, max_len) == [format_walk(w) for w in words]
    assert words == brute_words_up_to_inversion(p, max_len)


# fixtures/gp.sba and fixtures/nd_two_loops.sba: non-domestic, which about
# one drawn presentation in a hundred is
GP = Presentation(
    Quiver(("v",), (Arrow("a", "v", "v"), Arrow("b", "v", "v"))),
    (("a", "a"), ("b", "b"), ("a", "b", "a", "b"), ("b", "a", "b", "a")),
)
ND_TWO_LOOPS = Presentation(
    Quiver(("0", "1"), (Arrow("x0", "1", "1"), Arrow("x1", "0", "0"), Arrow("x2", "0", "1"))),
    (("x0", "x0"), ("x1", "x1")),
)


@PROPERTY
@given(presentations(min_arrows=2, string_only=True))
@example(GP)
@example(ND_TWO_LOOPS)
def test_classify_verdict_matches_n_alpha_reference(p):
    assume(check_finite_dimensional(p)[0])
    cert = classify(p)
    most = max(len(reference_n_alpha_generators(p, a.name, 12)) for a in p.quiver.arrows)
    # two free generators of one N(alpha) give infinitely many bands
    if most >= 2:
        assert cert.verdict == "NonDomestic"
    if cert.verdict == "Domestic":
        assert most <= 1
    if cert.verdict == "NonDomestic":
        g1, g2 = cert.generator_pair
        for letters in (g1.letters, g2.letters, g1.letters + g2.letters, g2.letters + g1.letters):
            assert is_cyclic(p, Walk(letters))
        # they leave their state by a direct and an inverse letter, in
        # either order, so their first letters differ
        assert g1.letters[0].is_direct != g2.letters[0].is_direct


@PROPERTY
@given(presentations(min_arrows=2, string_only=True))
def test_find_bands_match_is_cyclic_reference(p):
    bands = find_bands(p, 8)
    assert [b.letters for b in bands] == reference_band_letters(p, 8)


def _starting_at(p, paths, v):
    return [
        (endv, path) for endv, path in paths
        if (p.arrow(path[0]).source if path else endv) == v
    ]


@PROPERTY
@given(presentations(min_arrows=1, string_only=False))
def test_paths_and_finite_dimensionality_read_the_direct_letters(p):
    finite, cycle = check_finite_dimensional(p)
    if finite:
        assert cycle is None
        for v in p.quiver.vertices:
            paths = surviving_paths(p, v)
            # one step past the longest path: the scan must find nothing longer
            brute = brute_surviving_paths(p, cap=max(len(path) for _, path in paths) + 1)
            assert paths == _starting_at(p, brute, v)
    else:
        arrows = [p.arrow(name) for name in cycle]
        assert arrows
        assert all(a.target == b.source for a, b in zip(arrows, arrows[1:] + arrows[:1]))
        assert p.path_is_relation_free(cycle * (p.max_relation_length() + 1))
        for v in p.quiver.vertices:
            with pytest.raises(NotFiniteDimensionalError):
                surviving_paths(p, v)
