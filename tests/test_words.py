import itertools
import math
import random

import pytest
from conftest import FIXTURES

from stringalg.errors import CompositionError, StringAlgError
from stringalg.presentation import load_presentation
from stringalg.words import (
    Direction,
    Letter,
    Verdict,
    Walk,
    canonical_cyclic,
    concat,
    enumerate_words,
    fine_wolf_common_power,
    format_walk,
    inverse,
    is_cyclic,
    is_primitive,
    is_serial,
    is_word,
    make_walk,
    parse_walk,
    parse_word,
    trivial_walk,
    walk_source,
    walk_target,
    word_texts,
)


def L(spec):
    if spec.endswith("-"):
        return Letter(spec[:-1], Direction.INVERSE)
    return Letter(spec, Direction.DIRECT)


def W(p, *specs):
    return make_walk(p, [L(s) for s in specs])


def random_walk(p, rng, max_len=8):
    from stringalg.words import _extensions, letter_target

    v = rng.choice(p.quiver.vertices)
    letters = ()
    endv = v
    for _ in range(rng.randrange(max_len + 1)):
        # random composable continuation, not necessarily a word
        cands = [
            Letter(a.name, Direction.DIRECT) for a in p.quiver.arrows_from(endv)
        ] + [Letter(a.name, Direction.INVERSE) for a in p.quiver.arrows_into(endv)]
        if not cands:
            break
        pick = rng.choice(cands)
        letters = letters + (pick,)
        endv = letter_target(p, pick)
    return Walk(letters) if letters else trivial_walk(v)


def test_inverse_trivial_is_identity(gp):
    w = trivial_walk("v")
    assert inverse(w) == w


def test_inverse_definition(gp):
    w = W(gp, "a", "b-")
    assert inverse(w).letters == (L("b"), L("a-"))


def test_inverse_involution_random(gp, a3nr, kronecker):
    rng = random.Random(1)
    for p in (gp, a3nr, kronecker):
        for _ in range(1000 if p is gp else 100):
            w = random_walk(p, rng)
            assert inverse(inverse(w)) == w


def test_concat_unit_and_associativity(a3):
    w = W(a3, "a", "b")
    e1 = trivial_walk("1")
    e3 = trivial_walk("3")
    assert concat(a3, e1, w) == w
    assert concat(a3, w, e3) == w
    u, v = W(a3, "a"), W(a3, "b")
    assert concat(a3, u, v).letters == (L("a"), L("b"))
    with pytest.raises(CompositionError):
        concat(a3, v, u)


def test_concat_associative_random(gp):
    rng = random.Random(2)
    trials = 0
    while trials < 200:
        u, v, w = (random_walk(gp, rng, 4) for _ in range(3))
        if walk_target(gp, u) != walk_source(gp, v):
            continue
        if walk_target(gp, v) != walk_source(gp, w):
            continue
        trials += 1
        assert concat(gp, concat(gp, u, v), w) == concat(gp, u, concat(gp, v, w))


def test_is_word_ll_inverse(gp):
    ok, why = is_word(gp, W(gp, "a", "a-"))
    assert not ok and "l l^-1" in why


def test_is_word_gp_examples(gp):
    assert is_word(gp, W(gp, "a", "b"))[0]
    ok, why = is_word(gp, W(gp, "a", "a"))
    assert not ok and "relation a a" in why
    w = W(gp, "a", "b", "a-")
    assert is_word(gp, w)[0]
    assert not is_cyclic(gp, w)  # square has a^-1 a
    sq = Walk(w.letters + w.letters)
    ok, why = is_word(gp, sq)
    assert not ok


def test_is_word_inverse_symmetric(gp):
    rng = random.Random(3)
    for _ in range(500):
        w = random_walk(gp, rng)
        assert is_word(gp, w)[0] == is_word(gp, inverse(w))[0]


def test_relation_in_inverse_reading(gp):
    # a^-1 a^-1 reversed reads "a a", a relation
    w = W(gp, "a-", "a-")
    ok, why = is_word(gp, w)
    assert not ok and "inverse" in why


def test_is_cyclic_examples(gp, a3):
    assert is_cyclic(gp, W(gp, "a", "b-"))
    assert not is_cyclic(gp, W(gp, "a", "b"))  # serial
    # exhaustively: a3 has no cyclic word at all
    for w in enumerate_words(a3, 6):
        assert not is_cyclic(a3, w)


def test_cyclic_rotation_invariance(gp):
    w = W(gp, "a", "b", "a-", "b-")
    assert is_cyclic(gp, w)
    letters = w.letters
    for i in range(len(letters)):
        rot = Walk(letters[i:] + letters[:i])
        assert is_cyclic(gp, rot)


def test_is_primitive(gp):
    w = W(gp, "a", "b-")
    assert is_primitive(gp, w) == (True, w, 1)
    ww = W(gp, "a", "b-", "a", "b-")
    prim, root, r = is_primitive(gp, ww)
    assert not prim and r == 2
    assert root.letters == (L("a"), L("b-"))
    assert is_cyclic(gp, root)
    # reassembling the root r times gives the word back
    assert root.letters * r == ww.letters


def test_canonical_cyclic(gp):
    w = W(gp, "a", "b-")
    forms = set()
    letters = w.letters
    for i in range(2):
        rot = Walk(letters[i:] + letters[:i])
        if is_cyclic(gp, rot):
            forms.add(canonical_cyclic(gp, rot).letters)
        forms.add(canonical_cyclic(gp, inverse(rot)).letters)
    assert len(forms) == 1
    c = canonical_cyclic(gp, w)
    assert canonical_cyclic(gp, c) == c


def test_canonical_cyclic_random(gp):
    rng = random.Random(4)
    count = 0
    words = [w for w in enumerate_words(gp, 8) if not w.is_trivial]
    cyclics = [w for w in words if is_cyclic(gp, w)]
    for w in cyclics:
        assert canonical_cyclic(gp, w).letters == canonical_cyclic(
            gp, inverse(w)
        ).letters
        count += 1
    assert count >= 3


def test_enumerate_words_a3(a3):
    ws = enumerate_words(a3, 2)
    assert len(ws) == 5
    texts = {format_walk(w) for w in ws}
    assert texts == {"e(1)", "e(2)", "e(3)", "a", "b"}


def test_enumerate_words_kronecker(kronecker):
    assert len(enumerate_words(kronecker, 1)) == 4


def test_enumerate_words_zero(gp):
    ws = enumerate_words(gp, 0)
    assert len(ws) == 1
    assert ws[0].is_trivial


def brute_words_up_to_inversion(p, max_len):
    """Oracle: every composable letter string that is_word accepts, once per
    pair {w, w^-1} in the reading smaller under letter_key.  The trivial
    words come first, then the words by length and letter keys."""
    from stringalg.words import all_letters, letter_key, letter_source, letter_target

    letters = all_letters(p)

    def keys(seq):
        return [letter_key(p, l) for l in seq]

    out = [trivial_walk(v) for v in sorted(p.quiver.vertices)]
    level = [((), v) for v in p.quiver.vertices]
    for _ in range(max_len):
        level = [
            (seq + (l,), letter_target(p, l))
            for seq, endv in level
            for l in letters
            if letter_source(p, l) == endv
        ]
        found = set()
        for seq, _ in level:
            if is_word(p, Walk(seq))[0]:
                inv = tuple(l.inverse() for l in reversed(seq))
                found.add(min(seq, inv, key=keys))
        out.extend(Walk(seq) for seq in sorted(found, key=keys))
    return out


def test_enumerate_words_matches_bruteforce(gp, a3nr, kronecker, fixture_dir):
    loop_arrow = load_presentation(fixture_dir / "loop_arrow.sba")
    nd_two_loops = load_presentation(fixture_dir / "nd_two_loops.sba")
    cases = ((gp, 5), (a3nr, 4), (kronecker, 4), (loop_arrow, 8), (nd_two_loops, 7))
    for p, cap in cases:
        assert enumerate_words(p, cap) == brute_words_up_to_inversion(p, cap)
    # the end letters leave the reading open when the first letter is the
    # inverse of the last, as in x1 x0 x1^-1
    assert any(
        len(w) > 1 and w.letters[0] == w.letters[-1].inverse()
        for p, cap in cases
        for w in enumerate_words(p, cap)
    )


# the oracle builds every composable letter string, so it is capped on the
# two fixtures with four letters at a vertex
BRUTE_CAPS = {"gp.sba": 7, "nd_two_loops.sba": 8}


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.glob("*.sba")))
def test_word_texts_and_enumerate_words_on_every_fixture(name):
    p = load_presentation(FIXTURES / name)
    cap = BRUTE_CAPS.get(name, 10)
    brute = brute_words_up_to_inversion(p, cap)
    for n in range(11):
        words = enumerate_words(p, n)
        assert word_texts(p, n) == [format_walk(w) for w in words]
        if n <= cap:
            assert words == [w for w in brute if len(w) <= n]


def test_fine_wolf_arithmetic():
    assert fine_wolf_common_power("ab", "a", 2) is Verdict.FORCED_COMMON_ROOT
    assert fine_wolf_common_power("abcd", "abc", 5) is Verdict.INCONCLUSIVE
    assert fine_wolf_common_power("abcd", "abc", 6) is Verdict.FORCED_COMMON_ROOT


def common_prefix_len(s, t):
    n = 0
    for a, b in zip(s, t):
        if a != b:
            break
        n += 1
    return n


def primitive_root(s):
    n = len(s)
    for d in range(1, n + 1):
        if n % d == 0 and s[:d] * (n // d) == s:
            return s[:d]
    return s


def test_fine_wolf_powers_share_prefixes():
    # 10^4 randomized cases where x and y ARE powers of a common sequence
    rng = random.Random(5)
    for _ in range(10_000):
        base = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 5)))
        x = base * rng.randrange(1, 4)
        y = base * rng.randrange(1, 4)
        threshold = len(x) + len(y) - math.gcd(len(x), len(y))
        xp = x * (threshold // len(x) + 1)
        yp = y * (threshold // len(y) + 1)
        assert common_prefix_len(xp, yp) >= threshold
        assert fine_wolf_common_power(x, y, threshold) is Verdict.FORCED_COMMON_ROOT


def test_fine_wolf_exhaustive_soundness():
    # all x, y of length <= 6 over a 2-letter alphabet: at-threshold common
    # prefixes force a common primitive root
    alphabet = "xy"
    words = []
    for n in range(1, 7):
        words.extend("".join(t) for t in itertools.product(alphabet, repeat=n))
    for x in words:
        for y in words:
            threshold = len(x) + len(y) - math.gcd(len(x), len(y))
            reps = threshold // min(len(x), len(y)) + 2
            shared = common_prefix_len(x * reps, y * reps)
            if shared >= threshold:
                assert primitive_root(x) == primitive_root(y)


def test_parse_and_format(gp, a3):
    w = parse_walk(gp, "a b^-1 a")
    assert format_walk(w) == "a b^-1 a"
    t = parse_walk(a3, "e(2)")
    assert t.is_trivial and t.vertex == "2"
    assert parse_word(gp, "a b").letters == (L("a"), L("b"))
    # a letter's built text is not a field: a letter that has printed is
    # equal, hashes and reprs like a fresh one
    printed, fresh = w.letters[1], L("b-")
    assert printed.text == "b^-1" and "text" not in fresh.__dict__
    assert printed == fresh and hash(printed) == hash(fresh) and repr(printed) == repr(fresh)
    with pytest.raises(StringAlgError):
        parse_word(gp, "a a")


def test_equal_letters_and_walks_hash_equal_without_enum_hash(gp, monkeypatch):
    a, a_inv = L("a"), L("a-")
    assert hash(a) == hash(Letter("a", Direction.DIRECT)) and a != a_inv
    w = parse_word(gp, "a b^-1 a")
    rebuilt = Walk(tuple(Letter(l.arrow, l.direction) for l in w.letters))
    assert w == rebuilt and hash(w) == hash(rebuilt)
    # a word and its inverse are distinct keys, each found by an equal walk
    u = parse_word(gp, "a b")
    keys = {u: "u", inverse(u): "u^-1"}
    assert len(keys) == 2 and keys[parse_word(gp, "a b")] == "u"
    assert keys[inverse(parse_word(gp, "a b"))] == "u^-1"

    def forbidden(self):
        raise AssertionError("Enum.__hash__ ran")

    monkeypatch.setattr(Direction, "__hash__", forbidden)
    assert keys[Walk((L("a"), L("b")))] == "u" and hash(w) == hash(rebuilt)


def test_serial(gp):
    assert is_serial(W(gp, "a", "b"))
    assert is_serial(W(gp, "a-", "b-"))
    assert not is_serial(W(gp, "a", "b-"))
    assert is_serial(trivial_walk("v"))
