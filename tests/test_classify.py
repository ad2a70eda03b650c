import random

import numpy as np
import pytest
from test_letter_automaton import GP, ND_TWO_LOOPS, brute_force_words

from stringalg.classify import (
    build_witness,
    classify,
    find_bands,
    find_witness_triple,
)
from stringalg.decomp import decompose
from stringalg.errors import StringAlgError, VerificationError
from stringalg.linalg import Matrix
from stringalg.presentation import Arrow, Presentation, Quiver, validate_axioms
from stringalg.reps import (
    _nodes_to_indices,
    band_module,
    cyclic_recipe_module,
    make_representation,
)
from stringalg.words import (
    LetterAutomaton,
    Walk,
    automaton_for,
    canonical_cyclic,
    check_finite_dimensional,
    format_walk,
    is_cyclic,
    is_primitive,
    is_serial,
    is_word,
    letter_source,
)


def test_automaton_acyclic_a3(a3):
    assert LetterAutomaton(a3).find_cycle() is None
    assert automaton_for(a3).cyclic_witness() is None


def test_automaton_cycle_gp(gp, kronecker):
    for p in (gp, kronecker):
        band = automaton_for(p).cyclic_witness()
        assert band is not None
        assert is_primitive(p, band)[0]


def test_find_bands_a3(a3):
    assert find_bands(a3, 8) == []


def test_find_bands_kronecker(kronecker):
    for bound in (2, 4, 8):
        bands = find_bands(kronecker, bound)
        assert len(bands) == 1
        assert format_walk(bands[0]) == "a b^-1"


def test_find_bands_gp(gp):
    bands = find_bands(gp, 8)
    assert len(bands) >= 3
    texts = {format_walk(b) for b in bands}
    assert "a b^-1" in texts
    assert "a b a^-1 b^-1" in texts
    # canonicalization is a fixed point on every output
    for b in bands:
        assert canonical_cyclic(gp, b) == b


def test_branching_cycles_a3(a3):
    assert automaton_for(a3).branching_cycles() is None


def test_branching_cycles_gp(gp):
    automaton = automaton_for(gp)
    cycles = automaton.branching_cycles()
    g1, g2 = (Walk(tuple(automaton.letters[c] for c in codes)) for codes in cycles)
    assert format_walk(g1) == "b a b a^-1"
    assert format_walk(g2) == "b^-1 a b a^-1"
    # both cycles and both products of them are cyclic words
    for g in (g1, g2, Walk(g1.letters + g2.letters), Walk(g2.letters + g1.letters)):
        assert is_cyclic(gp, g)


def test_branching_cycles_kronecker(kronecker):
    # one band, a b^-1, and no state on two cycles
    assert automaton_for(kronecker).branching_cycles() is None


def test_classify_finite(a3, a3nr):
    for p in (a3, a3nr):
        cert = classify(p)
        assert cert.verdict == "Finite"


def test_classify_domestic_kronecker(kronecker):
    cert = classify(kronecker)
    assert cert.verdict == "Domestic"
    assert cert.band_witness is not None
    assert cert.generator_pair is None


def test_classify_nondomestic_gp(gp):
    cert = classify(gp)
    assert cert.verdict == "NonDomestic"
    g1, g2 = cert.generator_pair
    _, r1, _ = is_primitive(gp, g1)
    _, r2, _ = is_primitive(gp, g2)
    assert r1.letters != r2.letters


def test_generator_pair_sharing_a_first_letter_fails(gp, fixture_dir, monkeypatch, capsys):
    # a cycle C and its square CC pass every is_cyclic check, but they leave
    # their state by one letter: C^2 is a power of C's root, no certificate
    from stringalg.cli import main

    cycle = automaton_for(gp).branching_cycles()[0]
    monkeypatch.setattr(LetterAutomaton, "branching_cycles", lambda self: (cycle, cycle * 2))
    with pytest.raises(VerificationError, match="one letter"):
        classify(gp)
    assert main(["classify", str(fixture_dir / "gp.sba")]) == 3
    err = capsys.readouterr().err
    assert "certificate failed to verify" in err and "one letter" in err


def test_witness_triple_gp(gp):
    triple = find_witness_triple(gp, search_len=6)
    assert triple is not None
    triple.validate(gp)
    # xy and xz are not powers of the same word: last letters have
    # different directions
    assert triple.y.letters[-1].is_direct
    assert not triple.z.letters[-1].is_direct


def reference_witness_triple(p, search_len):
    """The triple search written from the definitions: x, y, z as letter
    tuples, in find_witness_triple's loop order, over the words listed by
    brute force, with every candidate yxy and zxz checked by is_word."""
    words = [w for w in brute_force_words(p, search_len) if not is_serial(Walk(w))]
    ys = [w for w in words if w[0].is_direct and w[-1].is_direct]
    zs = [w for w in words if not w[0].is_direct and not w[-1].is_direct]
    for total in range(6, 3 * search_len + 1):
        for x in words:
            if len(x) >= total - 3:
                continue
            for y in ys:
                rest = total - len(x) - len(y)
                if rest < 2 or not is_word(p, Walk(y + x + y))[0]:
                    continue
                for z in zs:
                    if len(z) == rest and is_word(p, Walk(z + x + z))[0]:
                        return x, y, z
    return None


def drawn_nondomestic_presentations(seed, count):
    """Non-domestic string presentations over F_23, drawn from a seeded
    generator: one to three vertices, two to four arrows, and up to four
    monomial relations of length two or three."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        vertices = tuple(str(i) for i in range(rng.randint(1, 3)))
        arrows = tuple(
            Arrow(f"x{i}", rng.choice(vertices), rng.choice(vertices))
            for i in range(rng.randint(2, 4))
        )
        relations = set()
        for _ in range(rng.randint(0, 4)):
            path = [rng.choice(arrows)]
            for _ in range(rng.randint(2, 3) - 1):
                successors = [a for a in arrows if a.source == path[-1].target]
                if not successors:
                    break
                path.append(rng.choice(successors))
            if len(path) >= 2:
                relations.add(tuple(a.name for a in path))
        p = Presentation(Quiver(vertices, arrows), tuple(sorted(relations)))
        if (validate_axioms(p).is_string and check_finite_dimensional(p)[0]
                and classify(p).verdict == "NonDomestic"):
            out.append(p.with_field(23))
    return out


def test_witness_triple_search_matches_is_word_reference():
    presentations = [GP.with_field(23), ND_TWO_LOOPS.with_field(23)]
    presentations += drawn_nondomestic_presentations(seed=1, count=30)
    found = {}
    for search_len in (4, 6, 7):
        for p in presentations:
            triple = find_witness_triple(p, search_len)
            got = None if triple is None else (triple.x.letters, triple.y.letters, triple.z.letters)
            assert got == reference_witness_triple(p, search_len)
            found[search_len] = found.get(search_len, 0) + (got is not None)
    # short searches miss some triples, longer ones find one everywhere
    assert 0 < found[4] < len(presentations)
    assert found[7] == len(presentations)


def test_witness_triple_a3_refused(a3):
    with pytest.raises(StringAlgError):
        find_witness_triple(a3, search_len=4)


def test_witness_triple_deterministic(gp):
    t1 = find_witness_triple(gp, search_len=6)
    t2 = find_witness_triple(gp, search_len=6)
    assert t1.x.letters == t2.x.letters
    assert t1.y.letters == t2.y.letters
    assert t1.z.letters == t2.z.letters


def test_build_witness_p11(gp):
    p23 = gp.with_field(23)
    triple = find_witness_triple(p23, search_len=6)
    result = build_witness(p23, triple, 11)
    assert result.summand_count == 11
    assert result.middle.total_dim == result.left_end.total_dim + result.right_end.total_dim
    result.sequence.verify()
    # all eleven summands are twelve dimensional
    assert sorted(sum(dv) for dv in result.summand_dimvecs) == [12] * 11
    # independent oracle: the random Fitting search finds the same split
    oracle = decompose(result.middle, seed=0)
    assert oracle.summand_count == 11
    vertices = p23.quiver.vertices
    assert sorted(tuple(s.dim(vx) for vx in vertices) for s in oracle.summands) == sorted(
        result.summand_dimvecs
    )
    # the sequence ends are indecomposable
    assert decompose(result.left_end, trials=15).summand_count == 1
    assert decompose(result.right_end, trials=15).summand_count == 1
    # u and v have the expected lengths
    n = (11 - 1) // 2
    block = len(triple.x.letters) * 2 + len(triple.y.letters) + len(triple.z.letters)
    assert len(result.u.letters) == n * block + len(triple.x.letters) + len(triple.y.letters)
    assert len(result.v.letters) == len(result.u.letters)


def test_witness_split_with_wrong_band_parameter_fails(gp, fixture_dir, monkeypatch, capsys):
    # node j of B(xyxz, zeta^-1, 1) goes to sum_k zeta^-k e_{j + k b}; with
    # the band parameter zeta instead, those maps are not module maps
    import importlib

    from stringalg.cli import main

    def band_with_zeta(p, w, lam, n):
        return band_module(p, w, pow(lam, -1, p.q), n)

    # the package re-exports the function classify under the module's name
    monkeypatch.setattr(importlib.import_module("stringalg.classify"), "band_module", band_with_zeta)
    p23 = gp.with_field(23)
    triple = find_witness_triple(p23, search_len=6)
    with pytest.raises(VerificationError, match="does not commute"):
        build_witness(p23, triple, 11)
    code = main(["witness", str(fixture_dir / "gp.sba"), "--p", "11", "--q", "23"])
    assert code == 3
    assert "certificate failed to verify" in capsys.readouterr().err


def test_witness_split_with_repeated_root_fails(gp, monkeypatch):
    # p copies of one verified embedding have one image, so the stacked
    # images are not of full rank and the middle is not their direct sum
    import importlib

    module = importlib.import_module("stringalg.classify")
    roots = module._roots_of_x_p_plus_1
    monkeypatch.setattr(module, "_roots_of_x_p_plus_1", lambda p, q: roots(p, q)[:1] * p)
    p23 = gp.with_field(23)
    triple = find_witness_triple(p23, search_len=6)
    with pytest.raises(VerificationError, match="do not split"):
        build_witness(p23, triple, 11)


def test_witness_split_with_one_repeated_root_fails(gp, monkeypatch):
    # the last root replaced by the one before it: the stacked images fall
    # short of full rank by a single block, which the rank must still find
    import importlib

    module = importlib.import_module("stringalg.classify")
    roots = module._roots_of_x_p_plus_1
    monkeypatch.setattr(module, "_roots_of_x_p_plus_1",
                        lambda p, q: roots(p, q)[:-1] + roots(p, q)[-2:-1])
    p23 = gp.with_field(23)
    triple = find_witness_triple(p23, search_len=6)
    with pytest.raises(VerificationError, match="do not split"):
        build_witness(p23, triple, 11)


def _glue_bands_quoted(p, triple, prime_p):
    """Direct sum B(u) + B(v) with two modified actions along chosen factor
    occurrences: i1 . beta = i2 + j1 and i2 . delta = -j2 (u block first)."""
    q = p.q
    n = (prime_p - 1) // 2
    x, y, z = triple.x.letters, triple.y.letters, triple.z.letters
    block = x + y + x + z
    u_letters = block * n + x + y
    v_letters = x + z + block * n
    band_u = cyclic_recipe_module(p, u_letters, 1, 1)
    band_v = cyclic_recipe_module(p, v_letters, 1, 1)

    def factor_at(host, pattern):
        return next(
            i for i in range(len(host) - len(pattern) + 1)
            if host[i : i + len(pattern)] == pattern
        )

    def places(letters):
        return _nodes_to_indices(p, [letter_source(p, l) for l in letters])[1]

    beta, delta = y[-1], z[-1]
    iu = factor_at(u_letters, (delta,) + x + (y[0],))
    iv = factor_at(v_letters, (beta,) + x + (z[0],))
    i1, i2 = iv, (iv + 1) % len(v_letters)
    j1, j2 = (iu + 1) % len(u_letters), iu
    u_place, v_place = places(u_letters), places(v_letters)
    dims = {vx: band_u.dim(vx) + band_v.dim(vx) for vx in p.quiver.vertices}
    mats = {}
    for a in p.quiver.arrows:
        du_s, du_t = band_u.dim(a.source), band_u.dim(a.target)
        m = np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
        m[:du_s, :du_t] = band_u.mats[a.name].a
        m[du_s:, du_t:] = band_v.mats[a.name].a
        mats[a.name] = m
    # i1 . beta gains the extra image j1 in the u block
    (vx1, c1), (_, d1) = v_place[i1], u_place[j1]
    row = band_u.dim(vx1) + c1
    mats[beta.arrow][row, d1] = (mats[beta.arrow][row, d1] + 1) % q
    # i2 . delta, which vanished, is redefined to -j2
    (vx2, c2), (_, d2) = v_place[i2], u_place[j2]
    row = band_u.dim(vx2) + c2
    assert not mats[delta.arrow][row].any()
    mats[delta.arrow][row, d2] = q - 1
    return make_representation(p, dims, {k: Matrix(m, q) for k, m in mats.items()})


def test_quoted_band_gluing_is_indecomposable(gp):
    # the literal two-entry gluing of the bands is a verified extension of
    # B(v) by B(u) whose middle does not decompose; this is why the witness
    # middle is built on the cut uv cycle instead
    p7 = gp.with_field(7)
    triple = find_witness_triple(p7, search_len=6)
    glued = _glue_bands_quoted(p7, triple, 3)
    assert glued.total_dim == 36
    assert decompose(glued, trials=12).summand_count == 1


def test_build_witness_field_preconditions(gp):
    triple_words = find_witness_triple(gp.with_field(23), search_len=6)
    with pytest.raises(StringAlgError):
        build_witness(gp, triple_words, 11)  # 32003 != 1 mod 22
    with pytest.raises(StringAlgError):
        build_witness(gp.with_field(23), triple_words, 7)  # prime too small
