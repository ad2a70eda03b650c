"""Cross-module properties: isomorphism invariances and the subadditivity
of summand counts over extension middles."""

import itertools
import random

from stringalg.artheory import catalog_for, hom_leq
from stringalg.decomp import decompose
from stringalg.homalg import ext1, hom_dim, projective_cover
from stringalg.reps import band_module, direct_sum, string_module
from stringalg.words import (
    Walk,
    enumerate_words,
    inverse,
    is_cyclic,
    parse_word,
    word,
)


def hom_profile(probes, m):
    return [hom_dim(u, m) for u in probes]


def test_string_module_inversion_invariant(gp, a3nr):
    for p, texts in ((gp, ["a b^-1", "a b a^-1", "a b^-1 a b"]), (a3nr, ["a", "a b"])):
        probes = [string_module(p, w) for w in enumerate_words(p, 2)]
        for t in texts:
            w = parse_word(p, t)
            m1 = string_module(p, w)
            m2 = string_module(p, word(p, inverse(w)))
            assert hom_profile(probes, m1) == hom_profile(probes, m2)
            assert m1.dimension_vector() == m2.dimension_vector()


def test_band_rotation_inversion_invariant(gp):
    w = parse_word(gp, "a b a^-1 b^-1")
    assert is_cyclic(gp, w)
    probes = [string_module(gp, u) for u in enumerate_words(gp, 3)]
    base = band_module(gp, w, 2, 1)
    reference = hom_profile(probes, base)
    letters = w.letters
    for i in range(1, len(letters)):
        rot = Walk(letters[i:] + letters[:i])
        m = band_module(gp, rot, 2, 1)
        assert hom_profile(probes, m) == reference
    inv = word(gp, inverse(w))
    # the inverse band with inverted eigenvalue is the isomorphic one
    m_inv = band_module(gp, inv, pow(2, -1, gp.q), 1)
    assert hom_profile(probes, m_inv) == reference


def test_decompose_dimension_vectors_sum(a3):
    cat = catalog_for(a3)
    rng = random.Random(17)
    reps = [e.rep for e in cat.entries]
    for _ in range(20):
        picks = [rng.randrange(len(reps)) for _ in range(rng.randrange(1, 5))]
        m = direct_sum([reps[i] for i in picks])
        report = decompose(m, seed=11)
        total = {v: 0 for v in a3.quiver.vertices}
        for s in report.summands:
            for v, d in s.dimension_vector().items():
                total[v] += d
        assert total == m.dimension_vector()


def test_extension_count_subadditive_and_hom_ordered(a3, a3nr):
    # over finite-type fixtures every constructed extension middle satisfies
    # |E| <= |M| + |N| and E is hom-below the split sum
    for p in (a3, a3nr):
        cat = catalog_for(p)
        reps = [e.rep for e in cat.entries]
        for ma, mb in itertools.product(reps, repeat=2):
            ctx = ext1(projective_cover(ma), mb)
            if ctx.dim == 0:
                continue
            for coeffs in itertools.islice(
                itertools.product(range(p.q if p.q < 3 else 2), repeat=ctx.dim), 4
            ):
                if not any(coeffs):
                    continue
                ses = ctx.extension(coeffs)
                count_e = decompose(ses.middle, seed=5).summand_count
                count_split = (
                    decompose(ma, seed=5).summand_count
                    + decompose(mb, seed=5).summand_count
                )
                assert count_e <= count_split
                leq, _ = hom_leq(ses.middle, direct_sum([mb, ma]))
                assert leq
