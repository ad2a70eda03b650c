import random

import pytest

from stringalg.decomp import (
    _combination,
    _krylov_minpoly,
    _primary_components,
    _supports,
    catalog_decompose,
    decompose,
)
from stringalg.errors import CatalogError, StringAlgError
from stringalg.homalg import Intertwiner, hom_basis, hom_dim, zero_map
from stringalg.linalg import Matrix, Poly
from stringalg.reps import (
    band_module,
    cyclic_recipe_module,
    direct_sum,
    parse_module_literal,
    projective,
    simple,
    string_module,
)
from stringalg.words import parse_word


def a3_catalog(a3):
    words = ["e(1)", "e(2)", "e(3)", "a", "b"]
    return [string_module(a3, parse_word(a3, t)) for t in words]


def hom_table(catalog):
    return [[hom_dim(u, v) for v in catalog] for u in catalog]


def test_fitting_identity_gives_none(a3):
    p1 = projective(a3, "1")
    identity = {v: Matrix.identity(p1.dim(v), p1.q) for v in a3.quiver.vertices}
    assert _primary_components(p1, Intertwiner(p1, p1, identity)) is None


def test_fitting_projection_splits(a3):
    s1, s2 = simple(a3, "1"), simple(a3, "2")
    m = direct_sum([s1, s2])
    # projection onto the first summand
    proj = zero_map(m, m)
    proj.mats["1"] = Matrix([[1]], a3.q)
    split = _primary_components(m, proj)
    assert split is not None
    parts, _ = split
    assert [part.total_dim for part in parts] == [1, 1]
    assert sorted(part.dim("1") for part in parts) == [0, 1]


def test_fitting_rejects_non_endo(a3):
    s1, s2 = simple(a3, "1"), simple(a3, "2")
    with pytest.raises(StringAlgError):
        _primary_components(s1, zero_map(s1, s2))


def test_gp_imprimitive_square_splits_into_two_bands(gp):
    w = parse_word(gp, "a b^-1 a b^-1")
    m = cyclic_recipe_module(gp, w.letters, 1, 1)
    report = decompose(m)
    assert report.summand_count == 2
    root = parse_word(gp, "a b^-1")
    probes = [band_module(gp, root, lam, 1) for lam in (1, 2)] + [simple(gp, "v")]
    for s in report.summands:
        assert s.total_dim == 2


def test_string_modules_indecomposable(a3, gp):
    for p, texts in ((a3, ["a", "b", "e(1)"]), (gp, ["a", "a b^-1 a", "a b a^-1"])):
        for t in texts:
            m = string_module(p, parse_word(p, t))
            report = decompose(m)
            assert report.summand_count == 1
            assert "endo_local=yes" in report.certificates[0]


def test_band_modules_indecomposable(gp):
    w = parse_word(gp, "a b^-1")
    for n in (1, 2):
        report = decompose(band_module(gp, w, 1, n))
        assert report.summand_count == 1


def test_band_parameter_separation(gp, kronecker):
    # different eigenvalues give non-isomorphic bands: hom dimensions differ
    w = parse_word(gp, "a b^-1")
    b1 = band_module(gp, w, 1, 1)
    b2 = band_module(gp, w, 2, 1)
    # over gp a socle-to-top map survives between different eigenvalues,
    # but the self-hom count separates the isomorphism classes
    assert hom_dim(b1, b2) == 1
    assert hom_dim(b1, b1) == 2
    wk = parse_word(kronecker, "a b^-1")
    k1 = band_module(kronecker, wk, 1, 1)
    k2 = band_module(kronecker, wk, 2, 1)
    assert hom_dim(k1, k2) == 0
    assert hom_dim(k1, k1) == 1


def test_decompose_direct_sums_match_construction(a3):
    rng = random.Random(42)
    catalog = a3_catalog(a3)
    for _ in range(20):
        picks = [rng.randrange(len(catalog)) for _ in range(rng.randrange(1, 5))]
        m = direct_sum([catalog[i] for i in picks])
        report = decompose(m, seed=7)
        assert report.summand_count == len(picks)
        # multiset of dimension vectors agrees
        got = sorted(tuple(sorted(s.dimension_vector().items())) for s in report.summands)
        want = sorted(tuple(sorted(catalog[i].dimension_vector().items())) for i in picks)
        assert got == want


def test_decompose_report_lines_and_seed(a3):
    m = direct_sum([simple(a3, "1"), simple(a3, "1")])
    report = decompose(m, seed=123)
    assert report.seed == 123
    assert len(report.lines()) == 2
    assert all(line.startswith("summand") for line in report.lines())


def test_decompose_deterministic(a3):
    catalog = a3_catalog(a3)
    m = direct_sum([catalog[3], catalog[0], catalog[3]])
    r1 = decompose(m, seed=5)
    r2 = decompose(m, seed=5)
    assert [s.dimension_vector() for s in r1.summands] == [
        s.dimension_vector() for s in r2.summands
    ]
    assert r1.witnesses == r2.witnesses


def test_catalog_decompose_unit(a3):
    catalog = a3_catalog(a3)
    for i, m in enumerate(catalog):
        mults = catalog_decompose(m, catalog, hom_table(catalog))
        want = [0] * len(catalog)
        want[i] = 1
        assert mults == want


def test_catalog_decompose_p1_plus_s3(a3):
    catalog = a3_catalog(a3)
    m = direct_sum([catalog[3], catalog[2]])  # M(a) ~ P1 and S3
    mults = catalog_decompose(m, catalog, hom_table(catalog))
    assert mults == [0, 0, 1, 1, 0]


def test_catalog_decompose_incomplete_catalog(a3):
    catalog = a3_catalog(a3)[:4]
    m = direct_sum([string_module(a3, parse_word(a3, "b"))])
    with pytest.raises(CatalogError):
        catalog_decompose(m, catalog, hom_table(catalog))


def test_dual_oracle_agreement(a3):
    rng = random.Random(99)
    catalog = a3_catalog(a3)
    hom_matrix = hom_table(catalog)
    for _ in range(100):
        picks = [rng.randrange(len(catalog)) for _ in range(rng.randrange(1, 6))]
        m = direct_sum([catalog[i] for i in picks])
        mults = catalog_decompose(m, catalog, hom_matrix)
        assert sum(mults) == decompose(m, seed=1).summand_count == len(picks)


def test_hom_additive_over_summands(a3):
    catalog = a3_catalog(a3)
    m = direct_sum([catalog[0], catalog[3], catalog[4]])
    report = decompose(m, seed=2)
    for u in catalog:
        total = sum(hom_dim(u, s) for s in report.summands)
        assert hom_dim(u, m) == total


def test_zero_krylov_start_vector_is_skipped(kronecker):
    # over F_3 a random Krylov start vector on a (2,2) module is all zeros
    # with probability 1/81 per draw; its minimal polynomial is 1, not X.
    # This regular band module has End = F_9, so an extra factor X would
    # split off an empty primary component.
    p = kronecker.with_field(3)
    m = parse_module_literal(
        p, "module\ndim: 1=2 2=2\nmap: a 0 1; 1 0\nmap: b 1 2; 0 1\n"
    )
    assert hom_dim(m, m) == 2
    for seed in range(20):
        assert decompose(m, seed=seed).summand_count == 1


def _krylov_by_rank(M, f, rng):
    """Reference: each start vector's minimal polynomial found by re-ranking
    the whole Krylov matrix at every step, then their least common multiple."""
    q = M.q
    verts = [v for v in M.pres.quiver.vertices if M.dim(v)]
    lcm = Poly([1], q)
    for _ in range(3):
        w = {v: [rng.randrange(q) for _ in range(M.dim(v))] for v in verts}
        vec = Matrix([sum((w[v] for v in verts), [])], q)
        if vec.is_zero():
            continue
        rows = [vec.a[0]]
        cur = {v: Matrix([w[v]], q) for v in verts}
        while Matrix(rows, q).rank() == len(rows):
            cur = {v: cur[v] @ f.mats[v] for v in verts}
            rows.append(sum((list(cur[v].a[0]) for v in verts), []))
        d = len(rows) - 1
        sol = Matrix(rows[:d], q).solve_left(Matrix([rows[d]], q))
        m = Poly([-int(x) for x in sol.a[0]] + [1], q)
        lcm = lcm * m // lcm.gcd(m)
    return lcm


def test_krylov_minpoly_matches_rank_reference(a3, gp):
    band = band_module(gp, parse_word(gp, "a b a^-1 b^-1"), 2, 2)
    for m in (band, direct_sum(a3_catalog(a3) + [projective(a3, "1")])):
        endo = hom_basis(m, m)
        for seed in range(6):
            rng = random.Random(seed)
            f = _combination(m, _supports(endo), [rng.randrange(m.q) for _ in endo])
            want = _krylov_by_rank(m, f, random.Random(100 + seed))
            assert _krylov_minpoly(m, f, random.Random(100 + seed)) == want


def test_random_combination_matches_scaled_sum(a3, gp):
    band = band_module(gp, parse_word(gp, "a b a^-1 b^-1"), 2, 2)
    for m in (band, direct_sum(a3_catalog(a3))):
        endo = hom_basis(m, m)
        rng = random.Random(7)
        for _ in range(5):
            coeffs = [rng.randrange(m.q) for _ in endo]
            want = endo[0].scale(coeffs[0])
            for c, g in zip(coeffs[1:], endo[1:]):
                want = want.add(g.scale(c))
            got = _combination(m, _supports(endo), coeffs)
            assert got.source is m and got.target is m
            assert all(got.mats[v] == want.mats[v] for v in m.pres.quiver.vertices)
