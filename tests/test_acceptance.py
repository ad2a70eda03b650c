"""Acceptance criteria, one test per criterion, all exact.

Each test prints a single PASS line on success so a verbose run reads as a
checklist.  Shared heavy artifacts (pair scans) are session fixtures.
"""

import itertools
import math
import random
import time

import pytest
from test_artheory import ar_modules

from stringalg.artheory import (
    catalog_for,
    delta_count_formula,
    hom_leq,
    riedtmann_witness,
)
from stringalg.classify import build_witness, classify, find_witness_triple
from stringalg.decomp import catalog_decompose, decompose
from stringalg.homalg import ext1_dim, hom_dim, middle_census, projective_cover
from stringalg.reps import direct_sum, load_module_literal, simple
from stringalg.verify import _direct_sums_up_to, middle_term_scan
from stringalg.words import Verdict, fine_wolf_common_power
from stringalg.words import is_primitive


def _announce(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def pair_scan(a3, a3nr):
    """Ordered pairs of catalog direct sums of dimension at most 8 with
    equal dimension vectors, per presentation, with summand counts.

    Each sum is built from the parts degeneration_scan enumerates.  The
    counts come from decompose; each must equal the number of parts, which
    is the count degeneration_scan reports."""
    out = {}
    for name, p in (("a3", a3), ("a3nr", a3nr)):
        cat = catalog_for(p)
        sums = [
            (label, direct_sum([cat.entries[i].rep for i in parts], label=label), len(parts))
            for label, parts in _direct_sums_up_to(cat, 8)
        ]
        counts = {label: decompose(m, seed=1).summand_count for label, m, _ in sums}
        for label, _, parts in sums:
            assert counts[label] == parts, f"{name}: decompose({label}) != {parts}"
        groups = {}
        for label, m, _ in sums:
            key = tuple(sorted(m.dimension_vector().items()))
            groups.setdefault(key, []).append((label, m))
        true_pairs = []
        pair_total = 0
        for group in groups.values():
            for (la, ma), (lb, mb) in itertools.product(group, repeat=2):
                pair_total += 1
                ok, _ = hom_leq(ma, mb)
                if ok:
                    true_pairs.append((la, ma, lb, mb))
        out[name] = dict(cat=cat, sums=sums, counts=counts,
                         true_pairs=true_pairs, pair_total=pair_total)
    return out


def test_criterion_1_middle_bound(a3, a3nr):
    t0 = time.time()
    total_pairs = 0
    for p in (a3, a3nr):
        report = middle_term_scan(p, max_dim=4, seed=0)
        assert report.ok, f"violations: {report.violations}"
        assert report.pair_count > 0
        total_pairs += report.pair_count
        for finding in report.findings:
            assert max(finding.histogram) <= 2
    elapsed = time.time() - t0
    assert elapsed < 60
    _announce(1, f"every extension middle over a3/a3nr has <= 2 summands "
                 f"({total_pairs} censused pairs, {elapsed:.1f}s)")


def test_criterion_2_d4_necessity(d4sub, fixture_dir):
    t0 = time.time()
    m = load_module_literal(d4sub, fixture_dir / "d4sub_m2111.mod")
    s0 = simple(d4sub, "0")
    assert d4sub.field_order == 5
    assert ext1_dim(m, s0) == 2
    census = middle_census(projective_cover(m), s0, seed=0)
    assert len(census.lines) == 6
    assert census.histogram == {2: 3, 3: 3}
    elapsed = time.time() - t0
    assert elapsed < 10
    _announce(2, f"d4sub census over F_5: ext dim 2, middles {{2:3, 3:3}} ({elapsed:.1f}s)")


def test_criterion_3_summand_count_order(pair_scan):
    t0 = time.time()
    checked = 0
    for name, data in pair_scan.items():
        counts = data["counts"]
        for la, ma, lb, mb in data["true_pairs"]:
            assert counts[la] <= counts[lb], f"{name}: |{la}| > |{lb}| despite hom_leq"
            formula = delta_count_formula(ma, mb)
            assert formula == counts[lb] - counts[la]
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    _announce(3, f"summand counts ordered and the accounting formula exact on "
                 f"{checked} hom-ordered pairs ({elapsed:.1f}s)")


def test_criterion_4_riedtmann_identity(pair_scan):
    checked = 0
    for name, data in pair_scan.items():
        for la, ma, lb, mb in data["true_pairs"]:
            wit = riedtmann_witness(ma, mb)  # raises on identity failure
            assert wit.verified
            checked += 1
    _announce(4, f"hom-count identity of the witness triple verified on {checked} pairs")


def test_criterion_5_ar_certification(a3, a3nr):
    sequences = 0
    for p in (a3, a3nr):
        cat = catalog_for(p)
        for e in cat.nonprojective():
            seq = cat.ar_sequence(e)
            assert seq.middle_summand_count <= 2
            # re-verify the defect identity here, from scratch, on modules
            # built from the sequence's members
            tau, middle, target = ar_modules(cat, seq)
            for u in cat.entries:
                val = (
                    hom_dim(u.rep, tau)
                    - hom_dim(u.rep, middle)
                    + hom_dim(u.rep, target)
                )
                assert val == (1 if u.index == e.index else 0)
            sequences += 1
    _announce(5, f"defect identity and middle bound hold for all {sequences} "
                 f"almost-split sequences over a3/a3nr")


def test_criterion_6_nondomestic_witness(gp):
    for prime_p, q, budget in ((11, 23, 120), (13, 53, 120), (17, 103, 120)):
        t0 = time.time()
        pres = gp.with_field(q)
        triple = find_witness_triple(pres, search_len=6)
        result = build_witness(pres, triple, prime_p)
        result.sequence.verify()
        assert result.summand_count == prime_p
        assert is_primitive(pres, result.u)[0] and is_primitive(pres, result.v)[0]
        assert result.middle.total_dim == result.left_end.total_dim + result.right_end.total_dim
        elapsed = time.time() - t0
        assert elapsed < budget
        print(f"  witness p={prime_p} q={q}: {result.summand_count} summands "
              f"({elapsed:.1f}s)")
    _announce(6, "witness extensions decompose into exactly 11, 13 and 17 summands")


def test_criterion_7_classification(a3, a3nr, kronecker, gp):
    for p in (a3, a3nr):
        assert classify(p).verdict == "Finite"
    cert_k = classify(kronecker)
    assert cert_k.verdict == "Domestic"
    assert cert_k.band_witness is not None
    assert cert_k.generator_pair is None
    cert_gp = classify(gp)
    assert cert_gp.verdict == "NonDomestic"
    g1, g2 = cert_gp.generator_pair
    _, r1, _ = is_primitive(gp, g1)
    _, r2, _ = is_primitive(gp, g2)
    assert r1.letters != r2.letters
    _announce(7, "classification: Finite (a3, a3nr), Domestic (kronecker, exact), "
                 "NonDomestic (gp, distinct generator roots)")


def test_criterion_8_fine_wolf_suite():
    t0 = time.time()

    def common_prefix(s, t):
        n = 0
        for a, b in zip(s, t):
            if a != b:
                break
            n += 1
        return n

    def primitive_root(s):
        for d in range(1, len(s) + 1):
            if len(s) % d == 0 and s[:d] * (len(s) // d) == s:
                return s[:d]
        return s

    rng = random.Random(8)
    for _ in range(10_000):
        base = "".join(rng.choice("uv") for _ in range(rng.randrange(1, 5)))
        xx = base * rng.randrange(1, 4)
        yy = base * rng.randrange(1, 4)
        threshold = len(xx) + len(yy) - math.gcd(len(xx), len(yy))
        xp = xx * (threshold // len(xx) + 1)
        yp = yy * (threshold // len(yy) + 1)
        assert common_prefix(xp, yp) >= threshold
        assert fine_wolf_common_power(xx, yy, threshold) is Verdict.FORCED_COMMON_ROOT

    words = []
    for n in range(1, 7):
        words.extend("".join(t) for t in itertools.product("uv", repeat=n))
    at_threshold_cases = 0
    for xx in words:
        for yy in words:
            threshold = len(xx) + len(yy) - math.gcd(len(xx), len(yy))
            reps = threshold // min(len(xx), len(yy)) + 2
            shared = common_prefix(xx * reps, yy * reps)
            verdict = fine_wolf_common_power(xx, yy, shared)
            if shared >= threshold:
                # at-threshold shared prefixes force a common root
                assert primitive_root(xx) == primitive_root(yy)
                assert verdict is Verdict.FORCED_COMMON_ROOT
                at_threshold_cases += 1
            else:
                # no false positive below the threshold
                assert verdict is Verdict.INCONCLUSIVE
    elapsed = time.time() - t0
    assert elapsed < 30
    assert at_threshold_cases > 0
    _announce(8, f"periodicity threshold exact on 10^4 random and {len(words)}^2 "
                 f"exhaustive cases ({elapsed:.1f}s)")


def test_criterion_9_oracle_agreement(a3):
    cat = catalog_for(a3)
    reps = [e.rep for e in cat.entries]
    hom_matrix = [[cat.hom[i][j] for j in range(len(reps))] for i in range(len(reps))]
    rng = random.Random(90)
    for _ in range(100):
        picks = [rng.randrange(len(reps)) for _ in range(rng.randrange(1, 6))]
        m = direct_sum([reps[i] for i in picks])
        las_vegas = decompose(m, seed=3).summand_count
        mults = catalog_decompose(m, reps, hom_matrix)
        assert las_vegas == sum(mults) == len(picks)
    _announce(9, "decompose and catalog_decompose agree on 100 seeded direct sums")
