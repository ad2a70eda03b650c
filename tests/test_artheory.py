import gc
import itertools
import random
import re
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings
from test_letter_automaton import presentations

from perfbench.census_gen import census_inputs, type_a_presentation
from perfbench.workloads import CENSUS_N, CENSUS_RELATION_P, CENSUS_WEIGHT
from stringalg import artheory
from stringalg.artheory import (
    Catalog,
    ar_sequence,
    catalog_for,
    delta_count_formula,
    enumerate_indecomposables,
    finite_type_catalog,
    hom_delta,
    hom_leq,
    riedtmann_witness,
)
from stringalg.cli import main
from stringalg.decomp import decompose
from stringalg.errors import InfiniteTypeError, StringAlgError, VerificationError
from stringalg.homalg import Intertwiner, ShortExactSequence, hom_dim
from stringalg.linalg import Matrix
from stringalg.presentation import load_presentation, parse_presentation
from stringalg.reps import direct_sum, projective, simple
from stringalg.tablemaps import coordinates
from stringalg.verify import DegenerationRow, _direct_sums_up_to, degeneration_scan
from stringalg.words import format_walk, inverse, parse_word


def ar_modules(cat, seq):
    """tau V, the middle E and V of an almost-split sequence as modules,
    built from its member indices."""
    rep = [e.rep for e in cat.entries]
    return rep[seq.tau_member], direct_sum([rep[i] for i in seq.middle_members]), rep[seq.target_member]


def ar_exact_sequence(cat, seq):
    """The sequence on those modules, its two certified stacks cut vertex by
    vertex, for ShortExactSequence.verify to check independently."""
    tau, middle, target = ar_modules(cat, seq)
    incl, proj = seq.stacks

    def cut(a, rows, cols):
        return {v: Matrix(a[coordinates(cat, rows, j)][:, coordinates(cat, cols, j)], cat.p.q)
                for j, v in enumerate(cat.p.quiver.vertices)}

    return ShortExactSequence(
        tau, middle, target,
        Intertwiner(tau, middle, cut(incl, [seq.tau_member], seq.middle_members)),
        Intertwiner(middle, target, cut(proj, seq.middle_members, [seq.target_member])),
    )


def test_catalog_a3(a3):
    cat = catalog_for(a3)
    assert len(cat) == 5
    texts = {format_walk(e.word) for e in cat.entries}
    assert texts == {"e(1)", "e(2)", "e(3)", "a", "b"}
    projectives = {format_walk(e.word) for e in cat.entries if e.index in cat.projectives}
    assert projectives == {"a", "b", "e(3)"}


def test_catalog_a3nr(a3nr):
    cat = catalog_for(a3nr)
    assert len(cat) == 6
    projectives = {format_walk(e.word) for e in cat.entries if e.index in cat.projectives}
    assert projectives == {"a b", "b", "e(3)"}


@pytest.mark.parametrize("name", ["a3.sba", "a3nr.sba", "census_typeA_seed1_04.sba"])
def test_projectives_read_off_the_table_match_solved_columns(name, fixture_dir):
    # oracle: build P(v) from its paths and solve Hom(X, P(v)) for every
    # member X; exactly one member marked projective has that column
    p = load_presentation(fixture_dir / name)
    cat = catalog_for(p)
    assert len(cat.projectives) == len(p.quiver.vertices)
    for v in p.quiver.vertices:
        column = cat.hom_into(projective(p, v))
        marked = [i for i in cat.projectives if [row[i] for row in cat.hom] == column]
        assert len(marked) == 1, v


def pairwise_graph_maps(C, c_nodes, readings):
    """The graph maps M(C) -> M(D) found pair by pair, as (reading, s, t, m)
    in order, the oracle of the catalog's substring index.  readings holds D
    and its inverse, each with D's nodes in that reading: a walk E of length
    m sits at node s of C as a factor string, with no letter of C pointing
    into it, and at node t of that reading as a substring, with no letter
    of it pointing out of E.  A trivial E is read in D only."""
    c, n = C.letters, len(C)
    out = []
    for flip, (d, nodes) in enumerate(readings):
        e, k = d.letters, len(d)
        for s in range(n + 1):
            if s and c[s - 1].is_direct:
                continue  # the letter left of node s points into it
            for t in range(k + 1):
                if (t and not e[t - 1].is_direct) or c_nodes[s][0] != nodes[t][0]:
                    continue  # node t points out of the reading along the letter left of it
                m = 0
                while True:
                    if (
                        m >= flip
                        and (s + m == n or c[s + m].is_direct)
                        and (t + m == k or not e[t + m].is_direct)
                    ):
                        out.append((flip, s, t, m))
                    if s + m == n or t + m == k or c[s + m] != e[t + m]:
                        break
                    m += 1
    return out


def check_keys_against_pairwise(cat):
    """The catalog's graph maps, pair by pair and in order, against the
    pairwise enumeration; returns the number of maps."""
    for u in cat.entries:
        for y in cat.entries:
            readings = ((y.word, y.nodes), (inverse(y.word), y.nodes[::-1]))
            assert cat.hom_keys[u.index][y.index] == pairwise_graph_maps(u.word, u.nodes, readings)
    return sum(map(sum, cat.hom))


def zigzag(n):
    """A_n with alternating orientation and no relations."""
    arrows = "".join(
        f"arrow: a{i} {i} {i + 1}\n" if i % 2 else f"arrow: a{i} {i + 1} {i}\n" for i in range(1, n)
    )
    return parse_presentation(f"vertices: {' '.join(map(str, range(1, n + 1)))}\n{arrows}")


def test_graph_map_index_matches_the_pairwise_enumeration(fixture_dir):
    cats = [finite_type_catalog(load_presentation(path)) for path in sorted(fixture_dir.glob("*.sba"))]
    cats = [cat for cat in cats if cat is not None]
    assert len(cats) == 5  # a3, a3nr, census_typeA_seed1_04, loop_arrow, zigzag_a20
    for seed in (1, 2, 3):
        for _, text in census_inputs(seed, CENSUS_N, CENSUS_RELATION_P, CENSUS_WEIGHT):
            cats.append(catalog_for(parse_presentation(text)))
    cats.append(catalog_for(zigzag(12)))
    assert len(cats[-1]) == 78
    for cat in cats:
        assert check_keys_against_pairwise(cat)


def test_graph_map_index_matches_the_pairwise_enumeration_on_drawn_presentations():
    loops = []

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(presentations(min_arrows=1, string_only=True))
    def check(p):
        cat = finite_type_catalog(p)
        assume(cat is not None)
        assert check_keys_against_pairwise(cat)
        loops.append(any(a.source == a.target for a in p.quiver.arrows))

    check()
    assert any(loops)


def _edit_graph_maps(monkeypatch, edit):
    """Every catalog built from now on takes edit(C, D, keys) as the graph
    maps M(C) -> M(D), where keys is the (reading, s, t, m) list that
    Catalog._graph_map_keys reads off the index for that pair."""
    original = Catalog._graph_map_keys
    monkeypatch.setattr(
        Catalog,
        "_graph_map_keys",
        lambda cat, u, images: [
            edit(u.word, y.word, keys) for y, keys in zip(cat.entries, original(cat, u, images))
        ],
    )


def test_catalog_refuses_a_table_without_the_projective_rows(a3, monkeypatch):
    # one dimension short on the diagonal: no row is the dimensions at a vertex
    _edit_graph_maps(monkeypatch, lambda c, d, keys: keys[1:] if c == d else keys)
    with pytest.raises(VerificationError, match="projective at 1 matched 0 catalog entries"):
        Catalog(a3)


def test_catalog_refuses_a_row_with_a_map_that_is_not_a_module_map(a3, monkeypatch):
    # E = e(2) at node 1 of a is not a factor string, since the letter a
    # points into that node: M(a) -> S(2) sending node 1 to the simple
    # does not commute with a, and the arrow check of row a catches it
    s2, a = parse_word(a3, "e(2)"), parse_word(a3, "a")
    _edit_graph_maps(monkeypatch, lambda c, d, keys: keys + [(1, 1, 0, 0)] if (c, d) == (a, s2) else keys)
    with pytest.raises(VerificationError, match=r"row M\(a\) of the Hom table does not commute with arrow a"):
        Catalog(a3)


@pytest.mark.parametrize(
    "source, target, edit, message",
    [
        # no map from S(2) into M(a) = I(2): the column of I(2) is one short
        # of the dimensions at 2, while every projective row is intact
        ("e(2)", "a", lambda keys: [], "injective at 2 matched 0 catalog entries"),
        # the identity of M(a) listed twice: the row commutes, its basis does not
        ("a", "a", lambda keys: keys * 2, r"graph maps M\(a\) -> M\(a\) are dependent"),
        # S(2) is neither projective nor injective, so without its identity
        # it passes the Yoneda checks and fails the defect identity at S(2)
        ("e(2)", "e(2)", lambda keys: [], r"defect identity fails at U=M\(e\(2\)\)"),
    ],
)
def test_catalog_refuses_a_table_entry_of_the_wrong_dimension(a3, monkeypatch, source, target, edit, message):
    pair = (parse_word(a3, source), parse_word(a3, target))
    _edit_graph_maps(monkeypatch, lambda c, d, keys: edit(keys) if (c, d) == pair else keys)
    with pytest.raises(VerificationError, match=message):
        Catalog(a3)


def test_catalog_refuses_infinite_type(gp, kronecker):
    for p in (gp, kronecker):
        with pytest.raises(InfiniteTypeError) as err:
            Catalog(p)
        assert err.value.band_witness


def test_enumerate_indecomposables(a3):
    cat3 = enumerate_indecomposables(a3, 3)
    assert len(cat3) == 5
    cat1 = enumerate_indecomposables(a3, 1)
    assert len(cat1) == 3  # the three simples


def test_ar_sequence_s1_a3(a3):
    seq = ar_sequence(a3, parse_word(a3, "e(1)"))
    assert format_walk(seq.tau_word) == "e(2)"
    assert seq.middle_summand_count == 1
    assert [format_walk(w) for w in seq.middle_words] == ["a"]
    ar_exact_sequence(catalog_for(a3), seq).verify()


def test_ar_sequence_s2_a3(a3):
    seq = ar_sequence(a3, parse_word(a3, "e(2)"))
    assert format_walk(seq.tau_word) == "e(3)"
    assert [format_walk(w) for w in seq.middle_words] == ["b"]


def test_ar_sequence_s1_a3nr(a3nr):
    # middle is the length-one string module, translate the simple at 2;
    # certified by the defect identity rather than asserted shape
    seq = ar_sequence(a3nr, parse_word(a3nr, "e(1)"))
    assert format_walk(seq.tau_word) == "e(2)"
    assert seq.middle_summand_count == 1
    assert ar_modules(catalog_for(a3nr), seq)[1].dimension_vector() == {"1": 1, "2": 1, "3": 0}


def test_ar_sequence_interval_a3nr(a3nr):
    # the almost-split sequence ending at M(a) has a two-summand middle
    seq = ar_sequence(a3nr, parse_word(a3nr, "a"))
    assert format_walk(seq.tau_word) == "b"
    assert seq.middle_summand_count == 2
    mids = sorted(format_walk(w) for w in seq.middle_words)
    assert mids == ["a b", "e(2)"]


def test_ar_rejects_projective(a3):
    with pytest.raises(StringAlgError):
        ar_sequence(a3, parse_word(a3, "a"))  # M(a) = P1 over a3


def test_ar_middles_bounded(a3, a3nr):
    for p in (a3, a3nr):
        cat = catalog_for(p)
        for e in cat.nonprojective():
            seq = cat.ar_sequence(e)
            assert seq.middle_summand_count <= 2


def test_defect_identity_explicit(a3nr):
    # recompute the defect identity directly from hom dimensions
    cat = catalog_for(a3nr)
    for e in cat.nonprojective():
        tau, middle, target = ar_modules(cat, cat.ar_sequence(e))
        for u in cat.entries:
            val = (
                hom_dim(u.rep, tau)
                - hom_dim(u.rep, middle)
                + hom_dim(u.rep, target)
            )
            assert val == (1 if u.word == e.word else 0)


def test_ar_sequences_nonsplit(a3, a3nr):
    # middle never isomorphic to tau + target: summand counts differ
    for p in (a3, a3nr):
        cat = catalog_for(p)
        for e in cat.nonprojective():
            tau, middle, target = ar_modules(cat, cat.ar_sequence(e))
            split_count = decompose(direct_sum([tau, target])).summand_count
            assert decompose(middle).summand_count < split_count or (
                hom_dim(target, middle) < hom_dim(
                    target, direct_sum([tau, target])
                )
            )


def test_hom_leq_reflexive(a3):
    p1 = projective(a3, "1")
    ok, delta = hom_leq(p1, p1)
    assert ok and all(x == 0 for x in delta)


def test_hom_leq_example(a3):
    p1 = projective(a3, "1")
    split = direct_sum([simple(a3, "1"), simple(a3, "2")])
    ok, delta = hom_leq(p1, split)
    assert ok
    assert any(x > 0 for x in delta)
    back, _ = hom_leq(split, p1)
    assert not back  # antisymmetry on non-isomorphic modules


def test_hom_leq_needs_equal_dimvec(a3):
    ok, _ = hom_leq(simple(a3, "1"), simple(a3, "2"))
    assert not ok


def test_riedtmann_witness_trivial(a3):
    p1 = projective(a3, "1")
    wit = riedtmann_witness(p1, p1)
    assert wit.verified
    assert wit.X.total_dim == wit.Y.total_dim == wit.Z.total_dim == 0


def test_riedtmann_witness_example(a3):
    p1 = projective(a3, "1")
    split = direct_sum([simple(a3, "1"), simple(a3, "2")])
    wit = riedtmann_witness(p1, split)
    assert wit.verified
    assert wit.X.total_dim > 0
    # summand-count ledger: |N| - |M| = |X| + |Z| - |Y|
    cm = decompose(p1).summand_count
    cn = decompose(split).summand_count
    cx = decompose(wit.X).summand_count if wit.X.total_dim else 0
    cy = decompose(wit.Y).summand_count if wit.Y.total_dim else 0
    cz = decompose(wit.Z).summand_count if wit.Z.total_dim else 0
    assert cn - cm == cx + cz - cy


def test_delta_formula_example(a3):
    p1 = projective(a3, "1")
    split = direct_sum([simple(a3, "1"), simple(a3, "2")])
    assert delta_count_formula(p1, split) == 1
    assert delta_count_formula(p1, p1) == 0


def test_delta_formula_exhaustive_small(a3):
    # every ordered pair of small direct sums with matching dimension vector:
    # the formula equals the summand-count difference whenever hom_leq holds
    cat = catalog_for(a3)
    reps = [e.rep for e in cat.entries]
    sums = []
    for picks in itertools.combinations_with_replacement(range(len(reps)), 2):
        sums.append(([p for p in picks], direct_sum([reps[i] for i in picks])))
    for (pa, ma), (pb, mb) in itertools.product(sums, repeat=2):
        ok, _ = hom_leq(ma, mb)
        if not ok:
            continue
        lhs = decompose(mb).summand_count - decompose(ma).summand_count
        assert delta_count_formula(ma, mb) == lhs
        assert decompose(ma).summand_count <= decompose(mb).summand_count


def test_hom_leq_transitive_sample(a3):
    cat = catalog_for(a3)
    reps = [e.rep for e in cat.entries]
    sums = [direct_sum([reps[i], reps[j]]) for i in range(5) for j in range(i, 5)]
    rel = []
    for i, ma in enumerate(sums):
        for j, mb in enumerate(sums):
            ok, _ = hom_leq(ma, mb)
            if ok:
                rel.append((i, j))
    relset = set(rel)
    for (i, j) in rel:
        for (j2, k) in rel:
            if j == j2:
                assert (i, k) in relset


def test_ar_sequences_on_source_quiver():
    # two arrows out of one vertex: translate words come out of the catalog
    # in the inverse orientation, exercising the node re-orientation path
    from stringalg.presentation import parse_presentation
    from stringalg.words import parse_word

    p = parse_presentation("vertices: 1 2 3\narrow: a 1 2\narrow: b 1 3")
    cat = catalog_for(p)
    assert len(cat) == 6
    seq = ar_sequence(p, parse_word(p, "e(1)"))
    assert seq.middle_summand_count == 2
    assert ar_modules(cat, seq)[0].dimension_vector() == {"1": 1, "2": 1, "3": 1}
    for e in cat.nonprojective():
        s = cat.ar_sequence(e)
        assert s.middle_summand_count <= 2


def test_catalog_dies_with_its_presentation(fixture_dir):
    p = load_presentation(fixture_dir / "a3nr.sba")
    catalog_for(p)
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_catalog_for_with_field_builds_a_new_catalog(a3nr):
    assert catalog_for(a3nr).p is a3nr
    assert catalog_for(a3nr.with_field(7)).p.field_order == 7


def test_direct_sum_profiles_match_solved_hom(a3, a3nr):
    # Catalog.profile adds columns of the hom table; build each sum and
    # solve its Hom systems directly as the oracle
    for p in (a3, a3nr):
        cat = catalog_for(p)
        for label, parts in _direct_sums_up_to(cat, 6):
            m = direct_sum([cat.entries[i].rep for i in parts])
            solved = [hom_dim(u.rep, m) for u in cat.entries]
            assert cat.profile(parts) == solved, label


def test_hom_into_a_member_reads_its_column(a3nr, monkeypatch):
    cat = catalog_for(a3nr)
    monkeypatch.setattr(artheory, "hom_basis", None)  # any solve would fail
    for e in cat.entries:
        assert cat.hom_into(e.rep) == [row[e.index] for row in cat.hom]


def test_degeneration_rows_match_the_module_api(fixture_dir):
    # oracle: build every sum and run the module-level hom order and
    # accounting formula, which solve the sums' Hom systems themselves;
    # loop_arrow's Auslander-Reiten quiver has oriented cycles
    for name, max_dim in (("a3", 6), ("a3nr", 6), ("loop_arrow", 6)):
        p = load_presentation(fixture_dir / f"{name}.sba")
        cat = catalog_for(p)
        built = {
            label: direct_sum([cat.entries[i].rep for i in parts])
            for label, parts in _direct_sums_up_to(cat, max_dim)
        }
        report = degeneration_scan(p, max_dim)
        assert report.ok and report.module_count == len(built)
        assert any(row.hom_leq and row.delta_formula for row in report.rows), name
        for row in report.rows:
            ma, mb = built[row.left_label], built[row.right_label]
            assert row.hom_leq == hom_leq(ma, mb)[0], (name, row.left_label, row.right_label)
            if row.hom_leq:
                assert row.delta_formula == delta_count_formula(ma, mb)
            else:
                assert row.delta_formula is None


def _pairwise_rows(p, max_dim):
    """The scan as a loop over ordered pairs, one pair at a time: profiles
    from Catalog.profile, deltas from hom_delta and the formula from
    Catalog.delta_formula."""
    cat = catalog_for(p)
    by_dimvec = {}
    for label, parts in _direct_sums_up_to(cat, max_dim):
        key = tuple(sum(cat.entries[i].rep.dim(v) for i in parts) for v in p.quiver.vertices)
        by_dimvec.setdefault(key, []).append((label, len(parts), cat.profile(parts)))
    rows = []
    for group in by_dimvec.values():
        for (la, ca, pa), (lb, cb, pb) in itertools.product(group, repeat=2):
            leq, delta = hom_delta(pa, pb)
            formula = cat.delta_formula(delta) if leq else None
            consistent = not leq or (ca <= cb and formula == cb - ca)
            rows.append(DegenerationRow(la, lb, leq, ca, cb, formula, consistent))
    return rows


def test_degeneration_rows_match_the_pairwise_loop(a3nr):
    rows = degeneration_scan(a3nr, 8).rows
    assert len(rows) == 3884
    assert rows == _pairwise_rows(a3nr, 8)
    # plain Python values, as the json output needs
    assert {type(x) for r in rows for x in (r.hom_leq, r.consistent)} == {bool}
    assert {type(r.delta_formula) for r in rows} == {int, type(None)}


def test_accounting_coefficients_build_only_the_sequences_asked_for(fixture_dir):
    p = load_presentation(fixture_dir / "loop_arrow.sba")
    cat = catalog_for(p)
    asked = [e.index for e in cat.nonprojective()][:2] + sorted(cat.projectives)[:1]
    coef = cat.accounting_coefficients(asked)
    assert sorted(cat._ar_cache) == asked[:2]
    for e in cat.entries:
        want = 2 - cat.ar_sequence(e).middle_summand_count if e.index in asked[:2] else 0
        assert coef[e.index] == want
    full = cat.accounting_coefficients(range(len(cat)))
    assert all(full[i] == 0 for i in cat.projectives)
    delta = [i % 3 for i in range(len(cat))]
    assert cat.delta_formula(delta) == sum(d * int(c) for d, c in zip(delta, full))


def test_almost_split_sequences_verify_on_drawn_type_a_presentations():
    # the second middle summand's map to V carries the sign -1; every
    # sequence over 30 drawn presentations must verify with that sign
    rng = random.Random("almost-split-signs")
    two_middles = 0
    for k in range(30):
        text, _ = type_a_presentation(rng, rng.randrange(3, 7), 0.4)
        p = parse_presentation(text).with_field((3, 5)[k % 2])
        cat = catalog_for(p)
        for e in cat.nonprojective():
            seq = cat.ar_sequence(e)
            ar_exact_sequence(cat, seq).verify()
            two_middles += seq.middle_summand_count == 2
            # the catalog holds both readings of a word, and either reading
            # names the sequence
            back = inverse(e.word)
            assert cat.reading(e.word) == (e.index, 0)
            assert cat.reading(back) == (e.index, 0 if e.word.is_trivial else 1)
            seq_back = ar_sequence(p, back)
            assert cat.lookup(seq_back.tau_word) is cat.lookup(seq.tau_word)
            assert [cat.lookup(m) for m in seq_back.middle_words] == [
                cat.lookup(m) for m in seq.middle_words
            ]
    assert two_middles > 0


def _second_projection_sign_kept(incl, proj):
    return incl, [(k, t, key, 1) for k, t, key, _ in proj]


def _key_one_node_off(incl, proj):
    (k, t, (flip, s, j, m), sign), *rest = incl
    return [(k, t, (flip, s, j + 1, m), sign), *rest], proj


@pytest.mark.parametrize("edit, message", [
    (_second_projection_sign_kept, "composite through the almost split sequence ending at M(a) is not zero"),
    (_key_one_node_off, "no graph map M(b) -> M(a b)"),
], ids=["sign-kept", "key-off"])
def test_a_faulty_almost_split_sequence_is_refused(edit, message, fixture_dir, monkeypatch, capsys):
    # the sequence ending at M(a) over a3nr has two middle summands; at F_3
    # the second projection needs its sign -1
    real = artheory.certify_sequence

    def edited(cat, left, middle, right, incl, proj, name):
        return real(cat, left, middle, right, *edit(incl, proj), name)

    monkeypatch.setattr(artheory, "certify_sequence", edited)
    p = load_presentation(fixture_dir / "a3nr.sba").with_field(3)
    cat = Catalog(p)
    with pytest.raises(VerificationError, match=re.escape(message)):
        cat.ar_sequence(cat.lookup(parse_word(p, "a")))
    assert main(["--field", "3", "ar", str(fixture_dir / "a3nr.sba"), "--word", "a"]) == 3
    err = capsys.readouterr().err
    assert "certificate failed to verify" in err and message in err


def test_a_bumped_hom_entry_fails_the_defect_identity(a3nr):
    cat = Catalog(a3nr)  # a fresh catalog: the shared one stays intact
    e = cat.nonprojective()[0]
    cat.hom[0][e.index] += 1
    with pytest.raises(VerificationError, match="defect identity fails"):
        cat.ar_sequence(e)


@pytest.mark.parametrize("name", ["a3nr.sba", "loop_arrow.sba"])
def test_surgery_runs_once_per_nonprojective_member(name, fixture_dir, monkeypatch):
    calls = []
    real = artheory._surgery

    def counted(cat, entry):
        calls.append(entry.index)
        return real(cat, entry)

    monkeypatch.setattr(artheory, "_surgery", counted)
    cat = Catalog(load_presentation(fixture_dir / name))
    for e in cat.nonprojective():
        cat.ar_sequence(e)
    assert sorted(calls) == [e.index for e in cat.nonprojective()]
