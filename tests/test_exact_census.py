"""Exact census counts against the construction they replace.

On a finite-type string presentation middle_census counts the summands of
each extension middle from the long exact Hom sequence and builds no
middle.  The reference here is the old path: build each middle from its
cocycle with extension_of_cocycle, then decompose it.  On every line the
two counts must agree, and the middle's full profile dim Hom(E, -) over
the catalog, times the inverse of the hom table, must be a vector of
nonnegative integer multiplicities that sum to the count.  On the same
pairs the gate, the gate row of the scan's word covers and
cover.ext(N, hom) on solved ones, must give the dimension of the verified
Ext basis, and the scan's findings must be the reference census.  The
scan's covers are certified on graph maps of the table (Catalog.cover);
each must have the top of projective_cover, the table's sum over its
syzygy's summands must equal the solved dimension of Hom(syzygy, N), and
its certified maps, written out as stacks and cut into modules here, must
form a verified short exact sequence.
That certificate reads its checks off the maps' runs of nodes; it must
accept and refuse what its dense reference (dense_maps) does on real and
mutated sequences, and the reference's ranks, read off the stacks'
support, must agree with Matrix.rank.  The table
itself is written in graph maps; on every ordered pair of members it must
have the dimension of hom_basis and span the same space.  The extensions
the words list (wordext) must be as many as dim Ext^1 on every pair, each
certified, and at dimension 1 the certified middle must have the members
of the middle built from the cocycle.
"""

import random

import dense_maps
import numpy as np
import pytest
from dense_maps import support_rank
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_artheory import exact_sequence, verdict, zigzag
from test_homalg import check_ext_from_long_exact_sequence
from test_letter_automaton import presentations

import stringalg.artheory
import stringalg.cli
import stringalg.decomp
import stringalg.homalg
import stringalg.reps
import stringalg.tablemaps
import stringalg.verify
import stringalg.wordext
from perfbench.census_gen import census_inputs
from perfbench.workloads import CENSUS_N, CENSUS_RELATION_P, CENSUS_WEIGHT
from stringalg.artheory import Catalog, catalog_for, finite_type_catalog, row_text
from stringalg.cli import main
from stringalg.decomp import decompose
from stringalg.errors import VerificationError
from stringalg.homalg import (
    _hom_kernel,
    _hom_system,
    ext1,
    hom_basis,
    middle_census,
    projective_cover,
    projective_line_representatives,
)
from stringalg.linalg import Matrix
from stringalg.linalg import solve_rational
from stringalg.presentation import load_presentation, parse_presentation
from stringalg.reps import direct_sum
from stringalg.verify import middle_term_scan
from stringalg.wordext import WordExtension, certified_middle, word_extensions
from stringalg.words import format_walk, parse_word


def reference_census(cover, N, seed=0):
    """(coeffs, summands, middle) per line of P(Ext^1(M, N)), each middle
    built by extension_of_cocycle and counted by decompose."""
    ctx = ext1(cover, N)
    out = []
    for coeffs in projective_line_representatives(N.q, ctx.dim):
        middle = ctx.extension(coeffs).middle
        out.append((coeffs, decompose(middle, seed=seed).summand_count, middle))
    return out


def multiplicities(cat, m):
    """x with sum_i x_i hom[i][j] = dim Hom(m, member j) for every j."""
    profile = [len(hom_basis(m, e.rep)) for e in cat.entries]
    transposed = [list(col) for col in zip(*cat.hom)]
    return solve_rational(transposed, profile)


def check_pairs(cat):
    """Exact census against the reference on every ordered pair of members,
    and the extensions the words list against both: as many as dim Ext^1,
    each certified, and at dimension 1 the certified middle has the members
    of the middle that ext1 and extension_of_cocycle build.  Returns the
    Ext dimension and the reference histogram of every pair with
    extensions, by member indices."""
    found = {}
    for u in cat.entries:
        cover, gate = projective_cover(u.rep), cat.cover(u).gate_row()
        for y in cat.entries:
            M, N = u.rep, y.rep
            hom = len(hom_basis(M, N))
            # the gate verify-main-theorem runs, and the one on a solved cover,
            # against the verified ext1
            assert gate[y.index] == cover.ext(N, hom).dim == ext1(cover, N).dim
            census = middle_census(cover, N, hom)
            reference = reference_census(cover, N)
            assert [(l.coeffs, l.summands) for l in census.lines] == [
                (coeffs, count) for coeffs, count, _ in reference
            ]
            for line, (_, _, middle) in zip(census.lines, reference):
                mult = multiplicities(cat, middle)
                assert all(x.denominator == 1 and x >= 0 for x in mult)
                assert sum(mult) == line.summands
                assert line.dimvec == tuple(middle.dim(v) for v in N.pres.quiver.vertices)
            listed = word_extensions(cat, u.index, y.index)
            assert len(listed) == census.ext_dim
            counts = [certified_middle(cat, u.index, y.index, ext) for ext in listed]
            assert counts == [len(ext.middles) for ext in listed]
            if census.ext_dim == 1:
                assert members(cat, listed[0]) == multiplicities(cat, reference[0][2])
            if census.ext_dim:
                histogram = {}
                for _, count, _ in reference:
                    histogram[count] = histogram.get(count, 0) + 1
                found[u.index, y.index] = (census.ext_dim, histogram)
    return found


def members(cat, ext):
    """The multiplicity of every member in the middle of ext."""
    out = [0] * len(cat)
    for row in ext.middles:
        out[cat.reading(row)[0]] += 1
    return out


@pytest.mark.parametrize("name", ["a3", "a3nr"])
def test_exact_census_matches_reference_on_the_full_catalog(name, request):
    p = request.getfixturevalue(name)
    assert check_pairs(catalog_for(p))


@pytest.mark.parametrize("name", ["a3", "a3nr"])
def test_scan_at_max_dim_4_matches_reference(name, request):
    p = request.getfixturevalue(name)
    report = middle_term_scan(p, 4)
    labels = {f"M({format_walk(e.word)})": e.rep for e in catalog_for(p).entries}
    assert report.findings
    for f in report.findings:
        reference = reference_census(projective_cover(labels[f.left_label]), labels[f.right_label])
        histogram = {}
        for _, count, _ in reference:
            histogram[count] = histogram.get(count, 0) + 1
        assert (f.ext_dim, f.histogram) == (len(reference[0][0]), histogram)


def test_exact_census_matches_reference_on_census_fixture(fixture_dir):
    p = load_presentation(fixture_dir / "census_typeA_seed1_04.sba")
    assert check_pairs(catalog_for(p))


def test_exact_census_matches_reference_on_loop_arrow_over_f5(fixture_dir):
    p = load_presentation(fixture_dir / "loop_arrow.sba").with_field(5)
    assert sorted({dim for dim, _ in check_pairs(catalog_for(p)).values()}) == [1, 2]


def _listing(cat, left, right):
    """The extensions of M(left) by M(right) that the words list, each as
    the texts of its middle code rows and its certified summand count."""
    c, d = (cat.lookup(parse_word(cat.p, w)).index for w in (left, right))
    return [
        ([row_text(cat.automaton, x) for x in ext.middles], certified_middle(cat, c, d, ext))
        for ext in word_extensions(cat, c, d)
    ]


def test_a_trivial_overlap_is_tried_in_both_readings_of_the_left_word():
    # linear A4, 1 <- 2 <- 3 <- 4: M(a1^-1 a2^-1) and M(a3) overlap in e(3),
    # at node 0 of a3; the middle walks are words only with a3 read as
    # a3^-1, while the table lists a trivial E in the word a3 alone
    a4 = parse_presentation("vertices: 1 2 3 4\narrow: a1 2 1\narrow: a2 3 2\narrow: a3 4 3\n")
    assert _listing(catalog_for(a4), "a3", "a1^-1 a2^-1") == [(["a1^-1 a2^-1 a3^-1", "e(3)"], 2)]


def test_a_trivial_right_word_is_read_against_one_reading(fixture_dir):
    # both readings of a2 a3^-1 give the middle M(a3) + M(a2); it is listed once
    p = load_presentation(fixture_dir / "census_typeA_seed1_04.sba")
    assert _listing(catalog_for(p), "a2 a3^-1", "e(3)") == [(["a3^-1", "a2"], 2)]


def test_an_overlap_whose_middle_walk_is_no_word_is_dropped(fixture_dir, monkeypatch):
    # x0 x0 is a relation of loop_arrow, so the overlaps with the middle
    # walks x0 x0 and x1 x0 x0 are no extensions
    cat = catalog_for(load_presentation(fixture_dir / "loop_arrow.sba").with_field(5))
    overlapping, keys = [False], []
    original = Catalog.reading

    def reading(cat, key):
        if overlapping[0]:
            keys.append(key)
        return original(cat, key)

    class Overlaps(list):
        # word_extensions walks the graph maps it tries as overlaps after
        # its arrow candidates, so every reading asked for while they are
        # walked is an overlap's middle walk
        def __iter__(self):
            overlapping[0] = True
            yield from super().__iter__()
            overlapping[0] = False

    monkeypatch.setattr(Catalog, "reading", reading)
    monkeypatch.setattr(cat, "hom_keys", [[Overlaps(maps) for maps in row] for row in cat.hom_keys])
    two = []
    for u in cat.entries:
        gate = cat.cover(u).gate_row()
        for y in cat.entries:
            dim = gate[y.index]
            assert len(word_extensions(cat, u.index, y.index)) == dim
            if dim == 2:
                two.append((format_walk(u.word), format_walk(y.word)))
    assert {"x0 x0", "x1 x0 x0"} <= {row_text(cat.automaton, key) for key in keys}
    assert two == [("e(1)", "x0"), ("x1 x0 x1^-1", "x0")]
    assert _listing(cat, "x1 x0 x1^-1", "x0") == [
        (["x0 x1^-1", "x1 x0"], 2), (["x0^-1 x1^-1", "x1 x0"], 2)
    ]


def check_word_covers(cat):
    """Each member's cover, certified on graph maps of the table, against
    projective_cover: the same top, and a syzygy with the members of the
    solved one, since the table's sum over its summands equals the solved
    dimension of Hom(syzygy, N) at every member N and no two members share
    a column of the table.  The certified incl and epi, written out as
    stacks and cut into modules, pass ShortExactSequence.verify."""
    for m in cat.entries:
        word, solved = cat.cover(m), projective_cover(m.rep)
        assert word.top == solved.top
        for n in cat.entries:
            table = sum(cat.hom[i][n.index] for i in word.syzygy_parts)
            assert table == len(_hom_kernel(solved.syzygy, n.rep)[1])
        exact_sequence(cat, word.syzygy_parts, word.cover_parts, [m.index], word.incl, word.epi).verify()


def check_graph_map_table(cat):
    """The table's graph maps against hom_basis on every ordered pair: the
    same dimension, and the graph maps stacked alone and over the solved
    basis both have rank that dimension, so the two bases span one space."""
    for u in cat.entries:
        for y in cat.entries:
            table, solved = cat.basis(u.index, y.index), hom_basis(u.rep, y.rep)
            assert len(table) == len(solved) == cat.hom[u.index][y.index]
            if table:
                rows = [f.flatten() for f in table]
                assert Matrix(np.array(rows), cat.p.q).rank() == len(table)
                both = np.array(rows + [f.flatten() for f in solved])
                assert Matrix(both, cat.p.q).rank() == len(table)


def small_fixture_catalogs(fixture_dir):
    """The catalogs of the finite-type fixtures but the zigzags A20 and A30,
    whose 44 100 and 216 225 pairs are left to the index oracle and the CI
    scans: a3, a3nr, census_typeA_seed1_04 and loop_arrow."""
    cats = [finite_type_catalog(load_presentation(path))
            for path in sorted(fixture_dir.glob("*.sba")) if not path.name.startswith("zigzag_")]
    cats = [cat for cat in cats if cat is not None]
    assert len(cats) == 4
    return cats


def test_word_covers_match_projective_cover_on_every_fixture_catalog(fixture_dir):
    zigzag_a20 = catalog_for(load_presentation(fixture_dir / "zigzag_a20.sba"))
    for cat in small_fixture_catalogs(fixture_dir):
        check_graph_map_table(cat)
    for cat in small_fixture_catalogs(fixture_dir) + [zigzag_a20, catalog_for(zigzag(12))]:
        check_word_covers(cat)


def test_every_table_map_written_on_request_is_a_module_map(fixture_dir):
    # the catalog keeps no verified row: basis writes each graph map from
    # its key's nodes when asked (Catalog.map_matrix), and each must commute
    # with the arrows, the maps into each member independent
    for cat in small_fixture_catalogs(fixture_dir) + [catalog_for(zigzag(12))]:
        for u in cat.entries:
            for y in cat.entries:
                maps = cat.basis(u.index, y.index)
                for f in maps:
                    f.verify()
                if maps:
                    assert Matrix(np.array([f.flatten() for f in maps]), cat.p.q).rank() == len(maps)


def _shift_epi(monkeypatch):
    """Every cover looks up each graph map of its epi one node further along
    the reading of P(v)."""
    cover, key = Catalog.cover, Catalog.map_key

    def shifted(cat, entry):
        def shifted_key(u, fu, i, y, *rest):
            return key(cat, u, fu, i + (y == entry.index), y, *rest)

        with monkeypatch.context() as m:
            m.setattr(cat, "map_key", shifted_key, raising=False)
            return cover(cat, entry)

    monkeypatch.setattr(Catalog, "cover", shifted)


def test_an_epi_reading_shifted_by_one_node_is_not_in_the_table(fixture_dir, monkeypatch, capsys):
    path = fixture_dir / "census_typeA_seed1_04.sba"
    _shift_epi(monkeypatch)
    cat = Catalog(load_presentation(path))
    with pytest.raises(VerificationError, match="no graph map"):
        cat.cover(cat.lookup(parse_word(cat.p, "a2 a3^-1")))
    assert main(["verify-main-theorem", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construction certificate failed" in captured.err
    assert "no graph map" in captured.err


def _graph_map_stack(rng, blocks, rows, axis):
    """blocks partial permutations with signs, each with rows rows and a
    random number of columns, placed side by side (axis 0) or, transposed,
    one above another (axis 1)."""
    parts = []
    for _ in range(blocks):
        cols = int(rng.integers(0, 6))
        f = np.zeros((rows, cols), dtype=np.int64)
        m = int(rng.integers(0, min(rows, cols) + 1))
        f[rng.permutation(rows)[:m], rng.permutation(cols)[:m]] = rng.choice([1, -1], size=m)
        parts.append(f)
    a = np.hstack(parts)
    return a if axis == 0 else a.T


def test_the_support_rank_of_a_stack_of_graph_maps_is_its_rank():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q, axis = int(rng.choice([2, 3, 5, 32003])), int(rng.integers(0, 2))
        a = _graph_map_stack(rng, int(rng.integers(1, 4)), int(rng.integers(0, 7)), axis)
        assert support_rank(a, q, axis, "stack") == Matrix(a, q).rank()


@pytest.mark.parametrize("axis, line", [(0, "column"), (1, "row")])
def test_a_stack_with_two_nonzeros_in_one_line_has_no_support_rank(axis, line):
    a = np.eye(3, dtype=np.int64)
    a[0, 1] = -1  # two nonzeros in row 0 and in column 1, and rank 3
    with pytest.raises(VerificationError, match=f"stack has two nonzeros in one {line}"):
        support_rank(a if axis == 0 else a.T, 5, axis, "stack")


def certified_sequences(cat, monkeypatch):
    """Every sequence the certificate is given on cat: each member's cover,
    each almost-split sequence and each middle the words list on every
    ordered pair, as its arguments after the catalog."""
    seen, real = [], stringalg.tablemaps.certify_sequence

    def record(cat, *args):
        seen.append(args)
        real(cat, *args)

    with monkeypatch.context() as m:
        m.setattr(stringalg.artheory, "certify_sequence", record)
        m.setattr(stringalg.wordext, "certify_sequence", record)
        for u in cat.entries:
            cat.cover(u)
            if u.index not in cat.projectives:
                cat.ar_sequence(u)
            for y in cat.entries:
                for ext in word_extensions(cat, u.index, y.index):
                    certified_middle(cat, u.index, y.index, ext)
    return seen


def mutants(cat, rng, left, middle, right, incl, proj, name):
    """The sequence as it is, and mutated: in a block drawn from each map,
    the sign flipped or the key shifted by one node in its source or its
    target; that block dropped, or added again with the opposite or the same sign (the
    same sign cancels at q = 2 only) or with another key the table holds
    for its pair; a middle member swapped for another."""
    yield left, middle, right, incl, proj, name
    for side, (blocks, sources, targets) in enumerate(((incl, left, middle), (proj, middle, right))):
        if not blocks:
            continue
        n = rng.randrange(len(blocks))
        k, t, (flip, s, j, m), sign = blocks[n]
        rest = blocks[:n] + blocks[n + 1:]
        others = [key for key in cat.hom_keys[sources[k]][targets[t]] if key != (flip, s, j, m)]
        for edited in (
            rest + [(k, t, (flip, s, j, m), -sign)],
            rest + [(k, t, (flip, s + 1, j, m), sign)],
            rest + [(k, t, (flip, s, j + 1, m), sign)],
            rest,
            blocks + [(k, t, (flip, s, j, m), -sign)],
            blocks + [(k, t, (flip, s, j, m), sign)],
            *([blocks + [(k, t, rng.choice(others), sign)]] if others else []),
        ):
            maps = (edited, proj) if side == 0 else (incl, edited)
            yield (left, middle, right, *maps, name)
    if middle:
        n = rng.randrange(len(middle))
        swapped = middle[:n] + [rng.choice([i for i in range(len(cat)) if i != middle[n]])] + middle[n + 1:]
        yield left, swapped, right, incl, proj, name


def check_certificate_against_dense(cat, monkeypatch, rng, messages):
    """The certificate on node runs and the dense one accept and refuse
    every sequence of cat and every mutant of it alike, with one message;
    the messages seen are added to messages."""
    for args in certified_sequences(cat, monkeypatch):
        for mutant in mutants(cat, rng, *args):
            found = verdict(stringalg.tablemaps.certify_sequence, cat, *mutant)
            assert found == verdict(dense_maps.certify_sequence, cat, *mutant), mutant
            messages.add(found and found.replace(mutant[-1], "X"))


REFUSALS = ("do not add", "no graph map", "inclusion into the X has two nonzeros in one column",
            "not injective", "projection from the X has two nonzeros in one row", "not surjective",
            "not zero")


def test_the_certificate_on_node_runs_agrees_with_the_dense_one(fixture_dir, monkeypatch):
    rng, messages = random.Random(11), set()
    fixed = [load_presentation(path) for path in sorted(fixture_dir.glob("*.sba"))
             if not path.name.startswith("zigzag_")]
    for seed in (1, 2, 3):
        fixed += [parse_presentation(text)
                  for _, text in census_inputs(seed, CENSUS_N, CENSUS_RELATION_P, CENSUS_WEIGHT)]
    fixed.append(zigzag(12))
    for p in fixed:
        for q in (2, 3, 5):
            cat = finite_type_catalog(p.with_field(q))
            if cat is not None:
                check_certificate_against_dense(cat, monkeypatch, rng, messages)
    loops = []

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(presentations(min_arrows=1, string_only=True), st.sampled_from([2, 3, 5]))
    def drawn(p, q):
        cat = finite_type_catalog(p.with_field(q))
        assume(cat is not None)
        check_certificate_against_dense(cat, monkeypatch, rng, messages)
        loops.append(any(a.source == a.target for a in p.quiver.arrows))

    drawn()
    assert any(loops)
    # every outcome occurs: acceptance and each refusal, in the order checked
    kinds = {m and next(k for k in REFUSALS if k in m) for m in messages}
    assert kinds == {None, *REFUSALS}


def check_gate_rows(cat):
    """Each word cover's gate row against the count of the long exact Hom
    sequence on projective_cover, an independent oracle, with
    hom(syzygy, N) solved."""
    for u in cat.entries:
        solved = projective_cover(u.rep)
        assert cat.cover(u).gate_row().tolist() == [
            solved.ext_dim(y.rep, cat.hom[u.index][y.index]) for y in cat.entries
        ]


def test_gate_rows_match_the_solved_count(fixture_dir):
    for cat in small_fixture_catalogs(fixture_dir):
        check_gate_rows(cat)
    check_gate_rows(catalog_for(zigzag(12)))


def test_a_table_entry_that_drives_the_gate_negative_raises_naming_the_pair(a3nr):
    # lower hom(M, N) by one at a pair with Hom and no Ext: that entry of M's
    # gate row, and only that one, becomes -1
    clean = Catalog(a3nr)
    c, n = next((u.index, y.index) for u in clean.entries for y in clean.entries
                if u is not y and clean.hom[u.index][y.index] and not clean.cover(u).gate_row()[y.index])
    cat = Catalog(a3nr)
    cat.hom[c][n] -= 1
    labels = [cat.entries[i].rep.label for i in (c, n)]
    with pytest.raises(VerificationError) as err:
        cat.cover(cat.entries[c]).gate_row()
    assert str(err.value) == f"long exact Hom sequence gives dim Ext^1({labels[0]}, {labels[1]}) = -1"


def test_exact_census_matches_reference_on_drawn_finite_presentations():
    ext_dims, loops = [], []

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(presentations(min_arrows=1, string_only=True), st.sampled_from([2, 3, 5]))
    def check(p, q):
        p = p.with_field(q)
        cat = finite_type_catalog(p)
        assume(cat is not None)
        check_graph_map_table(cat)
        check_word_covers(cat)
        assert cat.weights == solve_rational(cat.hom, [1] * len(cat))
        found = check_pairs(cat)
        assert check_ext_from_long_exact_sequence(cat) == len(found)
        # the scan, whose pairs of dimension 2 or more run on solved covers,
        # against the reference census
        report = middle_term_scan(p, max(e.rep.total_dim for e in cat.entries))
        labels = {f"M({format_walk(e.word)})": e.index for e in cat.entries}
        assert {(labels[f.left_label], labels[f.right_label]): (f.ext_dim, f.histogram)
                for f in report.findings} == found
        assert report.pair_count == len(found)
        ext_dims.extend(dim for dim, _ in found.values())
        loops.append(any(a.source == a.target for a in p.quiver.arrows))

    check()
    assert max(ext_dims) >= 2
    assert 2 in ext_dims
    assert any(loops)


def test_weights_of_every_fixture_catalog(fixture_dir):
    checked = 0
    for cat in small_fixture_catalogs(fixture_dir):
        w = cat.weights
        assert all(isinstance(x, int) for x in w)
        for row in cat.hom:
            assert sum(x * h for x, h in zip(w, row)) == 1
        # the mesh column sums against the rational solve they replace
        assert w == solve_rational(cat.hom, [1] * len(cat))
        checked += 1
    assert checked == 4  # a3, a3nr, census_typeA_seed1_04, loop_arrow


def _doubled(hom):
    """Then no integral w solves hom . w = 1."""
    return [[2 * h for h in row] for row in hom]


def _columns_0_and_3_swapped(hom):
    """On a3nr members 0 and 3 have weights 1 and 0.  A rational solve of
    hom . w = 1 accepts the swapped table, with w = [0, 1, 1, 1, 0, 0];
    the mesh column sums [1, 1, 1, 0, 0, 0] fail it."""
    return [[row[3], *row[1:3], row[0], *row[4:]] for row in hom]


def _corrupt_tables(monkeypatch, edit):
    """Every catalog built from now on edits its hom table after
    construction, past the checks the constructor makes."""
    original = Catalog.__init__

    def corrupted(self, p):
        original(self, p)
        self.hom = edit(self.hom)

    monkeypatch.setattr(Catalog, "__init__", corrupted)


def test_corrupted_hom_table_raises(a3nr, monkeypatch):
    assert Catalog(a3nr).weights == [1, 1, 1, 0, 0, 0]
    for edit in (_doubled, _columns_0_and_3_swapped):
        with monkeypatch.context() as m:
            _corrupt_tables(m, edit)
            cat = Catalog(a3nr)
            with pytest.raises(VerificationError, match="integral weight"):
                cat.weights


def test_corrupted_hom_table_exits_3(fixture_dir, monkeypatch, capsys):
    for edit in (_doubled, _columns_0_and_3_swapped):
        with monkeypatch.context() as m:
            _corrupt_tables(m, edit)
            code = main(["verify-main-theorem", str(fixture_dir / "a3nr.sba")])
        assert code == 3
        assert "integral weight" in capsys.readouterr().err


def _count_ext1(monkeypatch):
    calls = []
    original = stringalg.homalg.ext1

    def counted(cover, N, *kernel):
        calls.append((cover.module, N))
        return original(cover, N, *kernel)

    monkeypatch.setattr(stringalg.homalg, "ext1", counted)
    return calls


def test_scan_runs_ext1_only_on_pairs_with_extensions(fixture_dir, monkeypatch):
    p = load_presentation(fixture_dir / "census_typeA_seed1_04.sba")
    calls = _count_ext1(monkeypatch)
    report = middle_term_scan(p, 6)
    # every member is scanned and every Ext^1 is 1-dimensional, so each
    # middle is read off the words and no Ext basis is built
    assert all(e.rep.total_dim <= 6 for e in catalog_for(p).entries)
    assert report.pair_count == 36
    assert {f.ext_dim for f in report.findings} == {1}
    assert calls == []
    # over F_5 loop_arrow has two pairs with 2-dimensional Ext^1: each has
    # its basis built, and their exact counts need one more Ext^1, of
    # M(e(1)) by M(x0^-1 x1^-1)
    p = load_presentation(fixture_dir / "loop_arrow.sba").with_field(5)
    report = middle_term_scan(p, 6)
    assert report.pair_count == 16
    assert sorted((f.left_label, f.right_label) for f in report.findings if f.ext_dim == 2) == [
        ("M(e(1))", "M(x0)"), ("M(x1 x0 x1^-1)", "M(x0)")
    ]
    assert len(calls) == len(set(calls)) == 3


LOOP_ARROW_CENSUS = ["--format", "structured", "--field", "5", "middle-census", "loop_arrow.sba",
                     "--from", "e(1)", "--to", "x0"]


def _loop_arrow_census(fixture_dir):
    return [str(fixture_dir / a) if a.endswith(".sba") else a for a in LOOP_ARROW_CENSUS]


def test_census_of_non_members_runs_ext1_only_where_the_gate_finds_extensions(
    fixture_dir, monkeypatch, capsys
):
    # M(e(1)) and M(x0) built by the CLI are not catalog members; the exact
    # counts need Ext^1(M, Y) only for the Y with extensions
    calls = _count_ext1(monkeypatch)
    assert main(_loop_arrow_census(fixture_dir)) == 0
    golden = fixture_dir.parent / "tests" / "golden" / "middle_census_loop_arrow_e1_x0_field5.out"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
    assert len(calls) == 2


def _undercount_top(monkeypatch, owner, name):
    """Every cover that owner.name builds lists one copy too few of P(v) at
    its first top vertex v, so hom(P0, N) in the identity of cover.ext
    comes out dim N_v too small, while the verified basis is unchanged."""
    original = getattr(owner, name)

    def undercounted(*args):
        cover = original(*args)
        cover.top[next(v for v, t in cover.top.items() if t)] -= 1
        return cover

    monkeypatch.setattr(owner, name, undercounted)


def test_filter_disagreeing_with_ext1_raises(a3nr, monkeypatch):
    _undercount_top(monkeypatch, Catalog, "cover")
    with pytest.raises(VerificationError, match="long exact Hom sequence gives 1"):
        middle_term_scan(a3nr, 4)


def test_filter_disagreeing_with_ext1_exits_3(fixture_dir, monkeypatch, capsys):
    _undercount_top(monkeypatch, Catalog, "cover")
    code = main(["verify-main-theorem", str(fixture_dir / "a3nr.sba")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construction certificate failed" in captured.err
    assert "long exact Hom sequence gives" in captured.err


def _edit_listings(monkeypatch, edit):
    """Every listing of extensions the scan reads comes back as
    edit(catalog, c, d, listing)."""
    original = stringalg.wordext.word_extensions
    monkeypatch.setattr(stringalg.verify, "word_extensions",
                        lambda cat, c, d: edit(cat, c, d, original(cat, c, d)))


@pytest.mark.parametrize(
    "edit", [lambda listed: listed[:-1], lambda listed: listed + listed[:1]], ids=["short", "long"]
)
def test_a_listing_of_the_wrong_length_raises_and_exits_3(fixture_dir, monkeypatch, capsys, edit):
    path = fixture_dir / "census_typeA_seed1_04.sba"
    _edit_listings(monkeypatch, lambda cat, c, d, listed: edit(listed))
    with pytest.raises(VerificationError, match="long exact Hom sequence gives 1"):
        middle_term_scan(load_presentation(path), 6)
    assert main(["verify-main-theorem", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construction certificate failed" in captured.err
    assert "long exact Hom sequence gives" in captured.err


def _split(cat, c, d, listed):
    """M(C) + M(D) in place of the first middle."""
    ext = listed[0]
    return [WordExtension(ext.middles, (d, c), ext.incl, ext.proj)] + listed[1:]


def _wrong_member(cat, c, d, listed):
    """M(D) in place of the first middle's first summand."""
    ext = listed[0]
    return [WordExtension(ext.middles, (d,) + ext.members[1:], ext.incl, ext.proj)] + listed[1:]


def _sign_lost(cat, c, d, listed):
    """The second summand of every two-summand middle projects with the
    sign +1."""
    return [
        WordExtension(e.middles, e.members, e.incl, e.proj[:1] + ((e.proj[1][0], 1),))
        if len(e.members) == 2 else e
        for e in listed
    ]


def _inclusion_dropped(cat, c, d, listed):
    """Every one-summand middle loses its inclusion, its only one: with two
    summands the inclusion left could still reach every node of M(D)."""
    return [WordExtension(e.middles, e.members, (), e.proj) if len(e.members) == 1 else e for e in listed]


def _projection_dropped(cat, c, d, listed):
    """Every one-summand middle loses its projection, its only one."""
    return [WordExtension(e.middles, e.members, e.incl, ()) if len(e.members) == 1 else e for e in listed]


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda m: _edit_listings(m, _split), "splits"),
        (lambda m: _edit_listings(m, _wrong_member), "do not add|no graph map"),
        (lambda m: _edit_listings(m, _sign_lost), "composite through the middle .* is not zero"),
        (lambda m: _edit_listings(m, _inclusion_dropped), "inclusion into the middle .* is not injective"),
        (lambda m: _edit_listings(m, _projection_dropped), "projection from the middle .* is not surjective"),
    ],
    ids=["split", "wrong-member", "sign-lost", "inclusion-dropped", "projection-dropped"],
)
def test_a_bad_middle_raises_and_exits_3(fixture_dir, monkeypatch, capsys, fault, message):
    path = fixture_dir / "census_typeA_seed1_04.sba"
    fault(monkeypatch)
    with pytest.raises(VerificationError, match=message):
        middle_term_scan(load_presentation(path), 6)
    assert main(["verify-main-theorem", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construction certificate failed" in captured.err


def test_census_of_non_members_checks_the_identity_and_exits_3(fixture_dir, monkeypatch, capsys):
    _undercount_top(monkeypatch, stringalg.cli, "projective_cover")
    assert main(_loop_arrow_census(fixture_dir)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "long exact Hom sequence gives" in captured.err


def _drop_a_cocycle(monkeypatch):
    """Every Ext basis that ext1 builds loses its last cocycle."""
    original = stringalg.homalg.ext1

    def dropped(cover, N, *kernel):
        ctx = original(cover, N, *kernel)
        ctx.basis = ctx.basis[:-1]
        return ctx

    monkeypatch.setattr(stringalg.homalg, "ext1", dropped)


@pytest.mark.parametrize(
    "argv, out",
    [
        (["--field", "5", "middle-census", "a3.sba", "--from", "e(1)", "--to", "e(2)"],
         "ext_dim: 1\nlines: 1\nline=(1) summands=1 middle_dimvec=(1,1,0)\nhistogram: 1:1\n"),
        (["ext", "a3nr.sba", "--from", "e(1)", "--to", "e(2)"], "ext1_dim: 1\n"),
    ],
    ids=["middle-census", "ext"],
)
def test_ext_commands_check_the_identity_and_exit_3(fixture_dir, monkeypatch, capsys, argv, out):
    # the Ext basis of the pair itself is checked against the long exact Hom
    # sequence, so a basis one cocycle short fails the command
    argv = [str(fixture_dir / a) if a.endswith(".sba") else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    _drop_a_cocycle(monkeypatch)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has a basis of 0 but the long exact Hom sequence gives 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--field", "3", "--allow-non-string", "verify-main-theorem", "kronecker.sba"],
        ["--allow-non-string", "verify-main-theorem", "d4sub.sba", "--max-dim", "6",
         "--module", "d4sub_m2111_indec.mod"],
    ],
    ids=["kronecker", "d4sub"],
)
def test_non_string_scans_check_every_ext_basis_and_exit_3(fixture_dir, monkeypatch, capsys, argv):
    # each pair is gated by the long exact Hom sequence before its basis is
    # built, so a basis one cocycle short fails the scan instead of
    # shrinking its dimensions
    argv = [str(fixture_dir / a) if a.endswith((".sba", ".mod")) else a for a in argv]
    _drop_a_cocycle(monkeypatch)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "but the long exact Hom sequence gives" in captured.err


def _is_syzygy(M):
    return M.label.startswith("syzygy(")


def test_negative_ext_from_the_identity_raises(a3, monkeypatch):
    cat = catalog_for(a3)
    original = stringalg.homalg._hom_kernel
    monkeypatch.setattr(
        stringalg.homalg,
        "_hom_kernel",
        lambda M, N: ({}, []) if _is_syzygy(M) else original(M, N),
    )
    with pytest.raises(VerificationError, match="= -"):
        for m in cat.entries:
            cover = projective_cover(m.rep)
            for n in cat.entries:
                cover.ext(n.rep, cat.hom[m.index][n.index])


def _off_the_system(S, N, off, kernel):
    """kernel, a basis of Hom(S, N) in the form of _hom_kernel, with its first
    vector moved off one equation of the commutation system, so that it is
    no longer a map; left as it is when the system has no equation."""
    rows = _hom_system(S, N)[1]
    if not kernel or not rows:
        return off, kernel
    idx = next(iter(rows[0]))
    vec = dict(kernel[0])
    vec[idx] = (vec.get(idx, 0) + 1) % N.q
    return off, [vec] + kernel[1:]


def _break_kernels(monkeypatch):
    """Every solved kernel of Hom(syzygy, N) comes with its first vector
    moved off the commutation system."""
    solved = stringalg.homalg._hom_kernel

    def broken_solve(M, N):
        kernel = solved(M, N)
        return _off_the_system(M, N, *kernel) if _is_syzygy(M) else kernel

    monkeypatch.setattr(stringalg.homalg, "_hom_kernel", broken_solve)


def _first_breakable_pair(cat):
    """A member's projective cover and a member N with nonzero Ext^1 and a
    commutation system with an equation."""
    return next(
        (cover, e.rep)
        for cover in (projective_cover(u.rep) for u in cat.entries)
        for e in cat.entries
        if ext1(cover, e.rep).dim and _hom_system(cover.syzygy, e.rep)[1]
    )


def test_a_kernel_vector_that_is_not_a_map_fails_ext1(a3nr, monkeypatch):
    cover, N = _first_breakable_pair(catalog_for(a3nr))
    _break_kernels(monkeypatch)
    with pytest.raises(VerificationError, match="does not commute"):
        ext1(cover, N)


def test_a_kernel_vector_that_is_not_a_map_exits_3(fixture_dir, monkeypatch, capsys):
    # the scan builds an Ext basis only at dimension 2 or more, which
    # loop_arrow has over F_5, on the left member's solved cover
    _break_kernels(monkeypatch)
    code = main(["--field", "5", "verify-main-theorem", str(fixture_dir / "loop_arrow.sba")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not commute" in captured.err


def test_a_solved_census_of_another_dimension_raises_and_exits_3(fixture_dir, monkeypatch, capsys):
    # the solved cover of M + M passes its own gate with twice M's Ext^1;
    # only the word cover's gate tells the two apart
    original = stringalg.verify.projective_cover
    monkeypatch.setattr(stringalg.verify, "projective_cover", lambda M: original(direct_sum([M, M])))
    code = main(["--field", "5", "verify-main-theorem", str(fixture_dir / "loop_arrow.sba")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has a basis of 4 on the solved cover but the word cover's gate gives 2" in captured.err


def _flip_valley_signs(aut, pieces):
    return [(key, [(s, t, a, abs(c)) for s, t, a, c in maps]) for key, maps in pieces]


def _drop_last_nodes(aut, pieces):
    """Every syzygy summand one node short: a trivial one, keyed by its
    vertex, is left out, and a one-letter one becomes its source vertex."""
    out = []
    for key, maps in pieces:
        if isinstance(key, str):
            continue
        short = key[:-1] or aut.source[key[0]]
        out.append((short, [m for m in maps if m[0] < len(key)]))
    return out


@pytest.mark.parametrize("fault", [_flip_valley_signs, _drop_last_nodes])
def test_a_wrong_syzygy_summand_fails_the_word_cover(fixture_dir, monkeypatch, capsys, fault):
    # a valley summand whose top goes to y1 + y2, or syzygy summands one node
    # short, break the exactness of 0 -> syzygy -> P0 -> M -> 0
    path = fixture_dir / "census_typeA_seed1_04.sba"
    p = load_presentation(path)
    original = stringalg.artheory._syzygy_words
    monkeypatch.setattr(stringalg.artheory, "_syzygy_words",
                        lambda aut, *args: fault(aut, original(aut, *args)))
    cat = Catalog(p)
    entry = cat.lookup(parse_word(p, "a2 a3^-1"))  # one valley, between two peaks
    with pytest.raises(VerificationError):
        cat.cover(entry)
    assert main(["verify-main-theorem", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construction certificate failed" in captured.err


def _forbid_middles(monkeypatch, direct_sums=False):
    """Building or decomposing a middle raises; with direct_sums, so does
    building any direct sum, a cover's P0 or syzygy among them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a middle was built or decomposed on string input")

    monkeypatch.setattr(stringalg.decomp, "decompose", forbidden)
    monkeypatch.setattr(stringalg.verify, "decompose", forbidden)
    monkeypatch.setattr(stringalg.homalg, "extension_of_cocycle", forbidden)
    if direct_sums:
        for module in (stringalg.reps, stringalg.homalg, stringalg.artheory):
            monkeypatch.setattr(module, "direct_sum", forbidden)


def _count_decompose(monkeypatch):
    calls = []
    original = stringalg.decomp.decompose

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(stringalg.decomp, "decompose", counted)
    return calls


def test_no_middle_is_built_on_string_input(fixture_dir, monkeypatch, capsys):
    golden = fixture_dir.parent / "tests" / "golden"
    with monkeypatch.context() as m:
        _forbid_middles(m)
        argv = ["--format", "structured", "verify-main-theorem",
                str(fixture_dir / "a3nr.sba"), "--max-dim", "4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (golden / "verify_main_theorem_a3nr_dim4.out").read_text(encoding="utf-8")
        argv = ["--field", "5", "middle-census", str(fixture_dir / "a3.sba"),
                "--from", "e(1)", "--to", "e(2)"]
        assert main(argv) == 0
        assert "histogram: 1:1" in capsys.readouterr().out

    # presentations without a catalog still build and decompose each middle
    calls = _count_decompose(monkeypatch)
    argv = ["--field", "3", "middle-census", str(fixture_dir / "kronecker.sba"),
            "--from", "e(1)", "--to", "e(2)"]
    assert main(argv) == 0
    assert "ext_dim: 2" in capsys.readouterr().out
    assert len(calls) == 4
    argv = ["--format", "structured", "middle-census", str(fixture_dir / "d4sub.sba"),
            "--from", "@" + str(fixture_dir / "d4sub_m2111.mod"), "--to", "e(0)"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (golden / "middle_census_d4sub_m2111.out").read_text(
        encoding="utf-8"
    )
    assert len(calls) == 4 + 6


def test_a_census_seed_1_scan_builds_no_direct_sum(monkeypatch):
    # every Ext^1 at seed 1 is 1-dimensional, so no cover is solved
    scans = [middle_term_scan(parse_presentation(text), CENSUS_N)
             for _, text in census_inputs(1, CENSUS_N, CENSUS_RELATION_P, CENSUS_WEIGHT)]
    _forbid_middles(monkeypatch, direct_sums=True)
    for (_, text), scan in zip(census_inputs(1, CENSUS_N, CENSUS_RELATION_P, CENSUS_WEIGHT), scans):
        again = middle_term_scan(parse_presentation(text), CENSUS_N)
        assert again.ok and again.findings == scan.findings
        assert {f.ext_dim for f in again.findings} == {1}
