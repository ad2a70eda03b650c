"""Exact census counts against the construction they replace.

On a finite-type string presentation middle_census counts the summands of
each extension middle from the long exact Hom sequence and builds no
middle.  The reference here is the old path: build each middle from its
cocycle with extension_of_cocycle, then decompose it.  On every line the
two counts must agree, and the middle's full profile dim Hom(E, -) over
the catalog, times the inverse of the hom table, must be a vector of
nonnegative integer multiplicities that sum to the count.  On the same
pairs the gate cover.ext(N, hom), which decides which pairs the scan
hands to ext1, must give the dimension of the verified Ext basis.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_homalg import check_ext_from_long_exact_sequence
from test_letter_automaton import presentations

import stringalg.cli
import stringalg.decomp
import stringalg.homalg
import stringalg.verify
from stringalg.artheory import Catalog, catalog_for, finite_type_catalog
from stringalg.cli import main
from stringalg.decomp import decompose
from stringalg.errors import VerificationError
from stringalg.homalg import (
    _hom_system,
    ext1,
    hom_basis,
    middle_census,
    projective_cover,
    projective_line_representatives,
)
from stringalg.linalg import solve_rational
from stringalg.presentation import load_presentation
from stringalg.verify import middle_term_scan
from stringalg.words import format_walk


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


def check_pairs(cat, pairs):
    """Exact census against the reference on each pair; returns the Ext
    dimension of every pair with extensions."""
    dims = []
    for M, N in pairs:
        cover = projective_cover(M)
        # the gate verify-main-theorem runs, against the verified ext1
        assert cover.ext(N, len(hom_basis(M, N))).dim == ext1(cover, N).dim
        census = middle_census(cover, N)
        reference = reference_census(cover, N)
        assert [(l.coeffs, l.summands) for l in census.lines] == [
            (coeffs, count) for coeffs, count, _ in reference
        ]
        for line, (_, _, middle) in zip(census.lines, reference):
            mult = multiplicities(cat, middle)
            assert all(x.denominator == 1 and x >= 0 for x in mult)
            assert sum(mult) == line.summands
            assert line.dimvec == tuple(middle.dim(v) for v in N.pres.quiver.vertices)
        if census.ext_dim:
            dims.append(census.ext_dim)
    return dims


@pytest.mark.parametrize("name", ["a3", "a3nr"])
def test_exact_census_matches_reference_on_the_full_catalog(name, request):
    p = request.getfixturevalue(name)
    cat = catalog_for(p)
    reps = [e.rep for e in cat.entries]
    assert check_pairs(cat, [(M, N) for M in reps for N in reps])


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
    cat = catalog_for(p)
    reps = [e.rep for e in cat.entries]
    assert check_pairs(cat, [(M, N) for M in reps for N in reps])


def test_exact_census_matches_reference_on_drawn_finite_presentations():
    ext_dims = []

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
        reps = [e.rep for e in cat.entries]
        dims = check_pairs(cat, [(M, N) for M in reps for N in reps])
        assert check_ext_from_long_exact_sequence(cat) == len(dims)
        ext_dims.extend(dims)

    check()
    assert max(ext_dims) >= 2
    assert 2 in ext_dims


def test_weights_of_every_fixture_catalog(fixture_dir):
    checked = 0
    for path in sorted(fixture_dir.glob("*.sba")):
        cat = finite_type_catalog(load_presentation(path))
        if cat is None:
            continue
        w = cat.weights
        assert all(isinstance(x, int) for x in w)
        for row in cat.hom:
            assert sum(x * h for x, h in zip(w, row)) == 1
        checked += 1
    assert checked == 4  # a3, a3nr, census_typeA_seed1_04, loop_arrow


def _corrupt_tables(monkeypatch):
    """Every catalog built from now on doubles its hom table: then no
    integral w solves hom . w = 1."""
    original = Catalog.__init__

    def corrupted(self, p):
        original(self, p)
        self.hom = [[2 * h for h in row] for row in self.hom]

    monkeypatch.setattr(Catalog, "__init__", corrupted)


def test_corrupted_hom_table_raises(a3nr, monkeypatch):
    _corrupt_tables(monkeypatch)
    cat = Catalog(a3nr)
    with pytest.raises(VerificationError, match="integral weight"):
        cat.weights


def test_corrupted_hom_table_exits_3(fixture_dir, monkeypatch, capsys):
    _corrupt_tables(monkeypatch)
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
    # every member is scanned, so the exact counts need no Ext^1 beyond
    # the reported pairs'
    assert all(e.rep.total_dim <= 6 for e in catalog_for(p).entries)
    assert len(calls) == len(set(calls)) == report.pair_count == 36


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


def _undercount_top(monkeypatch, module=stringalg.verify):
    """Every cover that module builds lists one copy too few of P(v) at its
    first top vertex v, so hom(P0, N) in the identity of cover.ext comes
    out dim N_v too small, while the verified basis is unchanged."""
    original = module.projective_cover

    def undercounted(M):
        cover = original(M)
        v = next(v for v, t in cover.top.items() if t)
        cover.top[v] -= 1
        return cover

    monkeypatch.setattr(module, "projective_cover", undercounted)


def test_filter_disagreeing_with_ext1_raises(a3nr, monkeypatch):
    _undercount_top(monkeypatch)
    with pytest.raises(VerificationError, match="long exact Hom sequence gives 1"):
        middle_term_scan(a3nr, 4)


def test_filter_disagreeing_with_ext1_exits_3(fixture_dir, monkeypatch, capsys):
    _undercount_top(monkeypatch)
    code = main(["verify-main-theorem", str(fixture_dir / "a3nr.sba")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "construction certificate failed" in captured.err
    assert "long exact Hom sequence gives" in captured.err


def test_census_of_non_members_checks_the_identity_and_exits_3(fixture_dir, monkeypatch, capsys):
    _undercount_top(monkeypatch, stringalg.cli)
    assert main(_loop_arrow_census(fixture_dir)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "long exact Hom sequence gives" in captured.err


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


def _break_kernels(monkeypatch):
    """Every kernel of Hom(syzygy, N) comes with its first vector moved off
    one equation of the commutation system, so that it is no longer a map;
    a kernel whose system has no equation, or whose source is not a
    syzygy, is left as it is."""
    original = stringalg.homalg._hom_kernel

    def broken(M, N):
        off, kernel = original(M, N)
        rows = _hom_system(M, N)[1] if _is_syzygy(M) else []
        if not kernel or not rows:
            return off, kernel
        idx = next(iter(rows[0]))
        vec = dict(kernel[0])
        vec[idx] = (vec.get(idx, 0) + 1) % N.q
        return off, [vec] + kernel[1:]

    monkeypatch.setattr(stringalg.homalg, "_hom_kernel", broken)


def test_a_kernel_vector_that_is_not_a_map_fails_ext1(a3nr, monkeypatch):
    reps = [e.rep for e in catalog_for(a3nr).entries]
    cover, N = next(
        (cover, N)
        for cover in map(projective_cover, reps)
        for N in reps
        if ext1(cover, N).dim and _hom_system(cover.syzygy, N)[1]
    )
    _break_kernels(monkeypatch)
    with pytest.raises(VerificationError, match="does not commute"):
        ext1(cover, N)


def test_a_kernel_vector_that_is_not_a_map_exits_3(fixture_dir, monkeypatch, capsys):
    _break_kernels(monkeypatch)
    code = main(["verify-main-theorem", str(fixture_dir / "a3nr.sba")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not commute" in captured.err


def _forbid_middles(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a middle was built or decomposed on string input")

    monkeypatch.setattr(stringalg.decomp, "decompose", forbidden)
    monkeypatch.setattr(stringalg.verify, "decompose", forbidden)
    monkeypatch.setattr(stringalg.homalg, "extension_of_cocycle", forbidden)


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
