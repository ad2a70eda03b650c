import pytest

from stringalg.errors import ParseError, StringAlgError
from stringalg.presentation import (
    parse_presentation,
    serialize_presentation,
    validate_axioms,
)
from stringalg.words import check_finite_dimensional, surviving_paths


def brute_surviving_paths(p, cap=12):
    """Oracle: enumerate every arrow sequence up to cap and scan for relations."""
    out = [(v, ()) for v in p.quiver.vertices]
    frontier = list(out)
    for _ in range(cap):
        nxt = []
        for endv, path in frontier:
            for a in p.quiver.arrows_from(endv):
                ext = path + (a.name,)
                ok = True
                for rel in p.relations:
                    for i in range(len(ext) - len(rel) + 1):
                        if ext[i : i + len(rel)] == rel:
                            ok = False
                if ok:
                    nxt.append((a.target, ext))
        out.extend(nxt)
        frontier = nxt
    return out


def test_parse_minimal():
    p = parse_presentation("vertices: 1 2\narrow: a 1 2")
    assert p.quiver.vertices == ("1", "2")
    assert len(p.quiver.arrows) == 1
    assert p.relations == ()
    assert p.field_order == 32003


def test_parse_gp(gp):
    assert len(gp.relations) == 4
    assert gp.quiver.vertices == ("v",)
    assert [a.name for a in gp.quiver.arrows] == ["a", "b"]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("vertices: 1\narrow: a 1 9")  # unknown vertex
    with pytest.raises(ParseError):
        parse_presentation("vertices: 1\nnonsense: x")
    with pytest.raises(ParseError):
        parse_presentation("vertices: 1 2\narrow: a 1 2\nfield: 10")  # not prime
    # non-composable relation: b ends at 3, a starts at 1
    bad = "vertices: 1 2 3\narrow: a 1 2\narrow: b 2 3\nrelation: b a"
    with pytest.raises(ParseError) as err:
        parse_presentation(bad)
    assert "non-composable" in str(err.value)


def test_repeated_field_line_is_refused():
    # the first field line is not silently replaced by a later one
    with pytest.raises(ParseError) as err:
        parse_presentation("vertices: 1\nfield: 5\nfield: 7\n")
    assert str(err.value) == "repeated field line (line 3)"


def test_roundtrip(a3, a3nr, gp, kronecker, d4sub):
    for p in (a3, a3nr, gp, kronecker, d4sub):
        text = serialize_presentation(p)
        again = parse_presentation(text)
        assert serialize_presentation(again) == text
        assert again == p


def test_finite_dimensional_a3(a3):
    finite, witness = check_finite_dimensional(a3)
    assert finite and witness is None
    paths = [path for v in a3.quiver.vertices for path in surviving_paths(a3, v)]
    assert len(paths) == 5  # e1 e2 e3 a b
    assert len(paths) == len(brute_surviving_paths(a3))


def test_finite_dimensional_free_loop():
    p = parse_presentation("vertices: 1\narrow: a 1 1")
    finite, witness = check_finite_dimensional(p)
    assert not finite
    assert witness == ("a",)


def test_finite_dimensional_gp(gp):
    finite, _ = check_finite_dimensional(gp)
    assert finite
    paths = surviving_paths(gp, "v")
    assert len(paths) == 7  # e, a, b, ab, ba, aba, bab
    assert sorted(pp for _, pp in paths) == sorted(pp for _, pp in brute_surviving_paths(gp))


def test_finite_dimensional_kronecker(kronecker):
    finite, _ = check_finite_dimensional(kronecker)
    assert finite
    assert sum(len(surviving_paths(kronecker, v)) for v in kronecker.quiver.vertices) == 4


def test_axioms_d4sub(d4sub):
    report = validate_axioms(d4sub)
    assert not report.s1
    assert any("in-degree 3" in v for v in report.violations)


def test_axioms_gp(gp):
    report = validate_axioms(gp)
    assert report.s1 and report.s2 and report.s3
    assert report.is_string
    assert report.violations == ()


def test_axioms_pure():
    p = parse_presentation("vertices: 1")
    r1 = validate_axioms(p)
    r2 = validate_axioms(p)
    assert r1 == r2
    assert r1.is_string


def test_axioms_s2_violation():
    # arrow a has two relation-free successors
    text = "vertices: 1 2 3 4\narrow: a 1 2\narrow: b 2 3\narrow: c 2 4"
    p = parse_presentation(text)
    report = validate_axioms(p)
    assert report.s1
    assert not report.s2


def test_s1_s2_imply_bounded_length2_paths(a3, a3nr, gp, kronecker):
    # consequence check: through each vertex at most 2 relation-free length-2 paths
    for p in (a3, a3nr, gp, kronecker):
        report = validate_axioms(p)
        assert report.s1 and report.s2
        for v in p.quiver.vertices:
            count = 0
            for a in p.quiver.arrows_into(v):
                for b in p.quiver.arrows_from(v):
                    if p.path_is_relation_free((a.name, b.name)):
                        count += 1
            assert count <= 2


def test_relation_length_one_rejected():
    with pytest.raises((ParseError, StringAlgError)):
        parse_presentation("vertices: 1\narrow: a 1 1\nrelation: a")


def test_field_too_large_for_int64_rejected(a3):
    # above the limit rref overflows int64 silently: at this q a full-rank
    # 6x6 matrix came back with pivots 0..5 but a non-identity reduced form
    big = 4294967311
    text = f"vertices: 1 2\narrow: a 1 2\nfield: {big}"
    with pytest.raises(StringAlgError, match="too large"):
        parse_presentation(text)
    with pytest.raises(StringAlgError, match="too large"):
        a3.with_field(big)


def test_largest_accepted_field_reduces_exactly(a3):
    from stringalg.linalg import Matrix

    q = 2147483647  # the largest prime with (q-1)^2 < 2^62
    assert a3.with_field(q).field_order == q
    # a Vandermonde matrix on distinct nodes is invertible
    nodes = [q - 1 - 987654 * i for i in range(6)]
    m = Matrix([[pow(x, j, q) for j in range(6)] for x in nodes], q)
    reduced, pivots = m.rref()
    assert pivots == list(range(6))
    assert reduced.a.tolist() == Matrix.identity(6, q).a.tolist()


def test_arrow_lookup_by_name(gp, d4sub):
    for p in (gp, d4sub):
        for i, a in enumerate(p.quiver.arrows):
            assert p.quiver.arrow_index(a.name) == i
            assert p.quiver.arrow(a.name) is a
        for lookup in (p.quiver.arrow_index, p.quiver.arrow):
            with pytest.raises(StringAlgError, match="unknown arrow 'zz'"):
                lookup("zz")
