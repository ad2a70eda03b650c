import pytest

from stringalg.errors import ParseError, StringAlgError
from stringalg.linalg import Matrix
from stringalg.reps import (
    band_module,
    cyclic_recipe_module,
    direct_sum,
    make_representation,
    parse_module_literal,
    projective,
    serialize_module_literal,
    simple,
    string_module,
    subrepresentation,
)
from stringalg.words import Walk, is_primitive, parse_word


def test_simple_module(a3):
    s = simple(a3, "2")
    assert s.dimension_vector() == {"1": 0, "2": 1, "3": 0}
    assert s.total_dim == 1


def test_string_module_dimension(a3):
    m = string_module(a3, parse_word(a3, "a"))
    assert m.dimension_vector() == {"1": 1, "2": 1, "3": 0}
    assert m.mat("a").a.tolist() == [[1]]
    # dim = length + 1
    for text in ("a", "b"):
        w = parse_word(a3, text)
        assert string_module(a3, w).total_dim == len(w) + 1


def test_string_module_checks_relations(a3):
    # the walk "a b" is killed by the relation, so no module may be built on it
    bad_walk = Walk(parse_word(a3, "a").letters + parse_word(a3, "b").letters)
    with pytest.raises(StringAlgError):
        string_module(a3, bad_walk)


def test_string_module_gp_words(gp):
    m = string_module(gp, parse_word(gp, "a b^-1 a"))
    assert m.total_dim == 4
    m.check_relations()


def test_band_module_kronecker(kronecker):
    w = parse_word(kronecker, "a b^-1")
    assert is_primitive(kronecker, w)[0]
    b = band_module(kronecker, w, 1, 1)
    assert b.total_dim == 2
    assert b.dimension_vector() == {"1": 1, "2": 1}
    b2 = band_module(kronecker, w, 1, 3)
    assert b2.total_dim == 6


def test_band_module_refuses_imprimitive(gp):
    w = parse_word(gp, "a b^-1 a b^-1")
    with pytest.raises(StringAlgError):
        band_module(gp, w, 1, 1)
    # the unrestricted recipe accepts it
    m = cyclic_recipe_module(gp, w.letters, 1, 1)
    assert m.total_dim == 4


def test_band_module_refuses_a_walk_that_is_not_cyclic(gp):
    # a serial word has no band; the refusal is a usage error, not a bug
    with pytest.raises(StringAlgError, match="not a cyclic word"):
        band_module(gp, parse_word(gp, "a b"), 1, 1)


def test_band_module_refuses_lambda_zero(gp):
    w = parse_word(gp, "a b^-1")
    with pytest.raises(StringAlgError):
        band_module(gp, w, 0, 1)


def test_unrestricted_matches_band_on_primitive(gp):
    w = parse_word(gp, "a b^-1")
    b1 = band_module(gp, w, 5, 2)
    b2 = cyclic_recipe_module(gp, w.letters, 5, 2)
    for a in gp.quiver.arrows:
        assert b1.mat(a.name) == b2.mat(a.name)


def test_band_dim_formula(gp):
    w = parse_word(gp, "a b a^-1 b^-1")
    for n in (1, 2, 3):
        assert band_module(gp, w, 1, n).total_dim == n * len(w)


def test_projective_a3(a3):
    p1 = projective(a3, "1")
    assert p1.dimension_vector() == {"1": 1, "2": 1, "3": 0}  # e1, a
    p2 = projective(a3, "2")
    assert p2.dimension_vector() == {"1": 0, "2": 1, "3": 1}
    p3 = projective(a3, "3")
    assert p3.total_dim == 1


def test_projective_a3nr(a3nr):
    p1 = projective(a3nr, "1")
    assert p1.dimension_vector() == {"1": 1, "2": 1, "3": 1}


def test_projective_gp(gp):
    pv = projective(gp, "v")
    assert pv.total_dim == 7
    pv.check_relations()


def test_direct_sum(a3):
    s1, s2 = simple(a3, "1"), simple(a3, "2")
    both = direct_sum([s1, s2])
    assert both.dimension_vector() == {"1": 1, "2": 1, "3": 0}
    p1 = projective(a3, "1")
    tot = direct_sum([p1, both])
    for v in a3.quiver.vertices:
        assert tot.dim(v) == p1.dim(v) + both.dim(v)


def test_relation_annihilation_enforced(a3):
    # a module violating the relation a b must be rejected
    dims = {"1": 1, "2": 1, "3": 1}
    mats = {
        "a": Matrix([[1]], a3.q),
        "b": Matrix([[1]], a3.q),
    }
    with pytest.raises(StringAlgError):
        make_representation(a3, dims, mats)


def test_module_literal_roundtrip(d4sub, fixture_dir):
    text = (fixture_dir / "d4sub_m2111.mod").read_text()
    m = parse_module_literal(d4sub, text)
    assert m.dimension_vector() == {"0": 2, "1": 1, "2": 1, "3": 1}
    again = parse_module_literal(d4sub, serialize_module_literal(m))
    for a in d4sub.quiver.arrows:
        assert again.mat(a.name) == m.mat(a.name)


@pytest.mark.parametrize("body, error", [
    ("dim: 1=1 2=1\nmap: a 1\nmap: a 0\n", "repeated map for arrow 'a' (line 4)"),
    ("dim: 1=1 2=1\ndim: 1=2\n", "repeated dimension for vertex '1' (line 3)"),
    ("dim: 1=1 1=2\n", "repeated dimension for vertex '1' (line 2)"),
])
def test_module_literal_refuses_a_repeated_key(a3, body, error):
    # a later value never silently replaces an earlier one
    with pytest.raises(ParseError) as err:
        parse_module_literal(a3, "module\n" + body)
    assert str(err.value) == error


def test_module_literal_indec_variant(d4sub, fixture_dir):
    m = parse_module_literal(d4sub, (fixture_dir / "d4sub_m2111_indec.mod").read_text())
    assert m.mat("a") != m.mat("b")


def test_subrepresentation(a3):
    p1 = projective(a3, "1")  # nodes e1 at vertex 1, a at vertex 2
    sub_rows = {"2": Matrix([[1]], a3.q)}
    sub, incl = subrepresentation(p1, sub_rows)
    assert sub.dimension_vector() == {"1": 0, "2": 1, "3": 0}


def test_subrepresentation_rejects_noninvariant(a3):
    p1 = projective(a3, "1")
    bad_rows = {"1": Matrix([[1]], a3.q)}  # e1 generates the whole module
    with pytest.raises(StringAlgError):
        subrepresentation(p1, bad_rows)
