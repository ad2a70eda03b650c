import dataclasses
import hashlib
import json

import pytest

from stringalg.cli import main
from stringalg.errors import StringAlgError, VerificationError
from stringalg.presentation import load_presentation
from stringalg.reps import simple
from stringalg.verify import middle_term_scan


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_gp(capsys, fixture_dir):
    code, out = run(capsys, "validate", str(fixture_dir / "gp.sba"))
    assert code == 0
    assert "string: yes" in out


def test_validate_d4sub_fails(capsys, fixture_dir):
    code, out = run(capsys, "validate", str(fixture_dir / "d4sub.sba"))
    assert code == 1
    assert "in-degree 3" in out


def test_validate_a3(capsys, fixture_dir):
    code, _ = run(capsys, "validate", str(fixture_dir / "a3.sba"))
    assert code == 0


def test_validate_missing_file(capsys, fixture_dir):
    code = main(["validate", str(fixture_dir / "nope.sba")])
    assert code == 2


def test_words_command(capsys, fixture_dir):
    code, out = run(capsys, "words", str(fixture_dir / "a3.sba"), "--max-len", "2")
    assert code == 0
    assert "count: 5" in out


def test_classify_commands(capsys, fixture_dir):
    code, out = run(capsys, "classify", str(fixture_dir / "a3.sba"))
    assert code == 0 and "Finite" in out
    code, out = run(capsys, "classify", str(fixture_dir / "kronecker.sba"))
    assert code == 0 and "Domestic" in out and "bound" not in out
    # --bound is echoed and leaves the exact verdict unchanged
    code, out = run(capsys, "classify", str(fixture_dir / "kronecker.sba"), "--bound", "2")
    assert code == 0 and "Domestic" in out and "bound: 2" in out
    code, out = run(capsys, "classify", str(fixture_dir / "gp.sba"))
    assert code == 0 and "NonDomestic" in out


def test_modules_command(capsys, fixture_dir):
    code, out = run(capsys, "modules", str(fixture_dir / "a3.sba"), "--max-dim", "3")
    assert code == 0
    assert "count: 5" in out
    assert "projective" in out


def test_hom_and_ext_commands(capsys, fixture_dir):
    code, out = run(capsys, "hom", str(fixture_dir / "a3.sba"), "--from", "e(2)", "--to", "e(2)")
    assert code == 0 and "hom_dim: 1" in out
    code, out = run(capsys, "ext", str(fixture_dir / "a3.sba"), "--from", "e(1)", "--to", "e(2)")
    assert code == 0 and "ext1_dim: 1" in out


def test_middle_census_command(capsys, fixture_dir):
    code, out = run(
        capsys,
        "middle-census",
        str(fixture_dir / "d4sub.sba"),
        "--from", "@" + str(fixture_dir / "d4sub_m2111.mod"),
        "--to", "e(0)",
    )
    assert code == 0
    assert "histogram: 2:3 3:3" in out


def test_middle_census_field_cap(capsys, fixture_dir):
    code = main([
        "middle-census", str(fixture_dir / "a3.sba"), "--from", "e(1)", "--to", "e(2)",
    ])
    assert code == 2  # default field order 32003 exceeds the census cap


def test_ar_command(capsys, fixture_dir):
    code, out = run(capsys, "ar", str(fixture_dir / "a3.sba"), "--word", "e(1)")
    assert code == 0
    assert "tau: e(2)" in out
    assert "middle_summands: 1" in out
    assert "verified" in out


def test_degeneration_command(capsys, fixture_dir):
    code, out = run(capsys, "degeneration", str(fixture_dir / "a3.sba"), "--max-dim", "4")
    assert code == 0
    assert "verdict: PASS" in out
    assert "hom_leq=true" in out


def test_a_wrong_middle_count_fails_the_degeneration_scan(capsys, fixture_dir, monkeypatch):
    from stringalg import artheory
    from stringalg.verify import degeneration_scan
    from stringalg.words import format_walk

    real = artheory._build_ar_sequence

    def miscounted(cat, entry):
        # the sequence ending at M(e(2)) reports one middle summand too many
        seq = real(cat, entry)
        if format_walk(entry.word) != "e(2)":
            return seq
        return dataclasses.replace(seq, middle_summand_count=seq.middle_summand_count + 1)

    monkeypatch.setattr(artheory, "_build_ar_sequence", miscounted)
    # a fresh presentation, so that no cached catalog holds a true sequence
    report = degeneration_scan(load_presentation(fixture_dir / "a3.sba"), 4)
    bad = [r for r in report.rows if not r.consistent]
    assert not report.ok and bad and all(r.hom_leq for r in bad)
    code, out = run(capsys, "--format", "structured", "degeneration",
                    str(fixture_dir / "a3.sba"), "--max-dim", "4")
    assert code == 1
    assert "verdict=FAIL" in out.splitlines()


def test_a_sequence_that_fails_to_verify_in_the_degeneration_scan_exits_3(
    capsys, fixture_dir, monkeypatch
):
    from stringalg import artheory

    def broken(cat, entry):
        raise VerificationError("injected sequence failure")

    monkeypatch.setattr(artheory, "_build_ar_sequence", broken)
    code = main(["degeneration", str(fixture_dir / "a3.sba"), "--max-dim", "4"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "certificate failed to verify" in captured.err and "injected sequence" in captured.err


# sha256 of the benchmark operation's stdout, taken from the pairwise scan
@pytest.mark.parametrize("extra, digest", [
    ([], "4b8ba5630b1729521e560e362314b7127948879b516a26159e0c6e0f5246c28f"),
    (["--all-pairs"], "9fe82c7f190dfebb493f02c39120444224a40a49d2d678744bd6f7046ab72b21"),
], ids=["hom-ordered", "all-pairs"])
def test_degeneration_benchmark_output_is_pinned(extra, digest, capsys, fixture_dir):
    code, out = run(capsys, "--format", "structured", "degeneration",
                    str(fixture_dir / "a3nr.sba"), "--max-dim", "8", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the structured ar output for both readings of every non-projective
# member, one after another in catalog order, taken when each almost-split
# sequence was built from modules and verified by ShortExactSequence.verify
@pytest.mark.parametrize("name, count, digest", [
    ("a3", 2, "0ad07b73ec641f8b446d2079c53a1b9e20caea748bd6996a848ea9a78f7accb5"),
    ("a3nr", 3, "2acb43704a0d00c90bd823eb555f7afa323bab7f99774465e8eb633f87d14bba"),
    ("census_typeA_seed1_04", 11, "dfebb408a0f2d21fe04617e9d33b8fbc400772bb2946c1f1576743546f839841"),
    ("loop_arrow", 5, "952fc2f144d8d97b0b97607bd19ad5f18439ab3d0c541ef373e8a3c99d33def6"),
])
def test_ar_output_is_pinned(name, count, digest, capsys, fixture_dir):
    from stringalg.artheory import catalog_for
    from stringalg.words import format_walk, inverse

    path = str(fixture_dir / f"{name}.sba")
    members = catalog_for(load_presentation(path)).nonprojective()
    assert len(members) == count
    outs = []
    for e in members:
        # a trivial word is its own inverse and is asked once
        for word in dict.fromkeys(format_walk(w) for w in (e.word, inverse(e.word))):
            code, out = run(capsys, "--format", "structured", "ar", path, "--word", word)
            assert code == 0
            outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest


# sha256 of the stdout of the benchmark's words operation and of the other two
# formats, taken when words were printed one Walk at a time through format_walk
@pytest.mark.parametrize("fmt, max_len, digest", [
    ("structured", 14, "66bb16e120adc4952c243832ff64f073170239e26a41237430211ff0ca9107d3"),
    ("text", 8, "4456dad94a80197c12173dd5d98d1456c75b1446656b7b7591eb44bc83dbbe4b"),
    ("json", 8, "7c0699d940667275d4b97b5f033c801abdca25ed78192b45debd7a6ee06593b7"),
], ids=["structured-len14", "text-len8", "json-len8"])
def test_words_benchmark_output_is_pinned(fmt, max_len, digest, capsys, fixture_dir):
    code, out = run(capsys, "--format", fmt, "words",
                    str(fixture_dir / "gp.sba"), "--max-len", str(max_len))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_the_parser_is_built_once_and_keeps_no_state(capsys, fixture_dir):
    from stringalg.cli import build_parser

    assert build_parser() is build_parser()
    a3 = str(fixture_dir / "a3.sba")
    _, listed = run(capsys, "degeneration", a3, "--max-dim", "3", "--all-pairs")
    _, ordered = run(capsys, "degeneration", a3, "--max-dim", "3")
    assert "hom_leq=false" in listed and "hom_leq=false" not in ordered
    with pytest.raises(SystemExit):
        main(["degeneration", a3, "--max-dim", "0"])
    assert "must be at least 1" in capsys.readouterr().err
    code, out = run(capsys, "degeneration", a3, "--max-dim", "3", "--all-pairs")
    assert code == 0 and out == listed


def test_verify_main_theorem_a3(capsys, fixture_dir):
    code, out = run(
        capsys, "verify-main-theorem", str(fixture_dir / "a3.sba"), "--max-dim", "3"
    )
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_main_theorem_d4sub_fails(capsys, fixture_dir):
    code, out = run(
        capsys,
        "--allow-non-string",
        "verify-main-theorem",
        str(fixture_dir / "d4sub.sba"),
        "--max-dim", "6",
        "--module", str(fixture_dir / "d4sub_m2111_indec.mod"),
    )
    assert code == 1
    assert "verdict: FAIL" in out
    assert "VIOLATION" in out and "3 summands" in out


D4SUB_SCAN_DIM5 = """seed: 0
max_dim: 5
pairs_with_extensions: 13
verdict: FAIL
ext(S(1), S(0)) dim=1 middles={1:1}
ext(S(1), P(2)) dim=1 middles={1:1}
ext(S(1), P(3)) dim=1 middles={1:1}
ext(S(1), literal1) dim=1 middles={2:1}
ext(S(2), S(0)) dim=1 middles={1:1}
ext(S(2), P(1)) dim=1 middles={1:1}
ext(S(2), P(3)) dim=1 middles={1:1}
ext(S(2), literal1) dim=1 middles={2:1}
ext(S(3), S(0)) dim=1 middles={1:1}
ext(S(3), P(1)) dim=1 middles={1:1}
ext(S(3), P(2)) dim=1 middles={1:1}
ext(S(3), literal1) dim=1 middles={2:1}
ext(literal1, S(0)) dim=1 middles={3:1}
VIOLATION: middle with 3 summands for (literal1, S(0))
"""


def test_non_string_scan_decomposes_only_the_literals(capsys, fixture_dir, monkeypatch):
    # a simple has dimension 1 and P(v) a local endomorphism ring, so of the
    # ten candidates only the two literals need decompose; literal0 splits
    # and is dropped
    import stringalg.verify

    decomposed = []
    real = stringalg.verify.decompose

    def counted(m, **kwargs):
        decomposed.append(m)
        return real(m, **kwargs)

    monkeypatch.setattr(stringalg.verify, "decompose", counted)
    code, out = run(
        capsys, "--allow-non-string", "verify-main-theorem", str(fixture_dir / "d4sub.sba"),
        "--max-dim", "5",
        "--module", str(fixture_dir / "d4sub_m2111.mod"),
        "--module", str(fixture_dir / "d4sub_m2111_indec.mod"),
    )
    assert code == 1
    assert len(decomposed) == 2
    assert out == D4SUB_SCAN_DIM5


def test_census_cap_names_the_pair_and_the_field(capsys, fixture_dir):
    code = main(["--allow-non-string", "verify-main-theorem", str(fixture_dir / "kronecker.sba")])
    err = capsys.readouterr().err
    assert code == 2
    assert "32004 lines exceeds the cap of 10000 (Ext^1(M(e(1)), M(e(2))) over F_32003)" in err


def test_structured_output_deterministic(capsys, fixture_dir):
    args = ["--format", "structured", "validate", str(fixture_dir / "gp.sba")]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("format=stringalg.v1")


def test_json_output(capsys, fixture_dir):
    code, out = run(capsys, "--format", "json", "classify", str(fixture_dir / "gp.sba"))
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "stringalg.v1"
    assert doc["verdict"] == "NonDomestic"


def test_field_override(capsys, fixture_dir):
    code, out = run(
        capsys, "--field", "5", "ext", str(fixture_dir / "a3.sba"),
        "--from", "e(1)", "--to", "e(2)",
    )
    assert code == 0 and "ext1_dim: 1" in out


def test_verification_error_exits_3(capsys, fixture_dir, monkeypatch):
    from stringalg import artheory

    def broken(*args):
        raise VerificationError("injected exactness failure")

    # ar certifies its sequence on the table's graph maps
    monkeypatch.setattr(artheory, "certify_sequence", broken)
    code = main(["ar", str(fixture_dir / "a3.sba"), "--word", "e(1)"])
    err = capsys.readouterr().err
    assert code == 3
    assert "certificate failed to verify" in err and "injected" in err


def test_middle_census_rejects_ext_dim_4_before_decomposing(
    capsys, fixture_dir, tmp_path, monkeypatch
):
    import stringalg.decomp

    def forbidden(*args, **kwargs):
        raise AssertionError("decompose ran before the extension-dimension cap")

    monkeypatch.setattr(stringalg.decomp, "decompose", forbidden)
    # m2111 + m2111: Ext^1 into the simple at the sink has dimension 2 + 2
    doubled = tmp_path / "m2111x2.mod"
    doubled.write_text(
        "module\n"
        "dim: 0=4 1=2 2=2 3=2\n"
        "map: a 1 0 0 0; 0 0 1 0\n"
        "map: b 1 0 0 0; 0 0 1 0\n"
        "map: c 1 0 0 0; 0 0 1 0\n"
    )
    code = main([
        "middle-census", str(fixture_dir / "d4sub.sba"),
        "--from", "@" + str(doubled), "--to", "e(0)",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "156 lines exceeds the cap of 31" in err


def test_field_zero_refused(capsys, fixture_dir):
    code = main([
        "--field", "0", "hom", str(fixture_dir / "a3.sba"), "--from", "e(1)", "--to", "e(1)",
    ])
    assert code == 2
    assert "field order 0 is not prime" in capsys.readouterr().err


def test_witness_q_zero_refused(capsys, fixture_dir):
    code = main(["witness", str(fixture_dir / "gp.sba"), "--p", "11", "--q", "0"])
    assert code == 2
    assert "field order 0 is not prime" in capsys.readouterr().err


def test_split_failure_exits_3(capsys, fixture_dir, monkeypatch):
    import stringalg.decomp

    # primary kernels that never span mean an internal certificate failed,
    # not a usage error
    monkeypatch.setattr(stringalg.decomp, "_split_rows_by_factors", lambda *args: None)
    code = main([
        "middle-census", str(fixture_dir / "d4sub.sba"),
        "--from", "@" + str(fixture_dir / "d4sub_m2111.mod"), "--to", "e(0)",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert "certificate failed to verify" in err and "do not span" in err


@pytest.fixture
def off_catalog_surgery(monkeypatch):
    """Right-end surgery that appends the inverse of its own last letter, so
    that its result is missing from the catalog."""
    from stringalg import artheory
    from stringalg.words import Walk

    real = artheory._right_end

    def off_catalog(aut, w, beta):
        out = real(aut, w, beta)
        if out is None or out.is_trivial:
            return out
        return Walk(out.letters + (out.letters[-1].inverse(),))

    monkeypatch.setattr(artheory, "_right_end", off_catalog)


def test_surgery_off_the_catalog_exits_3(capsys, fixture_dir, off_catalog_surgery):
    # surgery on a member only reaches members, so a result the catalog
    # lacks is a construction bug, not an input error
    code = main(["ar", str(fixture_dir / "a3.sba"), "--word", "e(1)"])
    err = capsys.readouterr().err
    assert code == 3
    assert "surgery gave a a^-1, not a catalog word" in err


def test_a_construction_bug_is_not_a_usage_error(capsys, fixture_dir, off_catalog_surgery):
    from stringalg.artheory import ar_sequence
    from stringalg.errors import StringAlgError, VerificationError
    from stringalg.presentation import load_presentation
    from stringalg.words import parse_word

    assert not issubclass(VerificationError, StringAlgError)
    # a handler for usage errors lets the construction bug through
    p = load_presentation(fixture_dir / "a3.sba")
    with pytest.raises(VerificationError, match="not a catalog word"):
        try:
            ar_sequence(p, parse_word(p, "e(1)"))
        except StringAlgError:
            pytest.fail("a VerificationError was caught as a StringAlgError")
    assert main(["ar", str(fixture_dir / "a3.sba"), "--word", "e(1)"]) == 3
    assert "certificate failed to verify" in capsys.readouterr().err


def test_field_and_q_that_differ_are_a_usage_error(capsys, fixture_dir):
    code = main(["--field", "5", "witness", str(fixture_dir / "gp.sba"), "--p", "11", "--q", "23"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--field 5" in err and "--q 23" in err


def test_field_and_q_that_agree_are_accepted(capsys, fixture_dir):
    code, out = run(
        capsys, "--format", "structured", "--field", "23", "witness",
        str(fixture_dir / "gp.sba"), "--p", "11", "--q", "23",
    )
    assert code == 0
    assert "q=23" in out.splitlines() and "summands=11" in out.splitlines()


def test_literals_told_apart_by_their_maps(capsys, fixture_dir, tmp_path):
    # the Kronecker (1,1) modules with maps (1, 1) and (1, 2) over F_3 share
    # the dimension vector and every Hom dimension from the simples and
    # projectives, but they are not isomorphic
    paths = []
    for i, b in enumerate((1, 2)):
        path = tmp_path / f"k11_{b}.mod"
        path.write_text(f"module\ndim: 1=1 2=1\nmap: a 1\nmap: b {b}\n")
        paths += ["--module", str(path)]
    code, out = run(
        capsys, "--field", "3", "--allow-non-string", "verify-main-theorem",
        str(fixture_dir / "kronecker.sba"), "--max-dim", "4", *paths,
    )
    assert code == 0
    assert "ext(literal0, literal0) dim=1" in out
    assert "ext(literal1, literal1) dim=1" in out


VALIDATE_PINS = {
    "a3.sba": (0, ["string=yes", "S1=ok", "S2=ok", "S3=ok", "finite_dimensional=yes"]),
    "d4sub.sba": (1, [
        "string=no", "S1=violated", "S2=ok", "S3=ok", "finite_dimensional=yes",
        "violation: S1: vertex 0 has in-degree 3",
    ]),
    "cycle_ab.sba": (1, [
        "string=no", "S1=ok", "S2=ok", "S3=ok", "finite_dimensional=no",
        "relation_free_cycle: a b",
    ]),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_PINS))
def test_validate_output_pinned(name, capsys, fixture_dir):
    code, out = run(capsys, "--format", "structured", "validate", str(fixture_dir / name))
    lines = out.splitlines()
    assert lines[:3] == [
        "format=stringalg.v1", "command=validate", f"presentation={fixture_dir / name}",
    ]
    assert (code, lines[3:]) == VALIDATE_PINS[name]


def test_modules_refuses_an_infinite_dimensional_algebra(capsys, fixture_dir):
    code = main(["modules", str(fixture_dir / "cycle_ab.sba")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: algebra is infinite dimensional; relation-free cycle: a b\n"


@pytest.mark.parametrize("argv", [
    ["verify-main-theorem", "a3.sba", "--max-dim", "-1"],
    ["verify-main-theorem", "a3.sba", "--max-dim", "0"],
    ["degeneration", "a3.sba", "--max-dim", "0"],
    ["modules", "a3.sba", "--max-dim", "0"],
    ["classify", "gp.sba", "--bound", "-3"],
    ["classify", "gp.sba", "--bound", "0"],
    ["witness", "gp.sba", "--p", "11", "--search-len", "0"],
    ["words", "gp.sba", "--max-len", "-1"],
])
def test_bounds_that_make_a_verdict_vacuous_are_usage_errors(argv, capsys, fixture_dir):
    argv = [str(fixture_dir / a) if a.endswith(".sba") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"{argv[-2]} must be at least" in captured.err


@pytest.mark.parametrize("body, error", [
    ("dim: 1=1 2=1\nmap: a x\n", "bad entry 'x' for a (line 3)"),
    ("dim: 1=1 2=1\nmap: a 1.5\n", "bad entry '1.5' for a (line 3)"),
    ("dim: 1=²\n", "bad dimension '1=²' (line 2)"),
])
def test_literal_with_a_malformed_number_is_an_input_error(
    body, error, capsys, fixture_dir, tmp_path
):
    path = tmp_path / "bad.mod"
    path.write_text("module\n" + body, encoding="utf-8")
    code = main(["hom", str(fixture_dir / "a3.sba"), "--from", f"@{path}", "--to", "e(1)"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("text, argv, error", [
    ("module\ndim: 1=1 2=1\nmap: a 1\nmap: a 0\n",
     ["hom", "a3.sba", "--from", "@{input}", "--to", "e(1)"], "repeated map for arrow 'a' (line 4)"),
    ("vertices: 1\nfield: 5\nfield: 7\n", ["validate", "{input}"], "repeated field line (line 3)"),
], ids=["module-map", "presentation-field"])
def test_input_with_a_repeated_key_is_an_input_error(
    text, argv, error, capsys, fixture_dir, tmp_path
):
    path = tmp_path / "repeated.txt"
    path.write_text(text, encoding="utf-8")
    argv = [str(fixture_dir / a) if a.endswith(".sba") else a.format(input=path) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("name, error", [
    ("d4sub.sba", "S1: vertex 0 has in-degree 3"),
    ("cycle_ab.sba", "algebra is infinite dimensional; relation-free cycle: a b"),
])
def test_classify_refuses_a_non_string_or_infinite_dimensional_input(
    name, error, capsys, fixture_dir
):
    code = main(["classify", str(fixture_dir / name)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_literal_entries_are_reduced_mod_q(capsys, fixture_dir, tmp_path):
    # 10^23 is a unit mod 32003, so the literal is M(a)
    path = tmp_path / "big.mod"
    path.write_text("module\ndim: 1=1 2=1\nmap: a 100000000000000000000000\n")
    code, out = run(capsys, "hom", str(fixture_dir / "a3.sba"), "--from", f"@{path}", "--to", "a")
    assert code == 0
    assert "hom_dim: 1" in out


@pytest.mark.parametrize("token", ["²", "7" * 5000], ids=["superscript", "5000-digits"])
def test_presentation_with_a_malformed_field_is_an_input_error(token, capsys, tmp_path):
    # 5000 digits are more than int() converts from text
    path = tmp_path / "bad.sba"
    path.write_text(f"vertices: 1\nfield: {token}\n", encoding="utf-8")
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: field line needs a single integer (line 2)\n"


def test_module_without_allow_non_string_is_a_usage_error(capsys, fixture_dir, tmp_path):
    # a string scan runs over the catalog of words and would drop the literal
    path = tmp_path / "s1.mod"
    path.write_text("module\ndim: 1=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify-main-theorem", str(fixture_dir / "a3nr.sba"), "--module", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--module needs --allow-non-string" in captured.err


def test_string_scan_refuses_literals_instead_of_dropping_them(fixture_dir):
    p = load_presentation(fixture_dir / "a3nr.sba")
    with pytest.raises(StringAlgError, match="allow_non_string"):
        middle_term_scan(p, 4, extra_modules=[simple(p, "1")])
    # the command line passes an empty list
    assert middle_term_scan(p, 4, extra_modules=[]).pair_count
