"""Byte-identity of CLI output against stored structured reports.

Each file under tests/golden/ is the stdout of one invocation in
--format structured.  The CLI promises byte-identical output for a fixed
configuration and seed, so any difference here is a regression.
"""

import hashlib
from pathlib import Path

import pytest

from stringalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "words_gp_len8": ["words", "gp.sba", "--max-len", "8"],
    # loops: 30 of the 219 words begin with the inverse of their last
    # letter, where the end letters leave the reading open
    "words_nd_two_loops_len10": ["words", "nd_two_loops.sba", "--max-len", "10"],
    "classify_a3": ["classify", "a3.sba"],
    "classify_a3nr": ["classify", "a3nr.sba"],
    "classify_kronecker": ["classify", "kronecker.sba"],
    "classify_gp": ["classify", "gp.sba"],
    "classify_kronecker_bound40": ["classify", "kronecker.sba", "--bound", "40"],
    "classify_kronecker_bound300": ["classify", "kronecker.sba", "--bound", "300"],
    "classify_nd_two_loops": ["classify", "nd_two_loops.sba"],
    "classify_nd_two_loops_bound24": ["classify", "nd_two_loops.sba", "--bound", "24"],
    "modules_a3nr": ["modules", "a3nr.sba"],
    "degeneration_a3_dim4_allpairs": ["degeneration", "a3.sba", "--max-dim", "4", "--all-pairs"],
    "degeneration_a3nr_dim6_seed0": ["--seed", "0", "degeneration", "a3nr.sba", "--max-dim", "6"],
    "degeneration_a3nr_dim6_seed1": ["--seed", "1", "degeneration", "a3nr.sba", "--max-dim", "6"],
    "verify_main_theorem_a3nr_dim4": ["verify-main-theorem", "a3nr.sba", "--max-dim", "4"],
    "verify_main_theorem_census_typeA_seed1_04_jobs1": [
        "--jobs", "1", "verify-main-theorem", "census_typeA_seed1_04.sba", "--max-dim", "6",
    ],
    "verify_main_theorem_census_typeA_seed1_04_jobs2": [
        "--jobs", "2", "verify-main-theorem", "census_typeA_seed1_04.sba", "--max-dim", "6",
    ],
    "middle_census_d4sub_m2111": [
        "middle-census", "d4sub.sba", "--from", "@d4sub_m2111.mod", "--to", "e(0)",
    ],
    # a loop squaring to zero and an arrow into its vertex: the first
    # catalog with 2-dimensional Ext, checked at F_5 (the default field's
    # census would exceed the line cap)
    "verify_main_theorem_loop_arrow_field5": [
        "--field", "5", "verify-main-theorem", "loop_arrow.sba",
    ],
    "middle_census_loop_arrow_e1_x0_field5": [
        "--field", "5", "middle-census", "loop_arrow.sba", "--from", "e(1)", "--to", "x0",
    ],
    # loop_arrow's Auslander-Reiten quiver has oriented cycles; the ar
    # report names the translate by its member word, x1, where the
    # surgery reads it as x1^-1
    "degeneration_loop_arrow_dim4": ["degeneration", "loop_arrow.sba", "--max-dim", "4"],
    "ext_a3nr_e1_e2": ["ext", "a3nr.sba", "--from", "e(1)", "--to", "e(2)"],
    "ar_a3_e1": ["ar", "a3.sba", "--word", "e(1)"],
    "ar_loop_arrow_e0": ["ar", "loop_arrow.sba", "--word", "e(0)"],
    "witness_gp_p11_q23": ["witness", "gp.sba", "--p", "11", "--q", "23"],
    "witness_gp_p13_q53": ["witness", "gp.sba", "--p", "13", "--q", "53"],
    "witness_nd_two_loops_p11_q23": ["witness", "nd_two_loops.sba", "--p", "11", "--q", "23"],
}


def _fixture_arg(arg: str, fixture_dir: Path) -> str:
    """Presentation files and @<name>.mod literals name files in fixtures/."""
    if arg.endswith(".sba"):
        return str(fixture_dir / arg)
    if arg.startswith("@") and arg.endswith(".mod"):
        return "@" + str(fixture_dir / arg[1:])
    return arg


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, fixture_dir):
    argv = [_fixture_arg(a, fixture_dir) for a in CASES[name]]
    code = main(["--format", "structured", *argv])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


# words gp.sba --max-len 14 prints 13 743 lines; its stdout is pinned by hash
WORDS_GP_LEN14_SHA256 = "66bb16e120adc4952c243832ff64f073170239e26a41237430211ff0ca9107d3"


def test_words_gp_len14_output_hash(capsys, fixture_dir):
    code = main(["--format", "structured", "words", str(fixture_dir / "gp.sba"), "--max-len", "14"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == WORDS_GP_LEN14_SHA256
