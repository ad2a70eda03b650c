"""Byte-identity of CLI output against stored structured reports.

Each file under tests/golden/ is the stdout of one invocation in
--format structured.  The CLI promises byte-identical output for a fixed
configuration and seed, so any difference here is a regression.
"""

from pathlib import Path

import pytest

from stringalg.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "words_gp_len8": ["words", "gp.sba", "--max-len", "8"],
    "classify_a3": ["classify", "a3.sba"],
    "classify_a3nr": ["classify", "a3nr.sba"],
    "classify_kronecker": ["classify", "kronecker.sba"],
    "classify_gp": ["classify", "gp.sba"],
    "classify_kronecker_bound40": ["classify", "kronecker.sba", "--bound", "40"],
    "modules_a3nr": ["modules", "a3nr.sba"],
    "degeneration_a3_dim4_allpairs": ["degeneration", "a3.sba", "--max-dim", "4", "--all-pairs"],
    "degeneration_a3nr_dim6_seed0": ["--seed", "0", "degeneration", "a3nr.sba", "--max-dim", "6"],
    "degeneration_a3nr_dim6_seed1": ["--seed", "1", "degeneration", "a3nr.sba", "--max-dim", "6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, fixture_dir):
    argv = [str(fixture_dir / a) if a.endswith(".sba") else a for a in CASES[name]]
    code = main(["--format", "structured", *argv])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
