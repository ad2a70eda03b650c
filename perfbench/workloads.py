"""The four workloads: the CLI operations each one runs and the checks that
decide whether an operation succeeded.

An operation is one ``stringalg.cli.main`` invocation in ``--format
structured`` at ``--jobs 1``.  Its output is correct when the exit code is 0,
the workload's semantic checks pass, and its stdout is byte-identical to the
same operation's stdout in the run's first round.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import census_gen

OUT_DIR = ".perfbench_out"

WITNESS_P, WITNESS_Q = 11, 23
DEGENERATION_MAX_DIM = 8
DEGENERATION_SEEDS = 2
WORDS_MAX_LEN = 14
CLASSIFY_BOUND = 300
# census: algebras on CENSUS_N vertices, drawn up to a total catalog weight
CENSUS_N, CENSUS_RELATION_P, CENSUS_WEIGHT = 6, 0.3, 6000


@dataclass
class Op:
    """One CLI invocation and the semantic check of its structured stdout."""

    label: str
    argv: list[str]
    check: Callable[[dict[str, str], list[str]], list[str]]
    inputs: list[str]  # presentation files it loads


def parse_structured(stdout: str) -> tuple[dict[str, str], list[str]]:
    """Leading ``key=value`` items of a structured report, and the free lines."""
    lines = stdout.splitlines()
    items: dict[str, str] = {}
    k = 0
    for k, line in enumerate(lines):
        m = re.fullmatch(r"([a-z_]+)=(.*)", line)
        if m is None:
            break
        items[m.group(1)] = m.group(2)
    else:
        k = len(lines)
    return items, lines[k:]


def _expect(items: dict[str, str], **want) -> list[str]:
    return [
        f"{key}={items.get(key)!r}, expected {str(value)!r}"
        for key, value in want.items()
        if items.get(key) != str(value)
    ]


def gate(op: Op, code: int | None, stdout: str, error: str | None = None) -> list[str]:
    """Reasons the operation failed; empty when it succeeded."""
    if error is not None:
        return [f"raised {error}"]
    problems = [] if code == 0 else [f"exit code {code}"]
    items, lines = parse_structured(stdout)
    if items.get("format") != "stringalg.v1":
        problems.append("stdout is not a structured stringalg.v1 report")
    return problems + op.check(items, lines)


def _cli(seed: int, command: str, *args: str) -> list[str]:
    return ["--format", "structured", "--seed", str(seed), "--jobs", "1", command, *args]


# -- workloads ------------------------------------------------------------


def witness(root: Path, seed: int) -> list[Op]:
    def check(items, lines):
        summands = [l for l in lines if l.startswith("summand ")]
        return _expect(items, command="witness", p=WITNESS_P, q=WITNESS_Q,
                       summands=WITNESS_P, dim_middle=12 * WITNESS_P) + (
            [] if len(summands) == WITNESS_P else [f"{len(summands)} summand lines"]
        )

    gp = "fixtures/gp.sba"
    argv = _cli(seed, "witness", gp, "--p", str(WITNESS_P), "--q", str(WITNESS_Q))
    return [Op("witness", argv, check, [gp])]


def degeneration(root: Path, seed: int) -> list[Op]:
    """The scan at DEGENERATION_SEEDS program seeds drawn from ``seed``: the
    random endomorphisms ``decompose`` tries, and so the work, differ by
    seed, and a sum over several seeds varies less from run to run."""
    def check(items, lines):
        return _expect(items, command="degeneration", verdict="PASS", modules=602, pairs=3884)

    a3nr = "fixtures/a3nr.sba"
    return [
        Op(f"degeneration:{s}", _cli(s, "degeneration", a3nr, "--max-dim", str(DEGENERATION_MAX_DIM)),
           check, [a3nr])
        for s in range(DEGENERATION_SEEDS * seed, DEGENERATION_SEEDS * (seed + 1))
    ]


def census(root: Path, seed: int) -> list[Op]:
    """verify-main-theorem on seeded type-A presentations; the files are
    written under OUT_DIR and checked by ``census_preflight`` first."""
    out = root / OUT_DIR / f"census-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)

    def check(items, lines):
        findings = [l for l in lines if l.startswith("ext(")]
        problems = _expect(items, command="verify-main-theorem", verdict="PASS")
        if any(l.startswith("VIOLATION") for l in lines):
            problems.append("VIOLATION line")
        if items.get("pairs_with_extensions") != str(len(findings)) or not findings:
            problems.append(f"{len(findings)} ext lines for "
                            f"pairs_with_extensions={items.get('pairs_with_extensions')}")
        return problems

    ops = []
    for name, text in census_gen.census_inputs(seed, CENSUS_N, CENSUS_RELATION_P, CENSUS_WEIGHT):
        path = out / name
        path.write_text(text)
        rel = str(path.relative_to(root))
        # every indecomposable of a type-A algebra on n vertices has
        # dimension at most n, so max-dim n covers the whole catalog
        argv = _cli(seed, "verify-main-theorem", rel, "--max-dim", str(CENSUS_N))
        ops.append(Op(f"census:{name}", argv, check, [rel]))
    return ops


def census_preflight(ops: list[Op], run_cli) -> list[str]:
    """Check each generated presentation with ``validate`` (string=yes) and
    ``classify`` (verdict=Finite) before any timing."""
    problems = []
    for op in ops:
        for command, want in (("validate", {"string": "yes"}), ("classify", {"verdict": "Finite"})):
            code, stdout = run_cli(["--format", "structured", command, *op.inputs])
            items, _ = parse_structured(stdout)
            bad = ([] if code == 0 else [f"exit code {code}"]) + _expect(items, **want)
            problems += [f"{op.inputs[0]}: {command}: {b}" for b in bad]
    return problems


def combinatorics(root: Path, seed: int) -> list[Op]:
    def check_words(items, lines):
        return _expect(items, command="words", max_len=WORDS_MAX_LEN, count=13743) + (
            [] if items.get("count") == str(len(lines)) else [f"{len(lines)} word lines"]
        )

    def check_classify(items, lines):
        return _expect(items, command="classify", verdict="Domestic", bound=CLASSIFY_BOUND)

    gp, kron = "fixtures/gp.sba", "fixtures/kronecker.sba"
    return [
        Op("words", _cli(seed, "words", gp, "--max-len", str(WORDS_MAX_LEN)), check_words, [gp]),
        Op("classify", _cli(seed, "classify", kron, "--bound", str(CLASSIFY_BOUND)),
           check_classify, [kron]),
    ]


WORKLOADS: dict[str, Callable[[Path, int], list[Op]]] = {
    "witness": witness,
    "degeneration": degeneration,
    "census": census,
    "combinatorics": combinatorics,
}
