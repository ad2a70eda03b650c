"""Seeded type-A string presentations for the census workload.

Each presentation is a path 1 - 2 - ... - n whose arrows are oriented at
random.  Wherever two arrows compose through a vertex, a zero relation of
length two is added with probability ``relation_p``.  A monomial quotient of
a type-A path algebra is a string algebra of finite representation type, so
``verify-main-theorem`` has a finite catalog on every input.

Presentations are drawn until their catalogs reach a fixed total weight,
within 5 %, so that every seed asks for about the same amount of work.
"""

from __future__ import annotations

import random


def type_a_presentation(rng: random.Random, n: int, relation_p: float) -> tuple[str, int]:
    """One presentation in the ``.sba`` grammar, drawn from ``rng``, and its
    catalog weight."""
    if n < 2:
        raise ValueError("a type-A presentation needs at least two vertices")
    lines = ["vertices: " + " ".join(str(v) for v in range(1, n + 1))]
    forward = []  # forward[i] is True when arrow a{i+1} points from i+1 to i+2
    for i in range(1, n):
        forward.append(rng.random() < 0.5)
        src, tgt = (i, i + 1) if forward[-1] else (i + 1, i)
        lines.append(f"arrow: a{i} {src} {tgt}")
    zero_at = []  # vertices where a relation kills the path through them
    for i in range(1, n - 1):
        # arrows a{i} and a{i+1} meet at vertex i+1
        if forward[i - 1] != forward[i] or rng.random() >= relation_p:
            continue
        path = (f"a{i}", f"a{i + 1}") if forward[i] else (f"a{i + 1}", f"a{i}")
        lines.append("relation: " + " ".join(path))
        zero_at.append(i + 1)
    return "\n".join(lines) + "\n", catalog_weight(n, zero_at)


# the fixed cost of one verify-main-theorem call (parsing, catalog, setting
# up the scan) in weight units; fitted as 0.064 s per call against 0.00064 s
# per unit of (modules x dimensions) over 24 distinct n = 6 algebras
PER_CALL_WEIGHT = 100


def catalog_weight(n: int, zero_at: list[int]) -> int:
    """(number of indecomposables) x (sum of their dimensions), plus the
    fixed cost of one call.

    The indecomposables are the string modules on the intervals [i, j] of
    the path that pass through no relation vertex strictly inside; the
    census computes Ext^1 for every ordered pair of them, at a cost that
    grows with their dimensions, so this tracks its run time.
    """
    dims = [
        j - i + 1
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if not any(i < k < j for k in zero_at)
    ]
    return len(dims) * sum(dims) + PER_CALL_WEIGHT


def census_inputs(seed: int, n: int, relation_p: float, weight: int) -> list[tuple[str, str]]:
    """(file name, text) pairs fixed by ``seed`` whose catalog weights add up
    to ``weight`` within 5 %; a draw that would overshoot is skipped."""
    rng = random.Random(f"census:{seed}")
    out: list[tuple[str, str]] = []
    total = 0
    while total < 0.95 * weight:
        text, w = type_a_presentation(rng, n, relation_p)
        if total + w <= 1.05 * weight:
            out.append((f"typeA{len(out):02d}.sba", text))
            total += w
    return out
