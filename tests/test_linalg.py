import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from stringalg.linalg import (
    Matrix,
    Poly,
    factor_poly,
    inv_mod,
    is_prime,
    solve_rational,
    sparse_kernel,
)


def brute_charpoly(rows, q):
    """Leibniz expansion of det(X I - A); independent of the Hessenberg path."""
    n = len(rows)
    coeffs = [0] * (n + 1)
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # polynomial entry of X I - A as (constant, linear) pair
            entries[i][j] = ((-rows[i][j]) % q, 1 if i == j else 0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = [1]
        for i in range(n):
            c0, c1 = entries[i][perm[i]]
            new = [0] * (len(term) + 1)
            for k, t in enumerate(term):
                new[k] = (new[k] + t * c0) % q
                new[k + 1] = (new[k + 1] + t * c1) % q
            term = new
        for k, t in enumerate(term):
            coeffs[k] = (coeffs[k] + sign * t) % q
    return coeffs


def test_is_prime():
    assert is_prime(2) and is_prime(23) and is_prime(32003) and is_prime(53)
    assert not is_prime(1) and not is_prime(21) and not is_prime(32001)


def test_identity_rank_kernel():
    q = 7
    ident = Matrix.identity(3, q)
    assert ident.rank() == 3
    assert ident.right_kernel().cols == 0
    z = Matrix.zeros(2, 3, q)
    assert z.right_kernel().cols == 3


def test_solve_and_kernel_by_substitution():
    q = 32003
    rng = random.Random(7)
    for trial in range(5):
        n = 20
        a = Matrix([[rng.randrange(q) for _ in range(n)] for _ in range(n)], q)
        x = Matrix([[rng.randrange(q)] for _ in range(n)], q)
        b = a @ x
        sol = a.solve_right(b)
        assert sol is not None
        assert (a @ sol - b).is_zero()
    # a singular system: solution plus kernel both verified by substitution
    a = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]], q)
    k = a.right_kernel()
    assert (a @ k).is_zero()
    assert a.rank() + k.cols == 3


def test_solve_inconsistent_returns_none():
    q = 5
    a = Matrix([[1, 0], [1, 0]], q)
    b = Matrix([[1], [2]], q)
    assert a.solve_right(b) is None


def test_left_kernel():
    q = 11
    a = Matrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]], q)
    lk = a.left_kernel()
    assert (lk @ a).is_zero()
    assert lk.rows + a.rank() == 3


def _rank_test_matrices(q, rng):
    """Arrays of the shapes the rank checks see, each with its rank where
    the construction fixes it (else None)."""
    out = [(np.zeros(shape, dtype=np.int64), 0) for shape in ((0, 3), (3, 0), (0, 0), (1, 1))]
    out.append((np.array([[rng.randrange(1, q)]]), 1))
    for m, n in ((4, 9), (9, 4), (12, 12), (30, 18), (18, 30)):
        for density in (1.0, 0.5, 0.1):
            rows = [[rng.randrange(q) if rng.random() < density else 0 for _ in range(n)]
                    for _ in range(m)]
            out.append((np.array(rows), None))
        # a product through k dimensions has rank at most k
        k = rng.randrange(1, min(m, n) + 1)
        left = [[rng.randrange(q) for _ in range(k)] for _ in range(m)]
        right = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        out.append((np.array(_exact_product_mod(left, right, q)), None))
        # signed 0/1 maps with at most two nonzeros per row, as in the covers
        signed = np.zeros((m, n), dtype=np.int64)
        for row in signed:
            for j in rng.sample(range(n), rng.randrange(3)):
                row[j] = rng.choice((1, q - 1))
        out.append((signed, None))
        # a partial permutation (injective when wide, surjective when tall),
        # then the same with one row repeated: the shape of the inclusions
        # and projections of exact sequences
        r = min(m, n)
        perm = np.zeros((r, max(m, n)), dtype=np.int64)
        perm[np.arange(r), rng.sample(range(max(m, n)), r)] = 1
        perm = perm if m <= n else perm.T
        out.append((perm, r))
        out.append((np.vstack([perm, perm[rng.randrange(m)]]), r))
    # block-Vandermonde stacks as in the witness split: block (k, i) is
    # z_k^i times the b x b identity, of rank b times the distinct nodes
    b = 3
    for nodes in ([1, 2, 4, 5, 6], [3, 3, 5], [2, 2, 2]):
        nodes = [z % q for z in nodes]
        stack = np.kron(np.array([[pow(z, i, q) for i in range(len(nodes))] for z in nodes]),
                        np.eye(b, dtype=np.int64))
        out.append((stack, b * len(set(nodes))))
    return out


@pytest.mark.parametrize("q", [2, 3, 23, 32003])
def test_pivots_and_rank_match_rref(q):
    rng = random.Random(q)
    for a, rank in _rank_test_matrices(q, rng):
        m = Matrix(a, q)
        before = m.a.copy()
        pivots = m.pivots()
        assert pivots == m.rref()[1]
        assert m.rank() == len(pivots)
        if rank is not None:
            assert len(pivots) == rank
        assert np.array_equal(m.a, before)


def test_charpoly_matches_brute_force():
    rng = random.Random(3)
    for q in (5, 23):
        for n in (1, 2, 3, 4):
            for _ in range(8):
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                m = Matrix(rows, q)
                assert m.charpoly() == Poly(brute_charpoly(rows, q), q)


def test_charpoly_of_sparse_matrices_matches_brute_force():
    # mostly-zero matrices keep zeros on the Hessenberg subdiagonal, where
    # the minor expansion stops early
    rng = random.Random(4)
    for q in (2, 5, 23):
        for n in (3, 4, 5):
            for _ in range(12):
                rows = [[rng.randrange(1, q) if rng.random() < 0.3 else 0 for _ in range(n)]
                        for _ in range(n)]
                m = Matrix(rows, q)
                assert m.charpoly() == Poly(brute_charpoly(rows, q), q)


def test_charpoly_cayley_hamilton():
    rng = random.Random(11)
    q = 23
    for n in (2, 5, 9):
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        m = Matrix(rows, q)
        p = m.charpoly()
        assert p.degree == n and p.c[-1] == 1
        assert p.eval_matrix(m).is_zero()


def test_charpoly_of_identity_and_jordan():
    q = 13
    ident = Matrix.identity(2, q)
    p = ident.charpoly()
    # (X - 1)^2
    assert p == Poly([1, -2, 1], q)
    n = 4
    jordan = Matrix([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)], q)
    assert jordan.charpoly() == Poly([0, 0, 0, 0, 1], q)
    facs = factor_poly(jordan.charpoly())
    assert facs == [(Poly([0, 1], q), 4)]


def test_factor_product_reconstructs():
    rng = random.Random(5)
    for q in (2, 5, 23):
        for _ in range(10):
            deg = rng.randrange(1, 9)
            f = Poly([rng.randrange(q) for _ in range(deg)] + [1], q)
            facs = factor_poly(f)
            prod = Poly([1], q)
            for p, m in facs:
                for _ in range(m):
                    prod = prod * p
            assert prod == f.monic()
            for p, _ in facs:
                assert p.c[-1] == 1
                # irreducible: no root-free proper factor of degree <= 2 sanity
                if p.degree > 1:
                    assert all(p(x) != 0 for x in range(q))or p.degree > 3


def test_factor_powers_of_one_linear_factor():
    # (X - r)^n, scaled, and times one more linear factor; the single-root
    # shortcut applies only when q does not divide n
    for q in (2, 3, 23):
        for r in range(q):
            for n in (1, 2, q - 1, q, q + 1, 2 * q + 3):
                f = Poly([1], q)
                for _ in range(n):
                    f = f * Poly([-r, 1], q)
                assert factor_poly(f.scale(q - 1)) == [(Poly([-r, 1], q), n)]
                g = f * Poly([-(r + 1), 1], q)
                want = sorted([(Poly([-r, 1], q), n), (Poly([-(r + 1), 1], q), 1)],
                              key=lambda pm: tuple(pm[0].c))
                assert factor_poly(g) == want


def test_x11_plus_1_over_f23_splits_into_11_linears():
    q = 23
    f = Poly([1] + [0] * 10 + [1], q)  # X^11 + 1
    # independent oracle: root count by direct evaluation
    roots = [x for x in range(q) if f(x) == 0]
    assert len(roots) == 11
    facs = factor_poly(f)
    assert len(facs) == 11
    assert all(p.degree == 1 and m == 1 for p, m in facs)


def test_companion_matrix_of_x11_plus_1():
    q = 23
    n = 11
    comp = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        comp[i + 1][i] = 1
    for i in range(n):
        comp[i][n - 1] = 0
    comp[0][n - 1] = -1 % q  # companion of X^11 + 1
    m = Matrix(comp, q)
    assert m.charpoly() == Poly([1] + [0] * 10 + [1], q)
    facs = factor_poly(m.charpoly())
    assert len(facs) == 11 and all(p.degree == 1 for p, _ in facs)


def test_sparse_kernel_matches_dense():
    rng = random.Random(9)
    q = 23
    for _ in range(20):
        nvars = rng.randrange(1, 8)
        nrows = rng.randrange(0, 10)
        rows = []
        dense = []
        for _ in range(nrows):
            row = {}
            for v in range(nvars):
                if rng.random() < 0.4:
                    row[v] = rng.randrange(q)
            rows.append(row)
            dense.append([row.get(v, 0) for v in range(nvars)])
        basis = sparse_kernel(nvars, rows, q)
        dense_dim = Matrix(dense, q).right_kernel().cols if dense else nvars
        assert len(basis) == dense_dim
        for vec in basis:
            for row in rows:
                acc = sum(c * vec.get(v, 0) for v, c in row.items()) % q
                assert acc == 0


def test_sparse_kernel_two_term_chain():
    # x0 = 2 x1, x1 = 3 x2 over F_7: one-dimensional kernel
    q = 7
    rows = [{0: 1, 1: -2}, {1: 1, 2: -3}]
    basis = sparse_kernel(3, rows, q)
    assert len(basis) == 1
    vec = basis[0]
    assert (vec.get(0, 0) - 2 * vec.get(1, 0)) % q == 0
    assert (vec.get(1, 0) - 3 * vec.get(2, 0)) % q == 0


def test_inv_mod():
    assert inv_mod(3, 7) == 5
    with pytest.raises(ValueError):
        inv_mod(0, 7)


def _exact_product_mod(a, b, q):
    """Schoolbook product with Python integers, reduced mod q."""
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def test_matmul_exact_on_float_and_int_paths():
    rng = random.Random(11)
    # around the float path's exactness edge for inner dimension 64: the
    # largest prime below it (float path) and the next prime above (int path)
    below = above = int((2**53 / 64) ** 0.5)
    while not (is_prime(below) and 64 * (below - 1) ** 2 < 2**53):
        below -= 1
    while not (is_prime(above) and 64 * (above - 1) ** 2 >= 2**53):
        above += 1
    far = 2**25 + 1  # a prime whose sums below overshoot 2^53 (int path)
    while not is_prime(far):
        far += 2
    for q in (5, 32003, below, above, far):
        for m, k, n in ((3, 4, 2), (20, 24, 18), (16, 64, 16)):
            a = [[rng.randrange(q) for _ in range(k)] for _ in range(m)]
            b = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            assert (Matrix(a, q) @ Matrix(b, q)).a.tolist() == _exact_product_mod(a, b, q)
        # partial sums near their largest, with an odd total, which float64
        # would round once it passes 2^53
        full_a = [[q - 1] * 63 + [1] for _ in range(16)]
        full_b = [[q - 1] * 16 for _ in range(63)] + [[1] * 16]
        got = (Matrix(full_a, q) @ Matrix(full_b, q)).a.tolist()
        assert got == _exact_product_mod(full_a, full_b, q)


def test_poly_divmod_reconstructs():
    rng = random.Random(12)
    for q in (2, 7, 32003):
        for _ in range(20):
            a = Poly([rng.randrange(q) for _ in range(rng.randrange(0, 12))], q)
            b = Poly([rng.randrange(q) for _ in range(rng.randrange(0, 6))] + [rng.randrange(1, q)], q)
            quo, rem = a.divmod(b)
            assert quo * b + rem == a
            assert rem.degree < b.degree
            assert all(0 <= c < q for c in quo.c + rem.c)
            assert all(p.c[-1] != 0 for p in (quo, rem) if p.c)


def fraction_rank(rows):
    """Rank over the rationals by plain Gauss-Jordan in fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_solve_rational_against_fraction_elimination():
    rng = random.Random(7)
    singular = 0
    for _ in range(500):
        n = rng.randrange(1, 7)
        a = [[rng.choice([0, 0, -2, -1, 1, 2, 3]) for _ in range(n)] for _ in range(n)]
        b = [rng.randrange(-4, 5) for _ in range(n)]
        x = solve_rational(a, b)
        if x is None:
            assert fraction_rank(a) < n
            singular += 1
            continue
        assert all(isinstance(v, Fraction) for v in x)
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
    assert 0 < singular < 500
