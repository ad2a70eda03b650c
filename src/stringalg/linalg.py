"""Exact linear algebra over the prime field F_q.

Matrices are numpy int64 arrays with every entry kept in [0, q); all
arithmetic reduces mod q immediately, so results are exact.  Polynomials
are dense coefficient lists (low degree first) over the same field.

Two eliminations serve different needs.  Ranks and pivot lists come from
Matrix.pivots, a row echelon form that touches only the rows below each
pivot with a nonzero in its column; the rank checks take 0/1 partial
permutations and block-Vandermonde stacks, where most rows are skipped.
Kernels and solves read their coefficients off the reduced form, so they
keep Matrix.rref, which clears each pivot column above and below with one
dense update of the whole matrix per pivot: restricting that update to
the rows with a nonzero made small dense matrices 1.2-1.9x slower.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from .errors import StringAlgError

# int64 accumulators stay exact as long as inner_dim * (q-1)^2 < 2^63.
_ACC_LIMIT = 1 << 62
# float64 represents every integer below 2^53, so a BLAS product of entries in
# [0, q) is exact while inner_dim * (q-1)^2 < 2^53: every partial sum is such
# an integer, whatever order or fused multiply-adds the library uses.
_FLOAT_EXACT_LIMIT = 1 << 53
# Below this many scalar multiplications numpy's own int64 loop beats the
# float conversions (crossover near 16x16x16 with OpenBLAS).
_BLAS_MIN_WORK = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def inv_mod(a: int, q: int) -> int:
    return pow(int(a) % q, -1, q)


class Matrix:
    """Dense exact matrix over F_q.  Row-count or column-count zero is allowed."""

    __slots__ = ("a", "q")

    def __init__(self, data, q: int):
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise StringAlgError(f"matrix data must be 2-dimensional, got shape {a.shape}")
        self.a = a % q
        self.q = q

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, q: int) -> "Matrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), q)

    @classmethod
    def identity(cls, n: int, q: int) -> "Matrix":
        return cls(np.eye(n, dtype=np.int64), q)

    # -- basics -------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @property
    def T(self) -> "Matrix":
        return Matrix(self.a.T.copy(), self.q)

    def copy(self) -> "Matrix":
        return Matrix(self.a.copy(), self.q)

    def is_zero(self) -> bool:
        return self.a.size == 0 or not self.a.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.q == other.q
            and self.shape == other.shape
            and bool((self.a == other.a).all())
        )

    def __hash__(self):
        return hash((self.q, self.shape, self.a.tobytes()))

    def _check(self, other: "Matrix"):
        if self.q != other.q:
            raise StringAlgError(f"field mismatch: F_{self.q} vs F_{other.q}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix((self.a + other.a) % self.q, self.q)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        return Matrix((self.a - other.a) % self.q, self.q)

    def __neg__(self) -> "Matrix":
        return Matrix((-self.a) % self.q, self.q)

    def scale(self, c: int) -> "Matrix":
        return Matrix((self.a * (int(c) % self.q)) % self.q, self.q)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise StringAlgError(f"dimension mismatch: {self.shape} @ {other.shape}")
        if self.cols * (self.q - 1) ** 2 >= _ACC_LIMIT:
            raise StringAlgError("matrix product would overflow int64 accumulators")
        if (self.rows * self.cols * other.cols >= _BLAS_MIN_WORK
                and self.cols * (self.q - 1) ** 2 < _FLOAT_EXACT_LIMIT):
            prod = (self.a.astype(np.float64) @ other.a.astype(np.float64)).astype(np.int64)
        else:
            prod = self.a @ other.a
        out = Matrix.__new__(Matrix)  # prod % q is reduced already
        out.a, out.q = prod % self.q, self.q
        return out

    def __repr__(self):
        return f"Matrix({self.a.tolist()}, q={self.q})"

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        q = self.q
        a = self.a.copy()
        m, n = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(n):
            if r == m:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            p = r + int(nz[0])
            if p != r:
                a[[r, p]] = a[[p, r]]
            a[r] = a[r] * inv_mod(int(a[r, c]), q) % q
            col = a[:, c].copy()
            col[r] = 0
            a = (a - np.outer(col, a[r])) % q
            pivots.append(c)
            r += 1
        return Matrix(a, q), pivots

    def pivots(self) -> list[int]:
        """The pivot columns of A: the leftmost columns independent of the
        columns before them, the list rref() returns with its form.

        A row echelon form on a copy gives them.  At pivot column c only
        the rows below the pivot with a nonzero in column c are updated,
        and only in columns c and after; there is no normalisation and no
        back-reduction.  Row operations keep every linear relation among
        the columns, so column c gets a pivot exactly when it is not in
        the span of the columns before it, as in the reduced form."""
        q = self.q
        a = self.a.copy()
        m, n = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(n):
            if r == m:
                break
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            if nz[0]:
                # rows r and below are zero left of column c
                p = r + nz[0]
                a[[r, p], c:] = a[[p, r], c:]
            if nz.size > 1:
                # the rows below the pivot with a nonzero in column c: a
                # slice when that is every row below, which numpy indexes
                # faster than a list
                below = slice(r + 1, m) if nz.size == m - r else r + nz[1:]
                top = a[r, c:]
                sub = a[below, c:]
                f = sub[:, 0] * inv_mod(int(top[0]), q) % q
                sub -= np.multiply.outer(f, top)
                sub %= q
                a[below, c:] = sub
            pivots.append(c)
            r += 1
        return pivots

    def rank(self) -> int:
        """The dimension of the row (and column) space, the number of
        pivot columns: len(pivots())."""
        return len(self.pivots())

    def right_kernel(self) -> "Matrix":
        """Basis of {x : A x = 0}, returned as the columns of a matrix.

        The basis is the canonical one read off the RREF (one column per
        free variable, in ascending column order).
        """
        R, pivots = self.rref()
        n = self.cols
        free = [j for j in range(n) if j not in pivots]
        K = np.zeros((n, len(free)), dtype=np.int64)
        for k, j in enumerate(free):
            K[j, k] = 1
            for i, pc in enumerate(pivots):
                K[pc, k] = (-int(R.a[i, j])) % self.q
        return Matrix(K, self.q)

    def left_kernel(self) -> "Matrix":
        """Basis of {x : x A = 0}, returned as the rows of a matrix."""
        return self.T.right_kernel().T

    def solve_right(self, b: "Matrix") -> "Matrix | None":
        """One solution X of A X = B, or None when the system is inconsistent."""
        self._check(b)
        if b.rows != self.rows:
            raise StringAlgError(f"dimension mismatch: {self.shape} x = {b.shape}")
        aug = Matrix(np.hstack([self.a, b.a]), self.q)
        R, pivots = aug.rref()
        n = self.cols
        if any(p >= n for p in pivots):
            return None
        X = np.zeros((n, b.cols), dtype=np.int64)
        for i, pc in enumerate(pivots):
            X[pc] = R.a[i, n:]
        return Matrix(X, self.q)

    def solve_left(self, b: "Matrix") -> "Matrix | None":
        """One solution X of X A = B, or None."""
        sol = self.T.solve_right(b.T)
        return None if sol is None else sol.T

    # -- characteristic polynomial ------------------------------------

    def charpoly(self) -> "Poly":
        """Characteristic polynomial det(X I - A), monic of degree n."""
        if self.rows != self.cols:
            raise StringAlgError("characteristic polynomial needs a square matrix")
        q = self.q
        n = self.rows
        if n == 0:
            return Poly([1], q)
        h = self.a.copy()
        # Similarity reduction to upper Hessenberg form.
        for j in range(n - 2):
            nz = np.nonzero(h[j + 1 :, j])[0]
            if nz.size == 0:
                continue
            p = j + 1 + int(nz[0])
            if p != j + 1:
                h[[j + 1, p]] = h[[p, j + 1]]
                h[:, [j + 1, p]] = h[:, [p, j + 1]]
            piv_inv = inv_mod(int(h[j + 1, j]), q)
            for k in range(j + 2, n):
                if h[k, j]:
                    m = int(h[k, j]) * piv_inv % q
                    h[k] = (h[k] - m * h[j + 1]) % q
                    h[:, j + 1] = (h[:, j + 1] + m * h[:, k]) % q
        # Expand det(X I - H) by leading principal minors.  beta is a product
        # of subdiagonal entries, so once it vanishes every later term does.
        hl = h.tolist()
        polys = [np.array([1], dtype=np.int64)]
        for k in range(1, n + 1):
            prev = polys[k - 1]
            cur = np.zeros(k + 1, dtype=np.int64)
            cur[1:] = prev
            cur[:-1] = (cur[:-1] - hl[k - 1][k - 1] * prev) % q
            cur[-1] %= q
            beta = 1
            for i in range(k - 1, 0, -1):
                beta = beta * hl[i][i - 1] % q
                if not beta:
                    break
                coef = hl[i - 1][k - 1] * beta % q
                if coef:
                    cur[: i] = (cur[: i] - coef * polys[i - 1]) % q
            polys.append(cur)
        return Poly(polys[n].tolist(), q)


def vstack(mats: list[Matrix]) -> Matrix:
    q = mats[0].q
    return Matrix(np.vstack([m.a for m in mats]), q)


def solve_rational(a: list[list[int]], b: list[int]) -> list[Fraction] | None:
    """The solution x of a x = b over the rationals, for a square integer
    matrix a; None when a is singular.

    Fraction-free (Bareiss) elimination keeps every entry an integer, each
    division being exact, and back substitution finishes in fractions."""
    n = len(a)
    rows = [list(row) + [y] for row, y in zip(a, b)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        for i in range(k + 1, n):
            row = rows[i]
            rows[i] = [0] * (k + 1) + [
                (row[j] * top[k] - row[k] * top[j]) // prev for j in range(k + 1, n + 1)
            ]
        prev = top[k]
    x: list[Fraction] = [Fraction(0)] * n
    for i in reversed(range(n)):
        rest = sum(rows[i][j] * x[j] for j in range(i + 1, n))
        x[i] = Fraction(rows[i][n] - rest) / rows[i][i]
    return x


# ---------------------------------------------------------------------------
# polynomials over F_q
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over F_q, coefficients low degree first."""

    __slots__ = ("c", "q")

    def __init__(self, coeffs, q: int):
        c = [int(x) % q for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = c
        self.q = q

    @classmethod
    def _reduced(cls, c: list[int], q: int) -> "Poly":
        """Wrap a list of ints already in [0, q); the list is taken, not copied."""
        while c and c[-1] == 0:
            c.pop()
        p = cls.__new__(cls)
        p.c = c
        p.q = q
        return p

    @classmethod
    def x(cls, q: int) -> "Poly":
        return cls([0, 1], q)

    @property
    def degree(self) -> int:
        return len(self.c) - 1 if self.c else -1

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == [1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.q == other.q and self.c == other.c

    def __hash__(self):
        return hash((self.q, tuple(self.c)))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.c), len(other.c))
        return Poly(
            [(self.c[i] if i < len(self.c) else 0) + (other.c[i] if i < len(other.c) else 0)
             for i in range(n)],
            self.q,
        )

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.c), len(other.c))
        return Poly(
            [(self.c[i] if i < len(self.c) else 0) - (other.c[i] if i < len(other.c) else 0)
             for i in range(n)],
            self.q,
        )

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly([], self.q)
        q = self.q
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                for j, b in enumerate(other.c):
                    if b:
                        out[i + j] = (out[i + j] + a * b) % q
        return Poly(out, q)

    def scale(self, k: int) -> "Poly":
        return Poly([a * k for a in self.c], self.q)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(inv_mod(self.c[-1], self.q))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = self.q
        b = other.c
        nb = len(b)
        rem = list(self.c)
        quo = [0] * max(0, len(rem) - nb + 1)
        inv_lead = inv_mod(b[-1], q)
        for i in range(len(rem) - nb, -1, -1):
            coef = rem[i + nb - 1] * inv_lead % q
            if coef:
                quo[i] = coef
                rem[i : i + nb] = [(r - coef * c) % q for r, c in zip(rem[i : i + nb], b)]
        return Poly._reduced(quo, q), Poly._reduced(rem, q)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        return Poly([i * a for i, a in enumerate(self.c)][1:], self.q)

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        result = Poly([1], self.q)
        base = self % mod
        while e > 0:
            if e & 1:
                result = (result * base) % mod
            e >>= 1
            if e:
                base = (base * base) % mod
        return result

    def __call__(self, x: int) -> int:
        acc = 0
        for a in reversed(self.c):
            acc = (acc * x + a) % self.q
        return acc

    def eval_matrix(self, m: Matrix) -> Matrix:
        """Horner evaluation of the polynomial at a square matrix."""
        acc = Matrix.zeros(m.rows, m.rows, m.q)
        ident = Matrix.identity(m.rows, m.q)
        for a in reversed(self.c):
            acc = acc @ m + ident.scale(a)
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, a in enumerate(self.c):
            if a:
                if i == 0:
                    terms.append(str(a))
                elif i == 1:
                    terms.append(f"{a}*X" if a != 1 else "X")
                else:
                    terms.append(f"{a}*X^{i}" if a != 1 else f"X^{i}")
        return " + ".join(reversed(terms))


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """Decompose monic f as a product of squarefree parts with multiplicities."""
    q = f.q
    out: list[tuple[Poly, int]] = []

    def rec(g: Poly, mult: int):
        if g.degree <= 0:
            return
        d = g.derivative()
        if d.is_zero():
            # g = h(X^q) over the prime field, and c^(1/q) = c.
            h = Poly(g.c[::q], q)
            rec(h, mult * q)
            return
        c = g.gcd(d)
        w = g // c
        # w = product of squarefree factors appearing to exactly these mults
        i = 1
        while not w.is_one():
            y = w.gcd(c)
            piece = w // y
            if piece.degree > 0:
                out.append((piece.monic(), mult * i))
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            rec(c, mult)

    rec(f.monic(), 1)
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of squarefree f into its degree-d irreducible factors."""
    q = f.q
    if f.degree == d:
        return [f.monic()]
    while True:
        a = Poly([rng.randrange(q) for _ in range(f.degree)] + [1], q)
        if q == 2:
            # trace map over F_2
            t = Poly([], q)
            b = a % f
            for _ in range(d):
                t = (t + b) % f
                b = (b * b) % f
            g = f.gcd(t)
        else:
            e = (q**d - 1) // 2
            g = f.gcd(a.pow_mod(e, f) - Poly([1], q))
        if 0 < g.degree < f.degree:
            return sorted(
                _equal_degree_split(g.monic(), d, rng)
                + _equal_degree_split((f // g).monic(), d, rng),
                key=lambda p: (p.degree, tuple(p.c)),
            )


def _single_root(f: Poly) -> int | None:
    """The root r when f is a scalar times (X - r)^n with n prime to q, else None.

    Characteristic polynomials of endomorphisms of modules with a local
    endomorphism ring and residue field F_q have this form, and the
    squarefree stage would spend n gcd rounds on them.  (X - r)^n has
    X^(n-1) coefficient -n r, which names the only candidate root.
    """
    n, q = f.degree, f.q
    if n < 1 or n % q == 0:
        return None
    g = f.monic()
    r = -g.c[n - 1] * inv_mod(n, q) % q
    power = [math.comb(n, k) * pow(-r, n - k, q) % q for k in range(n + 1)]
    return r if g.c == power else None


def factor_poly(f: Poly) -> list[tuple[Poly, int]]:
    """Factor f into monic irreducibles with multiplicities.

    Output is deterministic: factors sorted by (degree, coefficient tuple).
    The field order must be prime.
    """
    if f.is_zero():
        raise StringAlgError("cannot factor the zero polynomial")
    root = _single_root(f)
    if root is not None:
        return [(Poly([-root, 1], f.q), f.degree)]
    rng = random.Random(0x5BA)
    factors: list[tuple[Poly, int]] = []
    for g, mult in _squarefree_parts(f):
        # distinct-degree stage
        q = g.q
        x = Poly.x(q)
        h = x
        rest = g
        d = 0
        while rest.degree > 0:
            d += 1
            if 2 * d > rest.degree:
                factors.append((rest.monic(), mult))
                break
            h = h.pow_mod(q, rest)
            gd = rest.gcd(h - x)
            if gd.degree > 0:
                for irr in _equal_degree_split(gd.monic(), d, rng):
                    factors.append((irr, mult))
                rest = rest // gd
                h = h % rest
    merged: dict[tuple[int, ...], tuple[Poly, int]] = {}
    for p, m in factors:
        key = tuple(p.c)
        if key in merged:
            merged[key] = (p, merged[key][1] + m)
        else:
            merged[key] = (p, m)
    return sorted(merged.values(), key=lambda pm: (pm[0].degree, tuple(pm[0].c)))


# ---------------------------------------------------------------------------
# sparse homogeneous solver
# ---------------------------------------------------------------------------


def sparse_kernel(nvars: int, rows: list[dict[int, int]], q: int) -> list[dict[int, int]]:
    """Kernel basis of a sparse homogeneous system over F_q.

    Each row is a dict {var: coeff} meaning sum(coeff * x[var]) = 0.  Returns
    one sparse dict per basis vector, ordered by ascending free variable.
    Commutation systems between string-like modules have at most two terms
    per equation, and elimination then never fills in, so this runs in
    near-linear time on the inputs that matter.
    """
    work: dict[int, dict[int, int]] = {}
    occ: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        r = {v: c % q for v, c in row.items() if c % q}
        if r:
            work[i] = r
            for v in r:
                occ.setdefault(v, set()).add(i)

    import heapq

    heap = [(len(r), i) for i, r in work.items()]
    heapq.heapify(heap)
    pivots: list[tuple[int, int]] = []  # (var, row id)
    pivot_of_row: dict[int, int] = {}

    while heap:
        size, i = heapq.heappop(heap)
        if i not in work or i in pivot_of_row:
            continue
        row = work[i]
        if len(row) != size:
            heapq.heappush(heap, (len(row), i))
            continue
        # pivot variable: fewest other occurrences, then smallest index
        pv = min(row, key=lambda v: (len(occ[v]), v))
        inv = inv_mod(row[pv], q)
        if inv != 1:
            for v in list(row):
                row[v] = row[v] * inv % q
        for j in list(occ[pv]):
            if j == i:
                continue
            other = work[j]
            c = other.get(pv)
            if c is None:
                continue
            for v, pc in row.items():
                nv = (other.get(v, 0) - c * pc) % q
                if nv:
                    if v not in other:
                        occ.setdefault(v, set()).add(j)
                    other[v] = nv
                else:
                    if v in other:
                        del other[v]
                        occ[v].discard(j)
            if not other:
                del work[j]
                if j in pivot_of_row:
                    raise StringAlgError("pivot row vanished during elimination")
            elif j not in pivot_of_row:
                heapq.heappush(heap, (len(other), j))
        pivots.append((pv, i))
        pivot_of_row[i] = pv

    pivot_vars = {pv for pv, _ in pivots}
    free = [v for v in range(nvars) if v not in pivot_vars]
    free_set = set(free)
    # After Gauss-Jordan, each pivot row touches its pivot and free vars only.
    basis = []
    for fv in free:
        vec = {fv: 1}
        for j in occ.get(fv, ()):  # rows still containing fv are pivot rows
            row = work.get(j)
            if row is None or j not in pivot_of_row:
                continue
            c = row.get(fv)
            if c:
                vec[pivot_of_row[j]] = (-c) % q
        basis.append(vec)
    # sanity: pivot rows may only involve free vars besides their pivot
    for pv, i in pivots:
        for v in work[i]:
            if v != pv and v not in free_set:
                raise StringAlgError("sparse elimination left a non-reduced row")
    return basis
