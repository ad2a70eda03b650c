"""Decomposition into indecomposable summands.

Splitting is by Fitting's lemma: an endomorphism whose characteristic
polynomial has two distinct irreducible factors splits the module into
the corresponding primary components.  decompose searches a basis of the
endomorphism ring and then a fixed number of seeded random combinations;
a piece with a one-dimensional endomorphism ring is certainly
indecomposable, and a piece where no candidate splits is declared
indecomposable Las-Vegas style with the trial count recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError, StringAlgError, VerificationError
from .linalg import Matrix, Poly, factor_poly, inv_mod, solve_rational
from .homalg import Intertwiner, hom_basis, hom_dim
from .reps import Representation, subrepresentation


def _primary_kernel_rows(f: Intertwiner, factor: Poly, max_power: int):
    """Rows, per vertex, of the stabilized kernel of factor(f)^k."""
    rep = f.source
    p = rep.pres
    A = {v: factor.eval_matrix(f.mats[v]) for v in p.quiver.vertices}
    B = {v: A[v] for v in p.quiver.vertices}
    best = {v: B[v].left_kernel() for v in p.quiver.vertices}
    total = sum(k.rows for k in best.values())
    power = 1
    while power < max_power:
        B = {v: B[v] @ A[v] for v in p.quiver.vertices}
        nxt = {v: B[v].left_kernel() for v in p.quiver.vertices}
        ntotal = sum(k.rows for k in nxt.values())
        power += 1
        if ntotal == total:
            break
        best, total = nxt, ntotal
    return best, total


def _krylov_minpoly(M: Representation, f: Intertwiner, rng: random.Random) -> Poly:
    """Least common multiple of the minimal polynomials of f on a few random
    vectors.  Agrees with the true minimal polynomial with high probability
    and always divides it, which keeps the split test one sided.  A zero
    start vector has minimal polynomial 1 and is skipped."""
    q = M.q
    verts = [v for v in M.pres.quiver.vertices if M.dim(v)]
    lcm = Poly([1], q)
    for _ in range(3):
        w = {v: np.array([[rng.randrange(q) for _ in range(M.dim(v))]], dtype=np.int64)
             for v in verts}
        if not any(w[v].any() for v in verts):
            continue
        flat = [np.concatenate([w[v][0] for v in verts])]
        # echelon rows (pivot column, row scaled to 1 there) spanning the
        # Krylov vectors so far: a new vector depends on them exactly when
        # it reduces to zero
        echelon = [_echelon_row(flat[0], q)]
        cur = w
        for _ in range(M.total_dim):
            cur = {v: (cur[v] @ f.mats[v].a) % q for v in verts}
            flat.append(np.concatenate([cur[v][0] for v in verts]))
            vec = flat[-1]
            for col, row in echelon:
                if vec[col]:
                    vec = (vec - vec[col] * row) % q
            if not vec.any():
                break
            echelon.append(_echelon_row(vec, q))
        d = len(flat) - 1
        lead = Matrix(np.array(flat[:d], dtype=np.int64), q)
        target = Matrix(np.array([flat[d]], dtype=np.int64), q)
        sol = lead.solve_left(target)
        if sol is None:
            raise VerificationError("krylov dependence did not resolve")
        coeffs = [(-int(sol.a[0, i])) % q for i in range(d)] + [1]
        m = Poly(coeffs, q)
        g = lcm.gcd(m)
        lcm = (lcm * m) // g if not g.is_zero() else lcm * m
    return lcm


def _echelon_row(vec: np.ndarray, q: int) -> tuple[int, np.ndarray]:
    col = int(np.flatnonzero(vec)[0])
    return col, vec * inv_mod(int(vec[col]), q) % q


def _split_rows_by_factors(M: Representation, f: Intertwiner, factors):
    """Stabilized primary kernel rows for each factor; None unless they span."""
    out = []
    total = 0
    for g, eg in factors:
        rows, d = _primary_kernel_rows(f, g, M.total_dim)
        out.append((g, eg, rows))
        total += d
    if total != M.total_dim:
        return None
    return out


def _primary_rows(M: Representation, f: Intertwiner, rng: random.Random | None = None):
    """Factors of a splitting polynomial for f and the row spaces of the
    primary components, or None when no splitting is detected.

    The minimal polynomial is estimated by Krylov iteration first; when its
    primary kernels do not exhaust the module the exact characteristic
    polynomial is used instead.
    """
    rng = rng or random.Random(0x5BA)
    minpoly = _krylov_minpoly(M, f, rng)
    factors = factor_poly(minpoly)
    if len(factors) >= 2:
        data = _split_rows_by_factors(M, f, factors)
        if data is not None:
            return data
    # exact fallback
    charpoly = Poly([1], M.q)
    for v in M.pres.quiver.vertices:
        charpoly = charpoly * f.mats[v].charpoly()
    factors = factor_poly(charpoly)
    if len(factors) < 2:
        return None
    data = _split_rows_by_factors(M, f, factors)
    if data is None:
        raise VerificationError("primary components do not span; split failed")
    return data


def _primary_components(
    M: Representation, f: Intertwiner, rng: random.Random | None = None, checked: bool = False
) -> tuple[list[Representation], str] | None:
    """All primary components of M along an endomorphism, or None when the
    splitting polynomial is a power of a single irreducible."""
    if f.source is not M or f.target is not M:
        raise StringAlgError("fitting decomposition needs an endomorphism of M")
    if not checked:
        f.verify()
    data = _primary_rows(M, f, rng)
    if data is None:
        return None
    parts = []
    for g, eg, rows in data:
        sub, _ = subrepresentation(M, rows, label=f"{M.label}|{g!r}")
        if sub.total_dim == 0:
            raise VerificationError("empty primary component; split failed")
        parts.append(sub)
    witness = "splitting factors: " + " * ".join(f"({g!r})" for g, _, _ in data)
    return parts, witness


def _supports(basis: list[Intertwiner]):
    """Per vertex, the flat indices and values of the nonzero entries of
    each basis map; End bases of string and band modules are very sparse."""
    out = {}
    for v in basis[0].source.pres.quiver.vertices:
        out[v] = []
        for g in basis:
            a = g.mats[v].a.ravel()
            idx = np.flatnonzero(a)
            out[v].append((idx, a[idx]))
    return out


def _combination(rep: Representation, support, coeffs: list[int]) -> Intertwiner:
    """The endomorphism sum_i coeffs[i] basis[i], from the basis supports."""
    q = rep.q
    mats = {}
    for v, parts in support.items():
        acc = np.zeros(rep.dim(v) * rep.dim(v), dtype=np.int64)
        for c, (idx, vals) in zip(coeffs, parts):
            if c and idx.size:
                acc[idx] = (acc[idx] + c * vals) % q
        mats[v] = Matrix(acc.reshape(rep.dim(v), rep.dim(v)), q)
    return Intertwiner(rep, rep, mats)


@dataclass
class DecompositionReport:
    module: Representation
    summands: list[Representation]
    certificates: list[str]  # one per summand
    witnesses: list[str]  # splitting chain
    seed: int
    trials: int

    @property
    def summand_count(self) -> int:
        return len(self.summands)

    def lines(self) -> list[str]:
        out = []
        verts = self.module.pres.quiver.vertices
        for k, (s, cert) in enumerate(zip(self.summands, self.certificates)):
            dv = ",".join(str(s.dim(v)) for v in verts)
            out.append(f"summand {k}: dimvec=({dv}) {cert}")
        return out


def decompose(M: Representation, seed: int = 0, trials: int = 50) -> DecompositionReport:
    """Full decomposition into indecomposable summands."""
    if M.total_dim == 0:
        raise StringAlgError("cannot decompose the zero module")
    summands: list[Representation] = []
    certificates: list[str] = []
    witnesses: list[str] = []

    def rec(rep: Representation, path: tuple[int, ...]):
        endo = hom_basis(rep, rep)
        if len(endo) == 1:
            summands.append(rep)
            certificates.append("endo_local=yes(end_dim=1)")
            return
        rng = random.Random(hash((seed, 0x5BA) + path))

        def candidates():
            # random combinations split decomposables almost surely, so try
            # them first; the basis sweep completes the certificate
            support = _supports(endo)
            for t in range(trials):
                coeffs = [rng.randrange(rep.q) for _ in endo]
                yield f"random[{t}]", _combination(rep, support, coeffs)
            for i, f in enumerate(endo):
                yield f"basis[{i}]", f

        for name, f in candidates():
            split = _primary_components(rep, f, rng=rng, checked=True)
            if split is not None:
                parts, why = split
                witnesses.append(f"split at depth {len(path)} by {name}: {why}")
                for k, part in enumerate(parts):
                    rec(part, path + (k,))
                return
        summands.append(rep)
        certificates.append(f"endo_local=yes(trials={trials})")

    rec(M, ())
    return DecompositionReport(M, summands, certificates, witnesses, seed, trials)


def catalog_decompose(
    M: Representation,
    catalog: list[Representation],
    hom_matrix: list[list[int]],
) -> list[int]:
    """Multiplicities of catalog members in M, via the hom-count linear system.

    Solves H x = h where H[i][j] = dim Hom(catalog[i], catalog[j]) is the
    catalog's hom table and h[i] = dim Hom(catalog[i], M).  The solution
    must be a vector of nonnegative integers; anything else signals an
    incomplete catalog.
    """
    if not catalog:
        raise CatalogError("empty catalog")
    mults = solve_rational(hom_matrix, [hom_dim(u, M) for u in catalog])
    if mults is None:
        raise CatalogError("singular hom matrix; catalog incomplete or redundant")
    for x in mults:
        if x.denominator != 1 or x < 0:
            raise CatalogError(f"non-integral or negative multiplicity {x}; catalog incomplete")
    result = [int(x) for x in mults]
    if sum(m * u.total_dim for m, u in zip(result, catalog)) != M.total_dim:
        raise CatalogError("multiplicities do not account for the module dimension")
    return result
