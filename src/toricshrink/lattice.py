"""Exact integer linear algebra: primitive vectors, one diagonal elimination, lattice quotients.

Everything here runs on plain Python integers (arbitrary precision), so
intermediate growth during row/column reduction can never overflow or wrap.
diagonalize is the one elimination: it returns the nonzero pivots d and the
unimodular column transform V, and nothing else. Integer kernels are the
columns of V past the rank, primitive because V is unimodular; a quotient's
invariant factors are the divisibility chain of d, made by gcd/lcm steps on
the diagonal alone. Rational rows enter cleared of their denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ZeroNormal(ValueError):
    """A zero vector was used where a direction is required."""


@dataclass(frozen=True)
class AbelianGroup:
    """Finite(-ly generated) abelian group in invariant-factor form.

    invariant_factors: d_1 | d_2 | ... | d_k with every d_i >= 2.
    free_rank: number of Z summands.
    """

    invariant_factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be >= 0")

    @property
    def order(self) -> int:
        if self.free_rank:
            raise ValueError("infinite group has no order")
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " x ".join(parts) if parts else "trivial"


def primitive_reduce(v) -> tuple[tuple[int, ...], int]:
    """Factor an integer vector as primitive * positive multiplier.

    The multiplier is always positive; any overall sign stays in the
    primitive vector, so the factorization is unique.
    """
    entries = tuple(int(x) for x in v)
    g = math.gcd(*entries) if entries else 0
    if g == 0:
        raise ZeroNormal("cannot reduce the zero vector")
    return tuple(x // g for x in entries), g


def diagonalize(A) -> tuple[list[int], list[list[int]]]:
    """Return (d, V): V unimodular and A*V = W*diag(d) for a unimodular W.

    d holds the rank-many nonzero pivots, positive; the columns of V past
    them span the integer kernel of A. At each step the smallest nonzero
    entry of the remaining block becomes the pivot, and Euclidean row and
    column steps clear its column and row until both are zero. Only the
    column steps are recorded. d need not be a divisibility chain; see
    invariant_factors.
    """
    A = [[int(x) for x in row] for row in A]
    S = [row[:] for row in A]
    m = len(S)
    n = len(S[0]) if m else 0
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    d = []
    t = 0
    while t < min(m, n) and (
        nonzero := [(abs(S[i][j]), i, j) for i in range(t, m) for j in range(t, n) if S[i][j]]
    ):
        _, pi, pj = min(nonzero)
        S[t], S[pi] = S[pi], S[t]
        for row in S + V:
            row[t], row[pj] = row[pj], row[t]
        p = S[t][t]
        for i in range(t + 1, m):
            if q := S[i][t] // p:
                S[i] = [a - q * b for a, b in zip(S[i], S[t])]
        for j in range(t + 1, n):
            if q := S[t][j] // p:
                for row in S + V:
                    row[j] -= q * row[t]
        if not any(S[i][t] for i in range(t + 1, m)) and not any(S[t][t + 1 :]):
            d.append(abs(p))
            t += 1
    # the postcondition, checked without a row transform: A V vanishes past
    # the rank, and its column j < rank is a multiple of d_j
    AV = [[sum(a * V[k][j] for k, a in enumerate(row)) for j in range(n)] for row in A]
    assert all(r[j] % d[j] == 0 if j < t else r[j] == 0 for r in AV for j in range(n))
    return d, V


def invariant_factors(d) -> list[int]:
    """The divisibility chain of the positive diagonal d: each pair (a, b) becomes (gcd, lcm)."""
    d = list(d)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return d


def integer_kernel(A) -> list[tuple[int, ...]]:
    """Integer basis of {x : A x = 0}; the basis spans a saturated sublattice."""
    d, V = diagonalize(A)
    return [tuple(row[j] for row in V) for j in range(len(d), len(V))]


def quotient_group(sublattice_gens, ambient_rank: int) -> AbelianGroup:
    """Invariant factors and free rank of Z^ambient_rank modulo the row span of the generators.

    The free rank is ambient_rank minus the rank of the generators; when it
    is 0 the group order equals |det| of any generator basis.
    """
    gens = [[int(x) for x in row] for row in sublattice_gens]
    for row in gens:
        if len(row) != ambient_rank:
            raise ValueError("generator length does not match ambient rank")
    d = diagonalize(gens)[0]
    factors = tuple(x for x in invariant_factors(d) if x > 1)
    return AbelianGroup(invariant_factors=factors, free_rank=ambient_rank - len(d))
