"""Exact integer linear algebra: primitive vectors, Smith normal form, lattice quotients.

Everything here runs on plain Python integers and Fractions (arbitrary
precision), so intermediate growth during row/column reduction can never
overflow or wrap. rref is the one exact elimination of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


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

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

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


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    return [
        [sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def smith_normal_form(A) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, S, V) with U*A*V = S, U and V unimodular, S in Smith form.

    S is diagonal (rectangular allowed) with nonnegative entries satisfying
    the divisibility chain d_1 | d_2 | ... Exact integer arithmetic throughout.
    """
    S = [[int(x) for x in row] for row in A]
    m = len(S)
    n = len(S[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def row_op(i, j, c):  # row_i += c * row_j
        for k in range(n):
            S[i][k] += c * S[j][k]
        for k in range(m):
            U[i][k] += c * U[j][k]

    def col_op(i, j, c):  # col_i += c * col_j
        for k in range(m):
            S[k][i] += c * S[k][j]
        for k in range(n):
            V[k][i] += c * V[k][j]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for k in range(m):
            S[k][i], S[k][j] = S[k][j], S[k][i]
        for k in range(n):
            V[k][i], V[k][j] = V[k][j], V[k][i]

    def row_negate(i):
        for k in range(n):
            S[i][k] = -S[i][k]
        for k in range(m):
            U[i][k] = -U[i][k]

    r = min(m, n)
    for t in range(r):
        # move a nonzero pivot of smallest magnitude to (t, t)
        while True:
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if S[i][j] != 0 and (best is None or abs(S[i][j]) < best):
                        best = abs(S[i][j])
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            # clear column t and row t by Euclidean steps
            dirty = False
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    q = S[i][t] // S[t][t]
                    row_op(i, t, -q)
                    if S[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    q = S[t][j] // S[t][t]
                    col_op(j, t, -q)
                    if S[t][j] != 0:
                        dirty = True
            if not dirty:
                break
        if S[t][t] < 0:
            row_negate(t)

    # enforce the divisibility chain; each fix replaces d_i by gcd(d_i, d_j)
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # bring b into row i, then re-reduce the 2x2 diagonal block
                row_op(i, i + 1, 1)
                while S[i][i + 1] != 0 or S[i + 1][i] != 0:
                    if S[i][i + 1] != 0:
                        q = S[i][i + 1] // S[i][i] if S[i][i] != 0 else 0
                        col_op(i + 1, i, -q)
                        if S[i][i + 1] != 0:
                            col_swap(i, i + 1)
                    if S[i + 1][i] != 0:
                        q = S[i + 1][i] // S[i][i] if S[i][i] != 0 else 0
                        row_op(i + 1, i, -q)
                        if S[i + 1][i] != 0:
                            row_swap(i, i + 1)
                if S[i][i] < 0:
                    row_negate(i)
                if S[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True
            elif a == 0 and b != 0:
                row_swap(i, i + 1)
                col_swap(i, i + 1)
                changed = True

    assert _mat_mul(_mat_mul(U, [[int(x) for x in row] for row in A]), V) == S
    return U, S, V


def integer_kernel(A) -> list[tuple[int, ...]]:
    """Integer basis of {x : A x = 0}; the basis spans a saturated sublattice."""
    m = len(A)
    n = len(A[0]) if m else 0
    if m == 0:
        return [tuple(row) for row in _identity(n)]
    _, S, V = smith_normal_form(A)
    rank = sum(1 for i in range(min(m, n)) if S[i][i] != 0)
    return [tuple(V[i][j] for i in range(n)) for j in range(rank, n)]


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals: (reduced rows, pivot columns).

    Columns are taken left to right; each pivot is the first nonzero entry at
    or below the current row, scaled to 1 and cleared from every other row.
    """
    R = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def quotient_group(sublattice_gens, ambient_rank: int) -> AbelianGroup:
    """Invariant factors and free rank of Z^ambient_rank modulo the row span of the generators.

    The free rank is ambient_rank minus the rank of the generators; when it
    is 0 the group order equals |det| of any generator basis.
    """
    gens = [[int(x) for x in row] for row in sublattice_gens]
    for row in gens:
        if len(row) != ambient_rank:
            raise ValueError("generator length does not match ambient rank")
    S = smith_normal_form(gens)[1] if gens else []
    diag = [S[i][i] for i in range(min(len(gens), ambient_rank))]
    rank = sum(1 for d in diag if d != 0)
    factors = tuple(d for d in diag if d > 1)
    return AbelianGroup(invariant_factors=factors, free_rank=ambient_rank - rank)
