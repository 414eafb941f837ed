import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricshrink.lattice import (
    AbelianGroup,
    ZeroNormal,
    integer_kernel,
    primitive_reduce,
    quotient_group,
    rref,
    smith_normal_form,
)


# saturation bases: test_polyhedra's reference for the structure group reads
# one; the package computes structure groups without them

def saturation_basis(A) -> list[tuple[int, ...]]:
    """Basis of the saturation (rational row span intersected with Z^n) of the rows of A."""
    m = len(A)
    n = len(A[0]) if m else 0
    _, S, V = smith_normal_form(A)
    rank = sum(1 for i in range(min(m, n)) if S[i][i] != 0)
    Vinv = unimodular_inverse(V)
    return [tuple(Vinv[i]) for i in range(rank)]


def unimodular_inverse(V) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (Gauss-Jordan over Fractions)."""
    n = len(V)
    R, pivots = rref([list(V[i]) + [int(i == j) for j in range(n)] for i in range(n)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is not unimodular")
    out = [row[n:] for row in R]
    for row in out:
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


class TestPrimitiveReduce:
    def test_gcd_factor_out(self):
        assert primitive_reduce((2, 4)) == ((1, 2), 2)

    def test_already_primitive(self):
        assert primitive_reduce((0, 1)) == ((0, 1), 1)

    def test_negative_entries(self):
        # gcd(-6, 9) = 3; the sign stays in the primitive vector
        assert primitive_reduce((-6, 9)) == ((-2, 3), 3)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroNormal):
            primitive_reduce((0, 0))

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(
            lambda v: any(x != 0 for x in v)
        )
    )
    def test_roundtrip_and_gcd(self, v):
        prim, mult = primitive_reduce(v)
        assert mult > 0
        assert tuple(p * mult for p in prim) == tuple(v)
        assert math.gcd(*prim) == 1


class TestSmithNormalForm:
    def test_identity(self):
        U, S, V = smith_normal_form([[1, 0], [0, 1]])
        assert S == [[1, 0], [0, 1]]

    def test_already_diagonal(self):
        _, S, _ = smith_normal_form([[2, 0], [0, 4]])
        assert S == [[2, 0], [0, 4]]

    def test_row_reduction(self):
        A = [[1, 0], [1, 2]]
        U, S, V = smith_normal_form(A)
        assert S == [[1, 0], [0, 2]]
        assert mat_mul(mat_mul(U, A), V) == S

    def test_rectangular(self):
        A = [[2, 4, 4]]
        U, S, V = smith_normal_form(A)
        assert S[0][0] == 2
        assert S[0][1:] == [0, 0]

    @settings(max_examples=200)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.data(),
    )
    def test_transform_and_chain(self, m, n, data):
        A = [
            [data.draw(st.integers(-9, 9)) for _ in range(n)]
            for _ in range(m)
        ]
        U, S, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == S
        diag = [S[i][i] for i in range(min(m, n))]
        # off-diagonal zero
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        # nonnegative, divisibility chain, zeros trailing
        for d in diag:
            assert d >= 0
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # U, V unimodular
        assert abs(det(U)) == 1
        assert abs(det(V)) == 1


def det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


class TestKernelAndSaturation:
    def test_kernel_of_interval_projection(self):
        # rows m_i n_i transposed: the map c -> sum c_i m_i n_i for [-2, 2]
        assert integer_kernel([[1, -1]]) == [(1, 1)]

    def test_kernel_orthogonality(self):
        A = [[1, 2, 3], [0, 1, 1]]
        for k in integer_kernel(A):
            for row in A:
                assert sum(r * x for r, x in zip(row, k)) == 0

    def test_saturation_of_scaled_row(self):
        # span{(2, 4)} saturates to the lattice generated by (1, 2)
        basis = saturation_basis([[2, 4]])
        assert len(basis) == 1
        b = basis[0]
        assert abs(b[0] * 2 - b[1] * 1) == 0  # proportional to (1, 2)
        assert math.gcd(*b) == 1

    def test_unimodular_inverse(self):
        V = [[1, 1], [0, 1]]
        assert unimodular_inverse(V) == [[1, -1], [0, 1]]

    def test_rref_of_rank_deficient_rows(self):
        R, pivots = rref([[0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 5]])
        assert pivots == [1, 3]
        assert R == [[0, 1, 2, 0], [0, 0, 0, 1], [0, 0, 0, 0]]

    def test_unimodular_inverse_rejects_singular_and_non_unimodular(self):
        for V in ([[2, 3, 1], [1, 2, 1], [0, 1, 1]], [[2, 0], [0, 1]]):
            with pytest.raises(ValueError, match="not unimodular"):
                unimodular_inverse(V)


def coset_group_structure(gens):
    """Brute-force invariant factors of Z^2 / <rows of gens> (2x2, |det| <= 24)."""
    a, b = gens[0]
    c, d = gens[1]
    D = abs(a * d - b * c)
    assert 1 <= D <= 24
    # D * Z^2 lies in the row lattice, so cosets live in [0, D)^2.
    # membership: v in lattice iff v * adj / det is integral
    def in_lattice(v):
        x, y = v
        det_ = a * d - b * c
        p = x * d - y * c
        q = -x * b + y * a
        return p % det_ == 0 and q % det_ == 0

    reps = []
    for x in range(D):
        for y in range(D):
            if not any(in_lattice((x - rx, y - ry)) for rx, ry in reps):
                reps.append((x, y))
    order = len(reps)

    def elt_order(v):
        k = 1
        cur = v
        while not in_lattice(cur):
            k += 1
            cur = (v[0] * k, v[1] * k)
        return k

    exponent = 1
    for r in reps:
        exponent = exponent * elt_order(r) // math.gcd(exponent, elt_order(r))
    d1 = order // exponent
    factors = tuple(d for d in (d1, exponent) if d > 1)
    return order, factors


class TestQuotientGroup:
    def test_rank_one_cyclic(self):
        g = quotient_group([[5]], 1)
        assert g.invariant_factors == (5,)
        assert g.order == 5

    def test_trivial(self):
        g = quotient_group([[1, 0], [0, 1]], 2)
        assert g.is_trivial
        assert str(g) == "trivial"

    def test_z2(self):
        g = quotient_group([[1, 0], [1, 2]], 2)
        assert g.invariant_factors == (2,)

    def test_overdetermined_generators(self):
        g = quotient_group([[2, 0], [0, 2], [1, 1]], 2)
        assert g.order == 2

    def test_rank_deficient_has_free_rank(self):
        assert quotient_group([[1, 2], [2, 4]], 2) == AbelianGroup(free_rank=1)
        g = quotient_group([[2, 4]], 2)
        assert g == AbelianGroup(invariant_factors=(2,), free_rank=1)
        assert str(g) == "Z/2 x Z^1"
        assert quotient_group([], 3) == AbelianGroup(free_rank=3)

    @settings(max_examples=150)
    @given(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    def test_order_matches_det_and_cosets(self, flat):
        a, b, c, d = flat
        D = abs(a * d - b * c)
        if not (1 <= D <= 24):
            return
        gens = [[a, b], [c, d]]
        g = quotient_group(gens, 2)
        order, factors = coset_group_structure(gens)
        assert g.order == D == order
        assert g.invariant_factors == factors


class TestAbelianGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(invariant_factors=(3, 4))

    def test_str(self):
        assert str(AbelianGroup(invariant_factors=(2, 4))) == "Z/2 x Z/4"
