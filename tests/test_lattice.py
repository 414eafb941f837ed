import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricshrink.lattice import (
    AbelianGroup,
    ZeroNormal,
    diagonalize,
    integer_kernel,
    invariant_factors,
    primitive_reduce,
    quotient_group,
    rref,
)


# saturation bases: test_polyhedra's reference for the structure group reads
# one; the package computes structure groups without them

def saturation_basis(A) -> list[tuple[int, ...]]:
    """Basis of the saturation (rational row span intersected with Z^n) of the rows of A."""
    # A = W diag(d) (first rank rows of V^-1), and rows of a unimodular
    # matrix span a saturated sublattice
    d, V = diagonalize(A)
    Vinv = unimodular_inverse(V)
    return [tuple(Vinv[i]) for i in range(len(d))]


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


class TestDiagonalize:
    @settings(max_examples=200)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_contract(self, m, n, data):
        A = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
        d, V = diagonalize(A)
        r = len(d)
        assert r == len(rref(A)[1])
        assert all(x > 0 for x in d)
        assert abs(det(V)) == 1
        AV = mat_mul(A, V)
        # the columns past the rank vanish; the first r divided by d are
        # integral and their r x r minors have gcd 1: A V = W diag(d) for
        # some unimodular W
        assert all(row[j] == 0 for row in AV for j in range(r, n))
        assert all(row[j] % d[j] == 0 for row in AV for j in range(r))
        W = [[row[j] // d[j] for j in range(r)] for row in AV]
        if r:
            minors = [det([W[i] for i in rows]) for rows in itertools.combinations(range(m), r)]
            assert math.gcd(*minors) == 1

    def test_zero_and_empty(self):
        assert diagonalize([[0, 0]]) == ([], [[1, 0], [0, 1]])
        assert diagonalize([]) == ([], [])

    def test_invariant_factors_make_the_chain(self):
        assert invariant_factors([4, 6]) == [2, 12]
        assert invariant_factors([6, 10, 15]) == [1, 30, 30]
        assert invariant_factors([2, 4]) == [2, 4]
        assert invariant_factors([]) == []


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

    @settings(max_examples=150)
    @given(st.integers(3, 4), st.integers(0, 2), st.data())
    def test_recovers_a_chain_hidden_by_unimodular_steps(self, n, extra, data):
        # Z^n / rows of U diag(e) V is Z/e_1 + ... + Z/e_k + Z^(n-k), whatever
        # the unimodular U and V. Each e_i is 2^a 3^b 5^c; sorting the
        # exponents of each prime over i gives the invariant factors, an
        # oracle independent of the elimination
        k = data.draw(st.integers(0, n))
        primes = (2, 3, 5)
        powers = [[data.draw(st.integers(0, 2)) for _ in range(k)] for _ in primes]
        e = [math.prod(p ** x[i] for p, x in zip(primes, powers)) for i in range(k)]
        ranked = [sorted(x) for x in powers]
        chain = [math.prod(p ** x[i] for p, x in zip(primes, ranked)) for i in range(k)]
        m = n + extra
        D = [[e[i] if i == j and i < k else 0 for j in range(n)] for i in range(m)]
        A = mat_mul(mat_mul(random_unimodular(data, m), D), random_unimodular(data, n))
        assert quotient_group(A, n) == AbelianGroup(
            invariant_factors=tuple(x for x in chain if x > 1), free_rank=n - k)


def random_unimodular(data, size):
    """A product of elementary integer steps: row additions, swaps and sign flips."""
    M = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(data.draw(st.integers(0, 8))):
        i = data.draw(st.integers(0, size - 1))
        j = data.draw(st.integers(0, size - 1))
        step = data.draw(st.sampled_from(["add", "swap", "negate"]))
        if step == "add" and i != j:
            c = data.draw(st.integers(-3, 3))
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        elif step == "swap":
            M[i], M[j] = M[j], M[i]
        elif step == "negate":
            M[i] = [-a for a in M[i]]
    return M


class TestAbelianGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(invariant_factors=(3, 4))

    def test_str(self):
        assert str(AbelianGroup(invariant_factors=(2, 4))) == "Z/2 x Z/4"
