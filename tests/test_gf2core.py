import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2mackey.gf2core import FMatrix, PrimeField, is_prime, random_invertible


def test_prime_field_arithmetic():
    assert PrimeField(2).inv(1) == 1
    f5 = PrimeField(5)
    assert f5.inv(3) == 2
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))
    assert all(is_prime(n) == trial(n) for n in range(10 ** 5))


def test_is_prime_rejects_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    # strong pseudoprimes to the bases 2; 2, 3; ...; 2, 3, ..., 23
    strong = [2047, 3277, 4033, 4681, 8321, 1373653, 25326001, 3215031751,
              2152302898747, 3474749660383, 341550071728321,
              3825123056546413051]
    assert not any(is_prime(n) for n in carmichael + strong)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 18 + 3)
    assert is_prime(2 ** 64 - 59)           # the largest prime below the cap
    assert not is_prime(2 ** 64 - 1)


def test_is_prime_refuses_moduli_past_the_cap():
    with pytest.raises(ValueError, match="2\\^64"):
        is_prime(2 ** 64)
    with pytest.raises(ValueError):
        PrimeField(2 ** 64 + 13)


def test_basic_shapes_and_access():
    m = FMatrix.from_rows([[1, 0, 1], [0, 1, 1]], 2)
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.get(0, 2) == 1
    assert m.row(1) == [0, 1, 1]
    assert m.col(2) == [1, 1]
    assert m.to_rows() == [[1, 0, 1], [0, 1, 1]]
    t = m.transpose()
    assert t.to_rows() == [[1, 0], [0, 1], [1, 1]]


def test_identity_and_mul():
    for ell in (2, 3, 5):
        a = FMatrix.from_rows([[1, 2 % ell], [0, 1]], ell)
        assert a.mul(FMatrix.identity(2, ell)).to_rows() == a.to_rows()
        v = a.mul_vec([1, 1])
        assert v == [(1 + 2) % ell, 1]


def test_rref_rank_kernel_gf2():
    m = FMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]], 2)
    assert m.rank() == 2
    assert m.nullity() == 1
    k = m.kernel_basis()
    assert k.ncols == 1
    # the kernel vector is killed by m
    vec = k.col(0)
    assert m.mul_vec(vec) == [0, 0, 0]


def test_solve_and_invert():
    rng = random.Random(11)
    for ell in (2, 3):
        for _ in range(20):
            n = rng.randint(1, 6)
            a = random_invertible(n, ell, rng)
            inv = a.invert()
            assert a.mul(inv).to_rows() == FMatrix.identity(n, ell).to_rows()
            x = [rng.randrange(ell) for _ in range(n)]
            b = a.mul_vec(x)
            assert a.solve(b) == x


def test_solve_inconsistent():
    a = FMatrix.from_rows([[1, 0], [1, 0]], 2)
    assert a.solve([1, 0]) is None
    assert a.solve([1, 1]) == [1, 0]


def test_hstack_vstack_kron():
    a = FMatrix.from_rows([[1, 0], [0, 1]], 2)
    b = FMatrix.from_rows([[1, 1], [0, 1]], 2)
    assert FMatrix.hstack([a, b]).to_rows() == [[1, 0, 1, 1], [0, 1, 0, 1]]
    assert FMatrix.vstack([a, b]).to_rows() == [[1, 0], [0, 1], [1, 1], [0, 1]]
    k = b.kron(FMatrix.identity(2, 2))
    assert (k.nrows, k.ncols) == (4, 4)
    assert k.get(0, 2) == 1 and k.get(1, 3) == 1 and k.get(0, 3) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2 ** 20),
       st.sampled_from([2, 3, 5, 257]))
def test_rank_plus_nullity(nrows, ncols, seed, ell):
    rng = random.Random(seed)
    m = FMatrix.zeros(nrows, ncols, ell)
    for i in range(nrows):
        for j in range(ncols):
            m.set(i, j, rng.randrange(ell))
    assert m.rank() + m.nullity() == ncols
    # every kernel column is actually in the kernel
    k = m.kernel_basis()
    for j in range(k.ncols):
        assert m.mul_vec(k.col(j)) == [0] * nrows


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 20),
       st.sampled_from([2, 3, 257]))
def test_solve_many_roundtrip(n, seed, ell):
    rng = random.Random(seed)
    a = random_invertible(n, ell, rng)
    x = FMatrix.from_rows([[rng.randrange(ell) for _ in range(2)]
                           for _ in range(n)], ell)
    b = a.mul(x)
    sol = a.solve_many(b)
    assert sol is not None
    assert a.mul(sol).to_rows() == b.to_rows()
