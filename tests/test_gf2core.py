import ast
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2mackey.gf2core import FMatrix, is_prime, random_invertible


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


def test_basic_shapes_and_access():
    m = FMatrix.from_rows([[1, 0, 1], [0, 1, 1]], 2)
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.get(0, 2) == 1
    assert m.row(1) == [0, 1, 1]
    assert m.col(2) == [1, 1]
    assert m.to_rows() == [[1, 0, 1], [0, 1, 1]]
    t = m.transpose()
    assert t.to_rows() == [[1, 0], [0, 1], [1, 1]]


def test_from_bits_reads_bit_j_as_column_j():
    m = FMatrix.from_bits([0b101, 0b110], 3)
    assert m == FMatrix.from_rows([[1, 0, 1], [0, 1, 1]], 2)
    assert FMatrix.from_bits([], 4) == FMatrix.zeros(0, 4)
    for rows in ([0b1000], [-1]):
        with pytest.raises(ValueError, match="3 columns"):
            FMatrix.from_bits(rows, 3)


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
       st.sampled_from([2, 3, 5, 257, 65537]))
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
       st.sampled_from([2, 3, 257, 65537]))
def test_solve_many_roundtrip(n, seed, ell):
    rng = random.Random(seed)
    a = random_invertible(n, ell, rng)
    x = FMatrix.from_rows([[rng.randrange(ell) for _ in range(2)]
                           for _ in range(n)], ell)
    b = a.mul(x)
    sol = a.solve_many(b)
    assert sol is not None
    assert a.mul(sol).to_rows() == b.to_rows()


def _random_matrix(rng, nrows, ncols, ell):
    m = FMatrix.zeros(nrows, ncols, ell)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.5:
                m.set(i, j, rng.randrange(ell))
    return m


def _reference_placed(ell, nrows, ncols, blocks):
    out = FMatrix.zeros(nrows, ncols, ell)
    for i0, j0, b in blocks:
        for i in range(b.nrows):
            for j in range(b.ncols):
                out.set(i0 + i, j0 + j, b.get(i, j))
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 2 ** 20), st.sampled_from([2, 3, 257, 65537]))
def test_block_and_row_ops_match_per_entry_reference(nrows, ncols, k, seed,
                                                     ell):
    rng = random.Random(seed)
    a = _random_matrix(rng, nrows, ncols, ell)
    b = _random_matrix(rng, k, ncols, ell)
    c = _random_matrix(rng, nrows, k, ell)

    # placed: a in the corner, c right of it and b below it, each one
    # step off, in a frame one larger than needed
    blocks = [(0, 0, a), (0, ncols + 1, c), (nrows + 1, 1, b)]
    nr, nc = nrows + k + 2, ncols + k + 2
    assert (FMatrix.placed(ell, nr, nc, blocks)
            == _reference_placed(ell, nr, nc, blocks))
    assert FMatrix.hstack([a, c]) == _reference_placed(
        ell, nrows, ncols + k, [(0, 0, a), (0, ncols, c)])
    assert FMatrix.vstack([a, b]) == _reference_placed(
        ell, nrows + k, ncols, [(0, 0, a), (nrows, 0, b)])

    # submatrix on arbitrary, repeated and unordered index lists
    rows = [rng.randrange(nrows) for _ in range(rng.randint(0, 5))] \
        if nrows else []
    cols = [rng.randrange(ncols) for _ in range(rng.randint(0, 6))] \
        if ncols else []
    for cidx in (cols, list(range(ncols)), sorted(cols)):
        want = FMatrix.zeros(len(rows), len(cidx), ell)
        for x, i in enumerate(rows):
            for y, j in enumerate(cidx):
                want.set(x, y, a.get(i, j))
        assert a.submatrix(rows, cidx) == want

    want = FMatrix.zeros(ncols, nrows, ell)
    for i in range(nrows):
        for j in range(ncols):
            want.set(j, i, a.get(i, j))
    assert a.transpose() == want

    s = rng.randrange(ell)
    want = FMatrix.zeros(nrows, ncols, ell)
    for i in range(nrows):
        for j in range(ncols):
            want.set(i, j, s * a.get(i, j))
    assert a.scale(s) == want

    want = FMatrix.zeros(nrows * k, ncols * nrows, ell)
    for i in range(nrows):
        for j in range(ncols):
            for x in range(k):
                for y in range(nrows):
                    want.set(i * k + x, j * nrows + y,
                             a.get(i, j) * c.get(y, x))
    assert a.kron(c.transpose()) == want

    # solve_many: a consistent right-hand side a @ x and a random one
    x = _random_matrix(rng, ncols, k, ell)
    for rhs in (a.mul(x), c):
        got = a.solve_many(rhs)
        solvable = a.rank() == FMatrix.hstack([a, rhs]).rank()
        assert (got is not None) == solvable
        if got is not None:
            assert (got.nrows, got.ncols) == (ncols, k)
            assert a.mul(got) == rhs


def test_placed_refuses_misfit_and_foreign_blocks():
    block = FMatrix.identity(2, 2)
    for i0, j0 in ((0, 2), (2, 0), (-1, 0), (0, -1), (1, 2)):
        with pytest.raises(ValueError, match="does not fit"):
            FMatrix.placed(2, 3, 3, [(i0, j0, block)])
    with pytest.raises(ValueError, match="GF\\(3\\)"):
        FMatrix.placed(2, 3, 3, [(0, 0, FMatrix.identity(2, 3))])
    with pytest.raises(ValueError):
        FMatrix.hstack([block, FMatrix.identity(2, 3)])


def test_row_format_stays_in_gf2core():
    """Only gf2core reads or writes a matrix's ``.rows``: the row format
    (bitsets mod 2, lists of residues otherwise) is its decision alone."""
    pkg = pathlib.Path(__file__).resolve().parent.parent / "src" / "c2mackey"
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "gf2core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "rows":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_gf2_block_and_field_helpers():
    """``from_blocks`` adds its blocks in place as ``placed`` puts them,
    overlapping ones summed; ``row_fields`` reads masked runs of a row's
    entries as ints, entry j + b at bit b."""
    rng = random.Random("gf2-helpers")
    for _ in range(200):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 10)
        blocks = []
        for _ in range(rng.randint(0, 5)):
            h, w = rng.randint(1, 2), rng.randint(1, 3)
            if h <= nrows and w <= ncols:
                blocks.append((rng.randint(0, nrows - h),
                               rng.randint(0, ncols - w),
                               FMatrix.from_rows([[rng.randrange(2)
                                                   for _ in range(w)]
                                                  for _ in range(h)])))
        want = FMatrix.zeros(nrows, ncols)
        for b in blocks:
            want = want.add(FMatrix.placed(2, nrows, ncols, [b]))
        got = FMatrix.from_blocks(nrows, ncols, blocks)
        assert got == want and _is_canonical(got)
        fields = [(rng.randrange(ncols), rng.choice((1, 3, 7)))
                  for _ in range(4)]
        for i in range(nrows):
            assert got.row_fields(i, fields) == [
                sum(got.get(i, j + b) << b
                    for b in range(mask.bit_length()) if j + b < ncols)
                for j, mask in fields]
    with pytest.raises(ValueError, match="does not fit in 2 columns"):
        FMatrix.from_blocks(1, 2, [(0, 1, FMatrix.from_rows([[1, 1]]))])


def _is_canonical(m):
    """The row format ``__eq__`` relies on: one row per row of ``m``, an
    int below 2^ncols mod 2, a list of ncols residues in [0, l) otherwise."""
    if len(m.rows) != m.nrows:
        return False
    if m.ell == 2:
        return all(type(r) is int and 0 <= r < 1 << m.ncols for r in m.rows)
    return all(type(r) is list and len(r) == m.ncols
               and all(type(v) is int and 0 <= v < m.ell for v in r)
               for r in m.rows)


def _reference_rref(rows, ncols, ell):
    """Reduced row echelon form of a list of residue rows over GF(l), by
    dense Gauss-Jordan: each pivot row clears its column in every other
    row by rewriting that row's whole tail.  The reference for
    ``FMatrix.rref`` at odd l, which touches only the pivot row's
    nonzero columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, ell)
        piv = rows[r] = [v * inv % ell for v in rows[r]]
        tail = piv[c:]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                row[c:] = [(a - f * b) % ell for a, b in zip(row[c:], tail)]
        pivots.append(c)
    return rows, pivots


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 2 ** 20), st.sampled_from([2, 3, 257, 65537]))
def test_whole_row_ops_match_per_entry_reference(nrows, ncols, k, seed, ell):
    rng = random.Random(seed)
    # from_rows reduces entries of any sign and size, as set does
    raw = [[rng.randrange(-3 * ell, 3 * ell) for _ in range(ncols)]
           for _ in range(nrows)]
    a = FMatrix.from_rows(raw, ell, ncols=ncols)
    want = FMatrix.zeros(nrows, ncols, ell)
    for i, r in enumerate(raw):
        for j, v in enumerate(r):
            want.set(i, j, v)
    assert _is_canonical(a) and _is_canonical(want)
    assert a == want
    entries = [[v % ell for v in r] for r in raw]
    assert a.to_rows() == entries
    assert [a.row(i) for i in range(nrows)] == entries
    assert [a.col(j) for j in range(ncols)] == [
        [r[j] for r in entries] for j in range(ncols)]

    # __eq__ tells apart one changed entry, another shape, another field
    if nrows and ncols:
        i, j = rng.randrange(nrows), rng.randrange(ncols)
        other = a.copy()
        other.set(i, j, a.get(i, j) + 1)
        assert other != a
    for shape in ((nrows + 1, ncols), (nrows, ncols + 1)):
        assert FMatrix.zeros(*shape, ell) != FMatrix.zeros(nrows, ncols, ell)
    assert (FMatrix.zeros(nrows, ncols, 2 if ell != 2 else 3)
            != FMatrix.zeros(nrows, ncols, ell))

    v = [rng.randrange(-3 * ell, 3 * ell) for _ in range(ncols)]
    assert a.mul_vec(v) == [
        sum(a.get(i, j) * v[j] for j in range(ncols)) % ell
        for i in range(nrows)]

    # the product, entry by entry
    c = _random_matrix(rng, ncols, k, ell)
    assert a.mul(c).to_rows() == [
        [sum(a.get(i, m) * c.get(m, j) for m in range(ncols)) % ell
         for j in range(k)] for i in range(nrows)]

    R, pivots = a.rref()
    assert (R.to_rows(), pivots) == _reference_rref(entries, ncols, ell)

    # the kernel basis: per free column fc, a 1 in row fc and minus
    # column fc of the rref in the pivot rows, written entry by entry
    free = [c for c in range(ncols) if c not in pivots]
    want = FMatrix.zeros(ncols, len(free), ell)
    for j, fc in enumerate(free):
        want.set(fc, j, 1)
        for i, pc in enumerate(pivots):
            want.set(pc, j, -R.get(i, fc))
    assert a.kernel_basis() == want
    x = [rng.randrange(ell) for _ in range(ncols)]
    sol = a.solve(a.mul_vec(x))
    assert sol is not None and a.mul_vec(sol) == a.mul_vec(x)

    # every public operation leaves its rows canonical
    b = _random_matrix(rng, nrows, ncols, ell)
    n = rng.randint(1, 5)
    square = random_invertible(n, ell, rng)
    rows = [rng.randrange(nrows) for _ in range(3)] if nrows else []
    cols = [rng.randrange(ncols) for _ in range(4)] if ncols else []
    outputs = [
        a, FMatrix.identity(k, ell), a.add(b), a.scale(rng.randrange(ell)),
        a.mul(c), a.transpose(), a.kron(c),
        FMatrix.placed(ell, nrows + ncols + 1, ncols + k + 1,
                       [(1, 0, a), (0, ncols + 1, c)]),
        FMatrix.hstack([a, b]), FMatrix.vstack([a, b]),
        a.submatrix(rows, cols), R, a.kernel_basis(), square.invert(),
    ]
    solved = a.solve_many(a.mul(c))
    assert solved is not None
    outputs.append(solved)

    # row additions against sums taken entry by entry
    pairs = [(i, j) for i, j in ((rng.randrange(nrows), rng.randrange(nrows))
                                 for _ in range(4 if nrows else 0)) if i != j]
    added, want_rows = a.copy(), [list(r) for r in entries]
    # each addition as a block at (i, 0) of one pair, offset by (0, j)
    added.add_row_blocks([(i, 0, ((0, j),)) for i, j in pairs])
    for i, j in pairs:
        want_rows[i] = [(x + y) % ell for x, y in zip(want_rows[i],
                                                       want_rows[j])]
    assert added.to_rows() == want_rows
    outputs.append(added)
    assert all(_is_canonical(m) for m in outputs)


def _random_odd_rows(rng, nrows, ncols, ell, fill, combos):
    """Residue rows at the given fill, then ``combos`` rows (when there
    are two or more) each overwritten by a repeat of another row or by a
    combination a x + b y of two rows, so the rank falls short."""
    rows = [[rng.randrange(1, ell) if rng.random() < fill else 0
             for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(combos if nrows > 1 else 0):
        i, j, k = (rng.randrange(nrows) for _ in range(3))
        if rng.random() < 0.5:
            rows[i] = list(rows[j])
        else:
            a, b = rng.randrange(ell), rng.randrange(ell)
            rows[i] = [(a * x + b * y) % ell
                       for x, y in zip(rows[j], rows[k])]
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 100),
       st.integers(0, 8), st.integers(0, 2 ** 20),
       st.sampled_from([3, 5, 257, 65537, 2 ** 61 - 1]))
def test_odd_rref_matches_dense_reference(nrows, ncols, fill, combos, seed,
                                          ell):
    """At odd l, rref equals dense Gauss-Jordan exactly, rows and pivots,
    on every shape up to 40 x 40 (empty ones too), every fill and
    rank-deficient inputs; the solvers built on it agree with it."""
    rng = random.Random(seed)
    rows = _random_odd_rows(rng, nrows, ncols, ell, fill / 100, combos)
    a = FMatrix.from_rows(rows, ell, ncols=ncols)
    ref_rows, ref_piv = _reference_rref(rows, ncols, ell)
    R, pivots = a.rref()
    assert (R.to_rows(), pivots) == (ref_rows, ref_piv)
    assert _is_canonical(R)
    assert a.rank() == len(ref_piv)
    assert a.column_space_pivots() == ref_piv
    K = a.kernel_basis()
    assert K.ncols == a.nullity() == ncols - len(ref_piv)
    assert a.mul(K).is_zero()
    x = FMatrix.from_rows([[rng.randrange(ell) for _ in range(3)]
                           for _ in range(ncols)], ell, ncols=3)
    b = a.mul(x)
    sol = a.solve_many(b)
    assert sol is not None and a.mul(sol) == b


def test_invert_refuses_singular_matrices():
    """A square matrix inverts exactly when it has full rank; a singular
    one and a non-square one are refused with their own messages."""
    for ell in (2, 3, 257):
        rng = random.Random(f"invert:{ell}")
        singular = 0
        for _ in range(150):
            n = rng.randint(1, 6)
            # small entries, so about half the draws are singular
            m = FMatrix.from_rows([[rng.randrange(min(ell, 3))
                                    if rng.random() < 0.6 else 0
                                    for _ in range(n)] for _ in range(n)],
                                  ell)
            if m.rank() == n:
                assert m.mul(m.invert()) == FMatrix.identity(n, ell)
            else:
                singular += 1
                with pytest.raises(ValueError, match="matrix is singular"):
                    m.invert()
        assert singular > 20
        for rows in ([[0]], [[1, 2], [1, 2]], [[1, 0, 1], [0, 1, 1],
                                               [1, 1, 2]]):
            with pytest.raises(ValueError, match="matrix is singular"):
                FMatrix.from_rows(rows, ell).invert()
        with pytest.raises(ValueError, match="only square matrices invert"):
            FMatrix.zeros(2, 3, ell).invert()


def _column_scan_rref(rows, ncols):
    """GF(2) rref of bitset rows by the book: for each column in turn, the
    first row at or below the next pivot row with a 1 there becomes the
    pivot row and clears that column in every other row."""
    rows, pivots = list(rows), []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
    return rows, pivots


def _random_gf2(rng, nrows, ncols, fill):
    """A random bitset matrix, at the given fill or, one time in three,
    the product of two such matrices through a narrow middle (low rank,
    so dense rows that depend on each other)."""
    def draw(n, m):
        return FMatrix(2, n, m, [sum(1 << j for j in range(m)
                                     if rng.random() < fill)
                                 for _ in range(n)])
    if rng.random() < 1 / 3:
        k = rng.randint(0, max(1, min(nrows, ncols) // 2))
        return draw(nrows, k).mul(draw(k, ncols))
    return draw(nrows, ncols)


def test_lowbit_elimination_matches_column_scan_reference():
    rng = random.Random("lowbit")
    sizes = [(0, 0), (0, 5), (5, 0), (0, 70), (70, 0)]
    for _ in range(520):
        nrows, ncols = rng.choice([
            (rng.randint(1, 6), rng.randint(1, 6)),         # small
            (rng.randint(20, 60), rng.randint(1, 12)),      # tall
            (rng.randint(1, 12), rng.randint(20, 60)),      # wide
            (rng.randint(1, 90), rng.randint(65, 140)),     # past one word
        ])
        sizes.append((nrows, ncols))
    for trial, (nrows, ncols) in enumerate(sizes):
        fill = rng.choice([0.02, 0.1, 0.3, 0.5, 0.75, 0.9])
        a = _random_gf2(rng, nrows, ncols, fill)
        ref_rows, ref_piv = _column_scan_rref(a.rows, ncols)
        R, pivots = a.rref()
        assert (R.rows, pivots) == (ref_rows, ref_piv), trial
        assert a.rank() == len(ref_piv), trial
        assert a.nullity() == ncols - len(ref_piv), trial
        assert a.column_space_pivots() == ref_piv, trial
        assert a.is_invertible() == (nrows == ncols == len(ref_piv)), trial

        # the kernel basis, written from the reference rref
        free = [c for c in range(ncols) if c not in ref_piv]
        want = FMatrix.zeros(ncols, len(free))
        for j, fc in enumerate(free):
            want.set(fc, j, 1)
            for i, pc in enumerate(ref_piv):
                want.set(pc, j, ref_rows[i] >> fc & 1)
        assert a.kernel_basis() == want, trial

        # solve_many: X is read off the reference rref of [A | B] at the
        # pivot rows; a pivot in B's block means no solution
        k = rng.randint(1, 4)
        for b in (a.mul(_random_gf2(rng, ncols, k, 0.5)),
                  _random_gf2(rng, nrows, k, 0.5)):
            aug_rows, aug_piv = _column_scan_rref(
                FMatrix.hstack([a, b]).rows, ncols + k)
            x = a.solve_many(b)
            if aug_piv and aug_piv[-1] >= ncols:
                assert x is None, trial
                continue
            want = FMatrix.zeros(ncols, k)
            for i, pc in enumerate(aug_piv):
                want.rows[pc] = aug_rows[i] >> ncols
            assert x == want, trial
