"""Exact dense linear algebra over prime fields GF(l).

All matrices in this package are small (a few hundred rows at the very
most), so the representation favours simplicity and exactness over
asymptotics.  For l = 2 each row is a Python int used as a bitset and a
row operation is a single XOR; for odd l rows are lists of residues, and
elimination updates each row only at the pivot row's nonzero columns.
No floats anywhere.
"""

from __future__ import annotations

import operator
from itertools import compress


# The first twelve primes.  As Miller-Rabin bases they decide primality
# exactly for every n < 318665857834031151167461 (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so
# for every modulus below MODULUS_CAP, the largest one accepted.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_CAP = 1 << 64


def is_prime(n: int) -> bool:
    """Exact primality test for n < MODULUS_CAP (deterministic
    Miller-Rabin); raises ValueError for larger n or an n that is not an
    int (a bool is an int, and not prime)."""
    if not isinstance(n, int):
        raise ValueError(f"modulus must be an integer, not {n!r}")
    if n >= MODULUS_CAP:
        raise ValueError(f"modulus {n} is too large: moduli must be below "
                         f"2^64")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:         # a composite below 41^2 has a factor below 41
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FMatrix:
    """A dense matrix over GF(l).

    Rows are ints (bitsets) when l = 2 and lists of ints otherwise.  That
    format is private to this module: other modules write laid-out blocks
    with ``from_blocks``, block matrices named by keys with
    ``from_patterns``, checked Kronecker systems with ``kron_sum``, and
    read rows with ``row_weight``, ``row_support`` and ``row_fields``.
    The class only implements what the rest of the package needs: ring
    ops, reduced row echelon form and the solvers built on top of it.
    """

    __slots__ = ("ell", "nrows", "ncols", "rows")

    def __init__(self, ell: int, nrows: int, ncols: int, rows=None):
        self.ell = ell
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            if ell == 2:
                self.rows = [0] * nrows
            else:
                self.rows = [[0] * ncols for _ in range(nrows)]
        else:
            self.rows = rows

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int, ell: int = 2) -> "FMatrix":
        return cls(ell, nrows, ncols)

    @classmethod
    def identity(cls, n: int, ell: int = 2) -> "FMatrix":
        if ell == 2:
            return cls(2, n, n, [1 << i for i in range(n)])
        m = cls(ell, n, n)
        for i, r in enumerate(m.rows):
            r[i] = 1
        return m

    @classmethod
    def from_rows(cls, rows, ell: int = 2, ncols: int | None = None) -> "FMatrix":
        """Build from a list of lists of ints (reduced mod l)."""
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        if ell == 2:
            rows = [_bits(r) for r in rows]
        else:
            rows = [[v % ell for v in r] for r in rows]
        return cls(ell, len(rows), ncols, rows)

    @classmethod
    def from_bits(cls, rows: list[int], ncols: int) -> "FMatrix":
        """The matrix over GF(2) whose row i has a 1 in column j where bit
        j of ``rows[i]`` is set; every int must lie in [0, 2^ncols)."""
        if rows and (min(rows) < 0 or max(rows) >> ncols):
            raise ValueError(f"a bit row does not fit in {ncols} columns")
        return cls(2, len(rows), ncols, rows)

    def copy(self) -> "FMatrix":
        if self.ell == 2:
            return FMatrix(2, self.nrows, self.ncols, list(self.rows))
        return FMatrix(self.ell, self.nrows, self.ncols,
                       [list(r) for r in self.rows])

    # -- element access -----------------------------------------------

    def get(self, i: int, j: int) -> int:
        if self.ell == 2:
            return (self.rows[i] >> j) & 1
        return self.rows[i][j]

    def set(self, i: int, j: int, v: int) -> None:
        v %= self.ell
        if self.ell == 2:
            if v:
                self.rows[i] |= 1 << j
            else:
                self.rows[i] &= ~(1 << j)
        else:
            self.rows[i][j] = v

    def row(self, i: int) -> list[int]:
        r = self.rows[i]
        if self.ell == 2:
            return [r >> j & 1 for j in range(self.ncols)]
        return list(r)

    def col(self, j: int) -> list[int]:
        if self.ell == 2:
            return [r >> j & 1 for r in self.rows]
        return [r[j] for r in self.rows]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.nrows)]

    def __eq__(self, other) -> bool:
        # every operation leaves its rows canonical (no bit at or past
        # ncols mod 2, residues in [0, l) otherwise), so equal matrices
        # have equal rows
        if not isinstance(other, FMatrix):
            return NotImplemented
        return (self.ell == other.ell and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        return f"FMatrix(GF({self.ell}), {self.nrows}x{self.ncols}, {self.to_rows()})"

    def is_zero(self) -> bool:
        if self.ell == 2:
            return all(r == 0 for r in self.rows)
        return all(all(v == 0 for v in r) for r in self.rows)

    # -- ring operations ----------------------------------------------

    def add(self, other: "FMatrix") -> "FMatrix":
        if (self.nrows, self.ncols, self.ell) != (other.nrows, other.ncols, other.ell):
            raise ValueError("shape/field mismatch in add")
        if self.ell == 2:
            rows = [r ^ s for r, s in zip(self.rows, other.rows)]
        else:
            ell = self.ell
            rows = [[(a + b) % ell for a, b in zip(r, s)]
                    for r, s in zip(self.rows, other.rows)]
        return FMatrix(self.ell, self.nrows, self.ncols, rows)

    def scale(self, c: int) -> "FMatrix":
        c %= self.ell
        if self.ell == 2:
            rows = list(self.rows) if c else [0] * self.nrows
        else:
            rows = [[c * v % self.ell for v in r] for r in self.rows]
        return FMatrix(self.ell, self.nrows, self.ncols, rows)

    def mul(self, other: "FMatrix") -> "FMatrix":
        if self.ncols != other.nrows or self.ell != other.ell:
            raise ValueError("shape/field mismatch in mul")
        if self.ell == 2:
            # row i: the XOR of other's rows at the set bits of row i (as
            # fast as a scan of every column on dense rows, far faster on
            # sparse ones)
            rows, orows = [], other.rows
            for r in self.rows:
                acc = 0
                while r:
                    low = r & -r
                    acc ^= orows[low.bit_length() - 1]
                    r ^= low
                rows.append(acc)
        else:
            # entry (i, j): one dot product of row i and column j of other
            ell, times = self.ell, operator.mul
            cols = (list(zip(*other.rows)) if other.nrows
                    else [()] * other.ncols)
            rows = [[sum(map(times, r, c)) % ell for c in cols]
                    for r in self.rows]
        return FMatrix(self.ell, self.nrows, other.ncols, rows)

    def mul_vec(self, v: list[int]) -> list[int]:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        if self.ell == 2:
            bits = _bits(v)
            return [(r & bits).bit_count() & 1 for r in self.rows]
        ell = self.ell
        return [sum(a * b for a, b in zip(r, v)) % ell for r in self.rows]

    def row_weight(self, i: int) -> int:
        """GF(2) only: the number of nonzero entries of row i."""
        return self.rows[i].bit_count()

    def row_support(self, i: int) -> list[int]:
        """GF(2) only: the columns of the nonzero entries of row i, in
        increasing order, read off its set bits without a scan of its
        zeros."""
        return set_bits(self.rows[i])

    def row_fields(self, i: int, fields) -> list[int]:
        """GF(2) only: for each (shift, mask) of ``fields``, the entries of
        row i from column ``shift`` on, as the bits of an int, under
        ``mask``."""
        r = self.rows[i]
        return [r >> shift & mask for shift, mask in fields]

    def transpose(self) -> "FMatrix":
        if self.ell == 2:
            rows = [0] * self.ncols
            for i, r in enumerate(self.rows):
                bit = 1 << i
                for j in set_bits(r):
                    rows[j] |= bit
        elif self.nrows:
            rows = [list(col) for col in zip(*self.rows)]
        else:
            rows = [[] for _ in range(self.ncols)]
        return FMatrix(self.ell, self.ncols, self.nrows, rows)

    def kron(self, other: "FMatrix") -> "FMatrix":
        """Kronecker product (row-major convention): ``kron_sum`` of one
        term."""
        return FMatrix.kron_sum(self.ell, self.nrows * other.nrows,
                                self.ncols * other.ncols,
                                [(0, 0, 1, self, other)])

    # -- elementary row operations ----------------------------------------

    def add_row_blocks(self, ops) -> None:
        """For each (i0, j0, pairs) of ``ops`` in turn, and each (a, b) of
        ``pairs`` in turn, add row j0 + b to row i0 + a (never a row to
        itself), in place."""
        rows = self.rows
        if self.ell == 2:
            for i0, j0, pairs in ops:
                for a, b in pairs:
                    rows[i0 + a] ^= rows[j0 + b]
        else:
            ell = self.ell
            for i0, j0, pairs in ops:
                for a, b in pairs:
                    i = i0 + a
                    rows[i] = [(x + y) % ell
                               for x, y in zip(rows[i], rows[j0 + b])]

    # -- block structure ------------------------------------------------

    @staticmethod
    def kron_sum(ell: int, nrows: int, ncols: int, terms) -> "FMatrix":
        """The nrows x ncols matrix over GF(l) that is the sum, over each
        (r0, c0, c, A, B) of ``terms``, of c * (A (x) B) with its top left
        corner at (r0, c0), and zeros elsewhere.  An int k in place of A
        or B is the k x k identity.  Terms may overlap, and then add.  A
        factor over another field, or a term that does not fit, raises
        ValueError.

        Written in one pass in the row format, with no intermediate
        matrix: each nonzero of a product is written once, and only what
        is written is reduced mod l."""
        factors = []
        for r0, c0, c, a, b in terms:
            (pa, qa, arows), (pb, qb, brows) = (
                _factor(ell, f) for f in (a, b))
            if (r0 < 0 or c0 < 0 or r0 + pa * pb > nrows
                    or c0 + qa * qb > ncols):
                raise ValueError(f"a {pa * pb}x{qa * qb} term at ({r0}, "
                                 f"{c0}) does not fit in {nrows}x{ncols}")
            factors.append((r0, c0, c % ell, arows, qb, brows))
        if ell == 2:
            rows = [0] * nrows
            for r, c0, c, arows, q, brows in factors:
                if not c:
                    continue
                for a in arows:
                    # bit j of a row of A becomes a copy of each row of B at
                    # column c0 + j*q; the copies never overlap, so one
                    # product writes them all
                    spread = (a << c0 if q == 1 else
                              sum(1 << c0 + j * q for j in set_bits(a)))
                    for b in brows:
                        rows[r] ^= b * spread
                        r += 1
            return FMatrix(2, nrows, ncols, rows)
        rows = [[0] * ncols for _ in range(nrows)]
        for r, c0, c, arows, q, brows in factors:
            if not c:
                continue
            for a in arows:
                outer = [(c0 + j * q, c * v % ell) for j, v in a]
                for supp in brows:
                    row = rows[r]
                    r += 1
                    for off, u in outer:
                        for j, v in supp:
                            j += off
                            row[j] = (row[j] + u * v) % ell
        return FMatrix(ell, nrows, ncols, rows)

    @staticmethod
    def from_blocks(ell: int, nrows: int, ncols: int, blocks) -> "FMatrix":
        """The nrows x ncols matrix over GF(l) that holds each block of
        ``blocks``, an iterable of (i0, j0, FMatrix) triples over GF(l),
        with its top left corner at (i0, j0), and zeros elsewhere: the
        writer for blocks the caller has laid out.  Blocks must not
        overlap.  A block at a negative offset, or one that reaches past
        the last row or the last column, raises ValueError."""
        out = FMatrix(ell, nrows, ncols)
        rows = out.rows
        try:
            if ell == 2:
                for i, j0, b in blocks:
                    if (i | j0) < 0:
                        raise IndexError
                    for r in b.rows:
                        rows[i] ^= r << j0
                        i += 1
                if rows and max(rows) >> ncols:
                    raise IndexError
            else:
                for i, j0, b in blocks:
                    j1 = j0 + b.ncols
                    if j1 > ncols or (i | j0) < 0:
                        raise IndexError
                    for r in b.rows:
                        rows[i][j0:j1] = r
                        i += 1
        except IndexError:
            raise ValueError(f"a block does not fit in {nrows}x{ncols}"
                             ) from None
        return out

    @staticmethod
    def from_patterns(ell: int, ncols: int, keys, row_types, col_types,
                      offsets, patterns) -> "FMatrix":
        """The matrix over GF(l) with ``ncols`` columns that is written in
        bands, one per row of ``keys``: band r is as high as the blocks of
        row type ``row_types[r]`` in ``patterns`` (a ``block_patterns``
        table), and holds, for each nonzero key k = keys[r][s], the block
        of (row_types[r], col_types[s], k) with its left column at
        ``offsets[s]``, and zeros elsewhere.  Blocks must not overlap and
        must fit; a key the table lacks raises KeyError.  Only nonzero
        keys are read, and at l = 2 each row is the OR of its blocks' row
        patterns, each shifted to its column."""
        rows = []
        for rt, row in zip(row_types, keys):
            height, by_col = patterns[rt]
            if ell == 2 and height == 1:    # a one-row band needs no list
                bits = 0
                for s in compress(range(len(row)), row):
                    bits |= by_col[col_types[s]][row[s]][0] << offsets[s]
                rows.append(bits)
                continue
            if ell == 2:
                band = [0] * height
                for s in compress(range(len(row)), row):
                    off = offsets[s]
                    for a, bits in enumerate(by_col[col_types[s]][row[s]]):
                        band[a] |= bits << off
            else:
                band = [[0] * ncols for _ in range(height)]
                for s in compress(range(len(row)), row):
                    off = offsets[s]
                    for dst, vals in zip(band, by_col[col_types[s]][row[s]]):
                        dst[off:off + len(vals)] = vals
            rows += band
        return FMatrix(ell, len(rows), ncols, rows)

    @staticmethod
    def hstack(blocks: list["FMatrix"]) -> "FMatrix":
        if not blocks:
            raise ValueError("empty hstack")
        nr, ell = blocks[0].nrows, blocks[0].ell
        if any(b.nrows != nr or b.ell != ell for b in blocks):
            raise ValueError("hstack mismatch")
        laid, off = [], 0
        for b in blocks:
            laid.append((0, off, b))
            off += b.ncols
        return FMatrix.from_blocks(ell, nr, off, laid)

    @staticmethod
    def vstack(blocks: list["FMatrix"]) -> "FMatrix":
        if not blocks:
            raise ValueError("empty vstack")
        nc, ell = blocks[0].ncols, blocks[0].ell
        if any(b.ncols != nc or b.ell != ell for b in blocks):
            raise ValueError("vstack mismatch")
        laid, off = [], 0
        for b in blocks:
            laid.append((off, 0, b))
            off += b.nrows
        return FMatrix.from_blocks(ell, off, nc, laid)

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "FMatrix":
        return FMatrix(self.ell, len(row_idx), len(col_idx),
                       _columns(self.ell, [self.rows[i] for i in row_idx],
                                col_idx))

    # -- echelon form and friends ---------------------------------------

    def rref(self) -> tuple["FMatrix", list[int]]:
        """Reduced row echelon form; returns (R, pivot_columns)."""
        if self.ell == 2:
            # the forward pass, then back-substitution from the highest
            # pivot down: each pivot row is cleared at the pivot columns it
            # carries by the rows already reduced, which carry no pivot
            # column but their own
            done: dict[int, int] = {}
            mask = 0
            for c, v in sorted(_lowbit_pivots(self.rows).items(),
                               reverse=True):
                hits = v & mask
                while hits:
                    low = hits & -hits
                    v ^= done[low.bit_length() - 1]
                    hits ^= low
                done[c] = v
                mask |= 1 << c
            pivots = sorted(done)
            rows = [done[c] for c in pivots]
            rows += [0] * (self.nrows - len(rows))
            return FMatrix(2, self.nrows, self.ncols, rows), pivots
        R = self.copy()
        pivots: list[int] = []
        r = 0
        ell, rows = self.ell, R.rows
        for c in range(self.ncols):
            if r >= self.nrows:
                break
            sel = -1
            for i in range(r, self.nrows):
                if rows[i][c]:
                    sel = i
                    break
            if sel < 0:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            piv = rows[r]
            if piv[c] != 1:
                inv = pow(piv[c], -1, ell)
                piv = rows[r] = [v * inv % ell for v in piv]
            # the pivot row is zero left of column c, so only the entries
            # at its nonzero columns from c on change
            support = [(j, v) for j, v in enumerate(piv[c:], c) if v]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != r:
                    for j, v in support:
                        row[j] = (row[j] - f * v) % ell
            pivots.append(c)
            r += 1
        return R, pivots

    def rank(self) -> int:
        if self.ell == 2:
            return len(_lowbit_pivots(self.rows))
        return len(self.rref()[1])

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def kernel_basis(self) -> "FMatrix":
        """Basis of the right kernel, returned as columns of a matrix: one
        per free column of the rref, with a 1 in that column's row and
        minus that column of the rref's pivot rows in the pivot rows."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        ell, rows = self.ell, [None] * self.ncols
        for fc, unit in zip(free, FMatrix.identity(len(free), ell).rows):
            rows[fc] = unit
        prows = R.rows[:len(pivots)]
        minus = (_columns(2, prows, free) if ell == 2 else
                 [[-r[fc] % ell for fc in free] for r in prows])
        for pc, r in zip(pivots, minus):
            rows[pc] = r
        return FMatrix(ell, self.ncols, len(free), rows)

    def solve_many(self, B: "FMatrix"):
        """Solve self @ X = B columnwise; returns X or None if inconsistent."""
        if B.nrows != self.nrows or B.ell != self.ell:
            raise ValueError("rhs shape mismatch")
        aug = FMatrix.hstack([self, B])
        R, pivots = aug.rref()
        pivots = [p for p in pivots if p < self.ncols]
        # consistency: no pivot may fall in the augmented block
        n, tail = self.ncols, R.rows[len(pivots):]
        X = FMatrix(self.ell, n, B.ncols)
        if self.ell == 2:
            if any(r >> n for r in tail):
                return None
            for i, pc in enumerate(pivots):
                X.rows[pc] = R.rows[i] >> n
        else:
            if any(any(r[n:]) for r in tail):
                return None
            for i, pc in enumerate(pivots):
                X.rows[pc] = R.rows[i][n:]
        return X

    def solve(self, b: list[int]):
        """Solve self @ x = b; returns a list or None."""
        ell = self.ell
        B = FMatrix(ell, len(b), 1,
                    [v & 1 for v in b] if ell == 2 else [[v % ell] for v in b])
        X = self.solve_many(B)
        if X is None:
            return None
        return X.col(0)

    def invert(self) -> "FMatrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices invert")
        # a square A.X = I is consistent exactly when A is invertible
        X = self.solve_many(FMatrix.identity(self.nrows, self.ell))
        if X is None:
            raise ValueError("matrix is singular")
        return X

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def column_space_pivots(self) -> list[int]:
        """Indices of a maximal independent set of columns (the pivot
        columns of the rref)."""
        if self.ell == 2:
            return sorted(_lowbit_pivots(self.rows))
        return self.rref()[1]


def _lowbit_pivots(rows) -> dict[int, int]:
    """Forward elimination over GF(2): each row of ``rows`` is reduced by
    the pivot rows found so far until its lowest set bit is a new pivot
    column or the row vanishes.  Returns {pivot column: pivot row}; the
    pivot columns are those of the rref, and each pivot row has no bit
    below its pivot column."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            c = (r & -r).bit_length() - 1
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            r ^= p
    return pivots


def set_bits(r: int) -> list[int]:
    """The positions of the set bits of r, lowest first."""
    out = []
    while r:
        low = r & -r
        out.append(low.bit_length() - 1)
        r ^= low
    return out


def _factor(ell: int, f) -> tuple[int, int, list]:
    """(rows, columns, rows) of a ``kron_sum`` factor, an FMatrix over
    GF(l) or an int k for the k x k identity: its rows as bitsets at
    l = 2, and as lists of (column, nonzero value) pairs otherwise."""
    if isinstance(f, int):
        return f, f, ([1 << i for i in range(f)] if ell == 2 else
                      [[(i, 1)] for i in range(f)])
    if f.ell != ell:
        raise ValueError(f"a factor over GF({f.ell}) in a matrix over "
                         f"GF({ell})")
    if ell == 2:
        return f.nrows, f.ncols, f.rows
    return f.nrows, f.ncols, [[(j, v) for j, v in enumerate(r) if v]
                              for r in f.rows]


def block_patterns(blocks: dict) -> dict:
    """The table ``FMatrix.from_patterns`` writes from: ``blocks`` maps a
    row type to a column type to a key to a block, all blocks of one row
    type equally high and over one field.  Each block is kept as its row
    patterns (bitsets at l = 2), in the row format this module keeps to
    itself."""
    out = {}
    for rt, by_col in blocks.items():
        heights = {b.nrows for by_key in by_col.values()
                   for b in by_key.values()}
        if len(heights) != 1:
            raise ValueError(f"the blocks of row type {rt!r} differ in "
                             f"height")
        out[rt] = (heights.pop(), {
            ct: {k: tuple(b.rows) if b.ell == 2 else
                 tuple(map(list, b.rows)) for k, b in by_key.items()}
            for ct, by_key in by_col.items()})
    return out


def _bits(values) -> int:
    """The GF(2) row with bit j set where ``values[j]`` is odd."""
    bits = 0
    for j, v in enumerate(values):
        if v & 1:
            bits |= 1 << j
    return bits


def _columns(ell: int, rows: list, col_idx: list[int]) -> list:
    """The rows ``rows`` of a matrix over GF(l), cut down to the columns
    ``col_idx`` in that order."""
    if ell != 2:
        return [[r[j] for j in col_idx] for r in rows]
    # col_idx as runs of consecutive columns: (first column, mask of the
    # run's width, position of the run in col_idx)
    runs: list[list[int]] = []
    for b, j in enumerate(col_idx):
        if runs and runs[-1][0] + runs[-1][1] == j:
            runs[-1][1] += 1
        else:
            runs.append([j, 1, b])
    masks = [(j, (1 << n) - 1, b) for j, n, b in runs]
    out = []
    for r in rows:
        v = 0
        for j, mask, b in masks:
            v |= (r >> j & mask) << b
        out.append(v)
    return out


def random_invertible(n: int, ell: int, rng) -> FMatrix:
    """A uniformly-ish random invertible n x n matrix over GF(l): entries
    drawn row by row until the matrix is invertible."""
    if n == 0:
        return FMatrix(ell, 0, 0)
    while True:
        rows = [[rng.randrange(ell) for _ in range(n)] for _ in range(n)]
        m = FMatrix(ell, n, n, [_bits(r) for r in rows] if ell == 2 else rows)
        if m.is_invertible():
            return m
