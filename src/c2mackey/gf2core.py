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


# The first twelve primes.  As Miller-Rabin bases they decide primality
# exactly for every n < 318665857834031151167461 (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017), so
# for every modulus below MODULUS_CAP, the largest one accepted.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_CAP = 1 << 64


def is_prime(n: int) -> bool:
    """Exact primality test for n < MODULUS_CAP (deterministic
    Miller-Rabin); raises ValueError for larger n."""
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
    format is private to this module: other modules build block-structured
    matrices with ``placed``.  The class only implements what the rest of
    the package needs: ring ops, reduced row echelon form and the solvers
    built on top of it.
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

    def row_fields(self, i: int, fields) -> list[int]:
        """GF(2) only: for each (shift, mask) of ``fields``, the entries of
        row i from column ``shift`` on, as the bits of an int, under
        ``mask``."""
        r = self.rows[i]
        return [r >> shift & mask for shift, mask in fields]

    def _entries(self):
        """(i, j, v) for each nonzero entry v at (i, j), row by row."""
        for i, r in enumerate(self.rows):
            if self.ell == 2:
                for j in _set_bits(r):
                    yield i, j, 1
            else:
                for j, v in enumerate(r):
                    if v:
                        yield i, j, v

    def transpose(self) -> "FMatrix":
        if self.ell == 2:
            rows = [0] * self.ncols
            # one walk per row, not one generator step per entry (about
            # 1.3-1.6x faster than reading _entries from 20x20 to 200x200)
            for i, r in enumerate(self.rows):
                bit = 1 << i
                for j in _set_bits(r):
                    rows[j] |= bit
        elif self.nrows:
            rows = [list(col) for col in zip(*self.rows)]
        else:
            rows = [[] for _ in range(self.ncols)]
        return FMatrix(self.ell, self.ncols, self.nrows, rows)

    def kron(self, other: "FMatrix") -> "FMatrix":
        """Kronecker product (row-major convention)."""
        if self.ell != other.ell:
            raise ValueError("field mismatch in kron")
        p, q = other.nrows, other.ncols
        scaled: dict[int, FMatrix] = {}
        blocks = []
        for i, j, a in self._entries():
            blk = scaled.get(a)
            if blk is None:
                blk = scaled[a] = other.scale(a)
            blocks.append((i * p, j * q, blk))
        return FMatrix.placed(self.ell, self.nrows * p, self.ncols * q, blocks)

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
    def placed(ell: int, nrows: int, ncols: int, blocks) -> "FMatrix":
        """The nrows x ncols matrix over GF(l) that holds each block of
        ``blocks``, an iterable of (i0, j0, FMatrix) triples, with its top
        left corner at (i0, j0), and zeros elsewhere.  Blocks must not
        overlap.  A block over another field, or one that does not fit,
        raises ValueError."""
        blocks = list(blocks)
        for i0, j0, b in blocks:
            if b.ell != ell:
                raise ValueError(f"a block over GF({b.ell}) placed in a "
                                 f"matrix over GF({ell})")
            if (i0 < 0 or j0 < 0 or i0 + b.nrows > nrows
                    or j0 + b.ncols > ncols):
                raise ValueError(f"a {b.nrows}x{b.ncols} block at ({i0}, "
                                 f"{j0}) does not fit in {nrows}x{ncols}")
        if ell == 2:
            return FMatrix.from_blocks(nrows, ncols, blocks)
        out = FMatrix(ell, nrows, ncols)
        rows = out.rows
        for i0, j0, b in blocks:
            j1 = j0 + b.ncols
            for i, r in enumerate(b.rows, i0):
                rows[i][j0:j1] = r
        return out

    @staticmethod
    def from_blocks(nrows: int, ncols: int, blocks) -> "FMatrix":
        """GF(2) only: ``placed`` without its per-block checks, for blocks
        the caller has laid out inside the matrix.  Each (i0, j0, FMatrix)
        triple of ``blocks`` is a GF(2) block added in with its top left
        corner at (i0, j0), so blocks that overlap add; a block that
        reaches past column ncols raises ValueError."""
        rows = [0] * nrows
        for i, j0, b in blocks:
            for r in b.rows:
                rows[i] ^= r << j0
                i += 1
        if rows and max(rows) >> ncols:
            raise ValueError(f"a block does not fit in {ncols} columns")
        return FMatrix(2, nrows, ncols, rows)

    @staticmethod
    def hstack(blocks: list["FMatrix"]) -> "FMatrix":
        if not blocks:
            raise ValueError("empty hstack")
        nr = blocks[0].nrows
        if any(b.nrows != nr for b in blocks):
            raise ValueError("hstack mismatch")
        placed, off = [], 0
        for b in blocks:
            placed.append((0, off, b))
            off += b.ncols
        return FMatrix.placed(blocks[0].ell, nr, off, placed)

    @staticmethod
    def vstack(blocks: list["FMatrix"]) -> "FMatrix":
        if not blocks:
            raise ValueError("empty vstack")
        nc = blocks[0].ncols
        if any(b.ncols != nc for b in blocks):
            raise ValueError("vstack mismatch")
        placed, off = [], 0
        for b in blocks:
            placed.append((off, 0, b))
            off += b.nrows
        return FMatrix.placed(blocks[0].ell, off, nc, placed)

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


def _set_bits(r: int) -> list[int]:
    """The positions of the set bits of r, lowest first."""
    out = []
    while r:
        low = r & -r
        out.append(low.bit_length() - 1)
        r ^= low
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
