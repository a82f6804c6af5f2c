"""Exact dense linear algebra over prime fields GF(l).

All matrices in this package are small (a few hundred rows at the very
most), so the representation favours simplicity and exactness over
asymptotics.  For l = 2 each row is a Python int used as a bitset and a
row operation is a single XOR; for odd l rows are lists of residues.
No floats anywhere.
"""

from __future__ import annotations


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


class PrimeField:
    """Arithmetic in GF(l) for a prime l."""

    def __init__(self, ell: int):
        if not is_prime(ell):
            raise ValueError(f"modulus must be prime, got {ell}")
        self.ell = ell

    def inv(self, a: int) -> int:
        a %= self.ell
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.ell)
        return pow(a, self.ell - 2, self.ell)


class FMatrix:
    """A dense matrix over GF(l).

    Rows are ints (bitsets) when l = 2 and lists of ints otherwise.  The
    class only implements what the rest of the package needs: ring ops,
    reduced row echelon form and the solvers built on top of it.
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
        m = cls(ell, n, n)
        for i in range(n):
            m.set(i, i, 1)
        return m

    @classmethod
    def from_rows(cls, rows, ell: int = 2, ncols: int | None = None) -> "FMatrix":
        """Build from a list of lists of ints (reduced mod l)."""
        rows = [list(r) for r in rows]
        nr = len(rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        m = cls(ell, nr, ncols)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                m.set(i, j, v)
        return m

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
        return [self.get(i, j) for j in range(self.ncols)]

    def col(self, j: int) -> list[int]:
        return [self.get(i, j) for i in range(self.nrows)]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.nrows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return (self.ell == other.ell and self.nrows == other.nrows
                and self.ncols == other.ncols
                and self.to_rows() == other.to_rows())

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
        out = self.copy()
        if self.ell == 2:
            for i in range(self.nrows):
                out.rows[i] ^= other.rows[i]
        else:
            for i in range(self.nrows):
                for j in range(self.ncols):
                    out.rows[i][j] = (out.rows[i][j] + other.rows[i][j]) % self.ell
        return out

    def scale(self, c: int) -> "FMatrix":
        c %= self.ell
        out = FMatrix(self.ell, self.nrows, self.ncols)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out.set(i, j, c * self.get(i, j))
        return out

    def mul(self, other: "FMatrix") -> "FMatrix":
        if self.ncols != other.nrows or self.ell != other.ell:
            raise ValueError("shape/field mismatch in mul")
        out = FMatrix(self.ell, self.nrows, other.ncols)
        if self.ell == 2:
            for i in range(self.nrows):
                acc = 0
                r = self.rows[i]
                for k in range(self.ncols):
                    if (r >> k) & 1:
                        acc ^= other.rows[k]
                out.rows[i] = acc
        else:
            for i in range(self.nrows):
                for j in range(other.ncols):
                    s = 0
                    for k in range(self.ncols):
                        s += self.rows[i][k] * other.rows[k][j]
                    out.rows[i][j] = s % self.ell
        return out

    def mul_vec(self, v: list[int]) -> list[int]:
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.nrows):
            s = 0
            for k in range(self.ncols):
                s += self.get(i, k) * v[k]
            out.append(s % self.ell)
        return out

    def transpose(self) -> "FMatrix":
        out = FMatrix(self.ell, self.ncols, self.nrows)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out.set(j, i, self.get(i, j))
        return out

    def kron(self, other: "FMatrix") -> "FMatrix":
        """Kronecker product (row-major convention)."""
        if self.ell != other.ell:
            raise ValueError("field mismatch in kron")
        out = FMatrix(self.ell, self.nrows * other.nrows, self.ncols * other.ncols)
        for i in range(self.nrows):
            for j in range(self.ncols):
                a = self.get(i, j)
                if a == 0:
                    continue
                for k in range(other.nrows):
                    for m in range(other.ncols):
                        v = a * other.get(k, m)
                        if v % self.ell:
                            out.set(i * other.nrows + k, j * other.ncols + m, v)
        return out

    # -- stacking -----------------------------------------------------

    @staticmethod
    def hstack(blocks: list["FMatrix"]) -> "FMatrix":
        if not blocks:
            raise ValueError("empty hstack")
        nr, ell = blocks[0].nrows, blocks[0].ell
        if any(b.nrows != nr or b.ell != ell for b in blocks):
            raise ValueError("hstack mismatch")
        nc = sum(b.ncols for b in blocks)
        out = FMatrix(ell, nr, nc)
        off = 0
        for b in blocks:
            for i in range(nr):
                for j in range(b.ncols):
                    v = b.get(i, j)
                    if v:
                        out.set(i, off + j, v)
            off += b.ncols
        return out

    @staticmethod
    def vstack(blocks: list["FMatrix"]) -> "FMatrix":
        if not blocks:
            raise ValueError("empty vstack")
        nc, ell = blocks[0].ncols, blocks[0].ell
        if any(b.ncols != nc or b.ell != ell for b in blocks):
            raise ValueError("vstack mismatch")
        nr = sum(b.nrows for b in blocks)
        out = FMatrix(ell, nr, nc)
        off = 0
        for b in blocks:
            for i in range(b.nrows):
                for j in range(nc):
                    v = b.get(i, j)
                    if v:
                        out.set(off + i, j, v)
            off += b.nrows
        return out

    def submatrix(self, row_idx: list[int], col_idx: list[int]) -> "FMatrix":
        out = FMatrix(self.ell, len(row_idx), len(col_idx))
        for a, i in enumerate(row_idx):
            for b, j in enumerate(col_idx):
                v = self.get(i, j)
                if v:
                    out.set(a, b, v)
        return out

    # -- echelon form and friends ---------------------------------------

    def rref(self) -> tuple["FMatrix", list[int]]:
        """Reduced row echelon form; returns (R, pivot_columns)."""
        R = self.copy()
        pivots: list[int] = []
        r = 0
        if self.ell == 2:
            for c in range(self.ncols):
                if r >= self.nrows:
                    break
                sel = -1
                for i in range(r, self.nrows):
                    if (R.rows[i] >> c) & 1:
                        sel = i
                        break
                if sel < 0:
                    continue
                R.rows[r], R.rows[sel] = R.rows[sel], R.rows[r]
                for i in range(self.nrows):
                    if i != r and (R.rows[i] >> c) & 1:
                        R.rows[i] ^= R.rows[r]
                pivots.append(c)
                r += 1
        else:
            ff = PrimeField(self.ell)
            for c in range(self.ncols):
                if r >= self.nrows:
                    break
                sel = -1
                for i in range(r, self.nrows):
                    if R.rows[i][c]:
                        sel = i
                        break
                if sel < 0:
                    continue
                R.rows[r], R.rows[sel] = R.rows[sel], R.rows[r]
                inv = ff.inv(R.rows[r][c])
                if inv != 1:
                    R.rows[r] = [(v * inv) % self.ell for v in R.rows[r]]
                for i in range(self.nrows):
                    if i != r and R.rows[i][c]:
                        f = R.rows[i][c]
                        R.rows[i] = [
                            (R.rows[i][j] - f * R.rows[r][j]) % self.ell
                            for j in range(self.ncols)]
                pivots.append(c)
                r += 1
        return R, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullity(self) -> int:
        return self.ncols - self.rank()

    def kernel_basis(self) -> "FMatrix":
        """Basis of the right kernel, returned as columns of a matrix."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        out = FMatrix(self.ell, self.ncols, len(free))
        for k, fc in enumerate(free):
            out.set(fc, k, 1)
            for i, pc in enumerate(pivots):
                v = R.get(i, fc)
                if v:
                    out.set(pc, k, -v)
        return out

    def solve_many(self, B: "FMatrix"):
        """Solve self @ X = B columnwise; returns X or None if inconsistent."""
        if B.nrows != self.nrows or B.ell != self.ell:
            raise ValueError("rhs shape mismatch")
        aug = FMatrix.hstack([self, B])
        R, pivots = aug.rref()
        pivots = [p for p in pivots if p < self.ncols]
        # consistency: no pivot may fall in the augmented block
        rk = len(pivots)
        for i in range(rk, aug.nrows):
            for j in range(self.ncols, aug.ncols):
                if R.get(i, j):
                    return None
        X = FMatrix(self.ell, self.ncols, B.ncols)
        for i, pc in enumerate(pivots):
            for j in range(B.ncols):
                v = R.get(i, self.ncols + j)
                if v:
                    X.set(pc, j, v)
        return X

    def solve(self, b: list[int]):
        """Solve self @ x = b; returns a list or None."""
        B = FMatrix(self.ell, self.nrows, 1)
        for i, v in enumerate(b):
            B.set(i, 0, v)
        X = self.solve_many(B)
        if X is None:
            return None
        return X.col(0)

    def invert(self) -> "FMatrix":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices invert")
        X = self.solve_many(FMatrix.identity(self.nrows, self.ell))
        if X is None or self.rank() != self.nrows:
            raise ValueError("matrix is singular")
        return X

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def column_space_pivots(self) -> list[int]:
        """Indices of a maximal independent set of columns."""
        return self.rref()[1]


def random_invertible(n: int, ell: int, rng) -> FMatrix:
    """A uniformly-ish random invertible n x n matrix over GF(l)."""
    if n == 0:
        return FMatrix(ell, 0, 0)
    while True:
        m = FMatrix(ell, n, n)
        for i in range(n):
            for j in range(n):
                m.set(i, j, rng.randrange(ell))
        if m.is_invertible():
            return m
