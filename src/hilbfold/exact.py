"""Exact scalars and linear algebra over the Gaussian rationals.

Everything downstream (moment maps, tangent spaces, Pluecker coordinates)
needs |q|^2 to be an exact rational, so scalars are a + b*i with rational
a, b.  A value is stored as an integer triple (a, b, d) meaning
(a + b*i)/d with d > 0 and gcd(a, b, d) = 1; this is noticeably faster
than a pair of Fractions in elimination.

One Gauss-Jordan loop, ``_eliminate``, serves every entry point: ``rref``,
``rank``, ``kernel_basis``, ``det`` and ``minor``.  The matrices met here
are sparse, so the loop skips every update whose pivot-row entry is zero.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GaussRational:
    """A Gaussian rational (a + b*i)/d in lowest terms with d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        if isinstance(a, GaussRational):
            a, b, d = a.a, a.b, a.d
        elif isinstance(a, Fraction):
            a, b, d = a.numerator, b, a.denominator
            if isinstance(b, Fraction):
                raise TypeError("use from_fractions for two Fraction parts")
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(abs(a), abs(b)), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @staticmethod
    def from_fractions(re: Fraction, im: Fraction = Fraction(0)) -> "GaussRational":
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        return GaussRational(re.numerator * (d // re.denominator),
                             im.numerator * (d // im.denominator), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational(self.a * other.d + other.a * self.d,
                             self.b * other.d + other.b * self.d,
                             self.d * other.d)

    __radd__ = __add__

    def __neg__(self):
        return GaussRational(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussRational(self.a * other.a - self.b * other.b,
                             self.a * other.b + self.b * other.a,
                             self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussRational":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussRational(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.a, -self.b, self.d)

    def norm_sq(self) -> Fraction:
        """|q|^2 = re^2 + im^2, an exact nonnegative rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_rational(self) -> bool:
        return self.b == 0

    def __repr__(self):
        if self.b == 0:
            return f"{Fraction(self.a, self.d)}"
        if self.a == 0:
            return f"{Fraction(self.b, self.d)}i"
        sign = "+" if self.b > 0 else "-"
        return f"{Fraction(self.a, self.d)}{sign}{Fraction(abs(self.b), self.d)}i"


def _coerce(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return GaussRational(x)
    if isinstance(x, Fraction):
        return GaussRational(x.numerator, 0, x.denominator)
    return NotImplemented


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)


def as_gauss(x) -> GaussRational:
    g = _coerce(x)
    if g is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")
    return g


class ExactMatrix:
    """Immutable dense matrix over the Gaussian rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows_of_entries):
        rows = tuple(tuple(as_gauss(x) for x in row) for row in rows_of_entries)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[GR_ONE if i == j else GR_ZERO for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix([[GR_ZERO] * c for _ in range(r)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in row) for row in self.entries)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"


def _eliminate(rows):
    """Gauss-Jordan elimination, the one loop behind every entry point.

    Pivots are chosen left to right taking the first row with a nonzero
    entry, the pivot is normalised to 1 and cleared from every other row;
    an entry whose pivot-row entry is zero is left as it is.  Returns
    (reduced_rows, pivot_columns, scale) with zero rows dropped, where
    scale is the product of the pivots before normalisation, negated for
    each row swap: the determinant when the rows are square of full rank.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    rank = 0
    scale = GR_ONE
    for col in range(ncols):
        sel = None
        for i in range(rank, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        if sel != rank:
            work[rank], work[sel] = work[sel], work[rank]
            scale = -scale
        piv = work[rank][col]
        scale = scale * piv
        inv = piv.inverse()
        prow = work[rank] = [x * inv if x else x for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y if y else x
                           for x, y in zip(work[i], prow)]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots, scale


def rref(rows):
    """Reduced row echelon form of a list of GaussRational row-lists.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    return _eliminate(rows)[:2]


def rank(m: ExactMatrix) -> int:
    """Rank over the Gaussian rationals, by exact pivoted elimination."""
    _, pivots = rref(m.entries)
    return len(pivots)


def kernel_basis(m: ExactMatrix):
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
    reduced, pivots = rref(m.entries)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [GR_ZERO] * m.cols
        v[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


def det(m: ExactMatrix) -> GaussRational:
    """Exact determinant: the signed product of the elimination pivots."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    _, pivots, scale = _eliminate(m.entries)
    return scale if len(pivots) == m.rows else GR_ZERO


def minor(m: ExactMatrix, rowset, colset) -> GaussRational:
    """Determinant of the submatrix on the given rows and columns."""
    rowset = tuple(rowset)
    colset = tuple(colset)
    if len(rowset) != len(colset):
        raise ValueError("minor needs equally many rows and columns")
    for i in rowset:
        if not 0 <= i < m.rows:
            raise IndexError(f"row index {i} out of range")
    for j in colset:
        if not 0 <= j < m.cols:
            raise IndexError(f"column index {j} out of range")
    _, pivots, scale = _eliminate([[m.entries[i][j] for j in colset]
                                   for i in rowset])
    return scale if len(pivots) == len(rowset) else GR_ZERO
