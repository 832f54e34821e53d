"""The coordinate ring of a union of coordinate axes, and its punctual ideals.

The ring is R_n = C[x_1..x_n] / (x_i x_j : i < j), the coordinate ring of the
n coordinate axes glued at the origin.  Every element is a constant plus one
univariate polynomial per axis ("branch"), which is what SeparatedPoly stores.

Ideals of finite colength supported at the origin admit a canonical matrix
presentation: a degree vector u (one degree per branch) and a full-rank
matrix A without zero columns, the generators being A * (x_1^{u_1}, ...,
x_n^{u_n})^T.  PunctualIdeal holds that pair with A in reduced row echelon
form, and the tangent space and the singular/smoothable verdicts read it
directly.  normalize_punctual finds it from arbitrary generators with one
exact elimination of the ideal's span on a degree-truncated piece of the
ring, the same span from which colength counts the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exact import (ExactMatrix, GaussRational, GR_ONE, GR_ZERO, as_gauss,
                    rref)


class NotOriginSupported(ValueError):
    """The ideal has a zero away from the origin on some axis."""


class NotFiniteColength(ValueError):
    """Some axis never reaches a pure power: the quotient is infinite."""


class InternalDiagnosticError(AssertionError):
    """Two independent computations of the same quantity disagree."""


@dataclass(frozen=True)
class FoldRingCtx:
    """The ambient ring: n >= 1 coordinate axes through the origin."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one axis")

    def axis_monomial(self, axis: int, degree: int, coeff=1) -> "SeparatedPoly":
        if not 0 <= axis < self.n:
            raise IndexError("axis out of range")
        if degree < 1:
            raise ValueError("axis monomials have degree >= 1")
        branches = [()] * self.n
        branches[axis] = tuple([GR_ZERO] * (degree - 1) + [as_gauss(coeff)])
        return SeparatedPoly(self.n, GR_ZERO, branches)


class SeparatedPoly:
    """constant + sum over branches of a univariate polynomial with no
    constant term; branches[i][s] is the coefficient of x_{i+1}^{s+1}."""

    __slots__ = ("n", "constant", "branches")

    def __init__(self, n, constant, branches):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "constant", as_gauss(constant))
        trimmed = []
        for br in branches:
            br = [as_gauss(c) for c in br]
            while br and not br[-1]:
                br.pop()
            trimmed.append(tuple(br))
        if len(trimmed) != n:
            raise ValueError("need one branch per axis")
        object.__setattr__(self, "branches", tuple(trimmed))

    def __setattr__(self, name, value):
        raise AttributeError("SeparatedPoly is immutable")

    @staticmethod
    def zero(n):
        return SeparatedPoly(n, GR_ZERO, [()] * n)

    def is_zero(self):
        return not self.constant and all(not br for br in self.branches)

    def coeff(self, axis: int, degree: int) -> GaussRational:
        br = self.branches[axis]
        return br[degree - 1] if 1 <= degree <= len(br) else GR_ZERO

    def branch_degree(self, axis: int) -> int:
        """Top degree on an axis, 0 if the branch part vanishes."""
        return len(self.branches[axis])

    def __eq__(self, other):
        return (isinstance(other, SeparatedPoly) and self.n == other.n
                and self.constant == other.constant
                and self.branches == other.branches)

    def __hash__(self):
        return hash((self.n, self.constant, self.branches))

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched ambient rings")
        branches = []
        for a, b in zip(self.branches, other.branches):
            length = max(len(a), len(b))
            a = a + (GR_ZERO,) * (length - len(a))
            b = b + (GR_ZERO,) * (length - len(b))
            branches.append([x + y for x, y in zip(a, b)])
        return SeparatedPoly(self.n, self.constant + other.constant, branches)

    def __neg__(self):
        return self.scaled(GaussRational(-1))

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "SeparatedPoly":
        c = as_gauss(c)
        return SeparatedPoly(self.n, self.constant * c,
                             [[x * c for x in br] for br in self.branches])

    def __mul__(self, other):
        """Product in the ring: cross-branch terms vanish."""
        if isinstance(other, (int, GaussRational, Fraction)):
            return self.scaled(other)
        if self.n != other.n:
            raise ValueError("mismatched ambient rings")
        branches = []
        for a, b in zip(self.branches, other.branches):
            conv = [GR_ZERO] * (len(a) + len(b))
            for i, x in enumerate(a):
                if not x:
                    continue
                for j, y in enumerate(b):
                    if y:
                        conv[i + j + 1] = conv[i + j + 1] + x * y
            for i, x in enumerate(a):
                conv[i] = conv[i] + x * other.constant
            for j, y in enumerate(b):
                conv[j] = conv[j] + y * self.constant
            branches.append(conv)
        return SeparatedPoly(self.n, self.constant * other.constant, branches)

    __rmul__ = __mul__

    def __repr__(self):
        parts = []
        if self.constant:
            parts.append(repr(self.constant))
        for i, br in enumerate(self.branches):
            for s, c in enumerate(br, start=1):
                if c:
                    c_str = repr(c)
                    if "+" in c_str or "-" in c_str[1:]:
                        c_str = f"({c_str})"
                    parts.append(f"{c_str}*x{i + 1}^{s}" if s > 1 else f"{c_str}*x{i + 1}")
        return " + ".join(parts) if parts else "0"


# --------------------------------------------------------------------------
# Truncated-span machinery.
#
# Working space W = span{1} + span{x_i^s : 1 <= s <= B_i} with B_i one past
# the top generator degree on branch i.  The vector-space span of the ideal
# inside W is generated by the truncations of x_i^a * g over all generators
# g, axes i and shifts 0 <= a <= B_i; pure powers x_i^s for s > B_i are in
# the ideal whenever the quotient is finite, so the truncation is exact for
# origin-supported ideals.  The span is eliminated once, by _finite_span;
# the quotient by a canonical presentation needs no elimination at all.
# --------------------------------------------------------------------------


class _Truncation:
    def __init__(self, n, gens):
        self.n = n
        self.gens = list(gens)
        tops = [0] * n
        for g in self.gens:
            for i in range(n):
                tops[i] = max(tops[i], g.branch_degree(i))
        self.bounds = [t + 1 for t in tops]
        # monomials ordered by (degree, axis); index 0 is the constant
        self.index = {}
        for deg in range(1, max(self.bounds) + 1):
            for i in range(n):
                if deg <= self.bounds[i]:
                    self.index[(i, deg)] = len(self.index) + 1
        self.dim = len(self.index) + 1

    def vector_of(self, p: SeparatedPoly):
        v = [GR_ZERO] * self.dim
        v[0] = p.constant
        for i in range(self.n):
            for s, c in enumerate(p.branches[i], start=1):
                if c and s <= self.bounds[i]:
                    v[self.index[(i, s)]] = c
        return v

    def shift_vectors(self):
        """Truncations of x_i^a * g for 0 <= a <= B_i."""
        rows = []
        for g in self.gens:
            rows.append(self.vector_of(g))
            for i in range(self.n):
                br = g.branches[i]
                c0 = g.constant
                if not br and not c0:
                    continue
                for a in range(1, self.bounds[i] + 1):
                    v = [GR_ZERO] * self.dim
                    if c0 and a <= self.bounds[i]:
                        v[self.index[(i, a)]] = c0
                    nonzero = bool(c0)
                    for s, c in enumerate(br, start=1):
                        if c and s + a <= self.bounds[i]:
                            v[self.index[(i, s + a)]] = c
                            nonzero = True
                    if nonzero:
                        rows.append(v)
        return rows


def _finite_span(ctx: FoldRingCtx, gens):
    """Truncation and reduced rows of the span of the ideal.

    Raises NotFiniteColength when some axis never reaches a pure power
    inside the truncated span; otherwise the quotient has dimension
    tr.dim - len(rows), exactly so for origin-supported ideals.
    """
    tr = _Truncation(ctx.n, gens)
    rows, pivots = rref(tr.shift_vectors())
    row_at = dict(zip(pivots, rows))
    for i in range(ctx.n):
        if not any(_holds_monomial(row_at, tr.index[(i, s)])
                   for s in range(1, tr.bounds[i] + 1)):
            raise NotFiniteColength(f"axis {i} never reaches a pure power")
    return tr, rows


def _holds_monomial(row_at, idx):
    """A reduced span holds monomial idx when its row with that pivot is
    the monomial itself."""
    row = row_at.get(idx)
    return row is not None and all(not c for j, c in enumerate(row) if j != idx)


def colength(ctx: FoldRingCtx, gens):
    """Vector-space dimension of R_n / <gens>, or None when infinite.

    Finiteness is detected by every axis reaching a pure power inside the
    truncated span; for origin-supported ideals the returned value is exact.
    """
    try:
        tr, rows = _finite_span(ctx, gens)
    except NotFiniteColength:
        return None
    return tr.dim - len(rows)


def _branch_restriction_gcds(ctx, gens):
    """gcd of the branch-i restrictions of the generators, per axis.

    A restriction is constant + branch part as a dense coefficient list
    [c_0, c_1, ...]; the gcd is monic.  Returns None for an axis whose
    restrictions all vanish.
    """
    out = []
    for i in range(ctx.n):
        polys = []
        for g in gens:
            coeffs = [g.constant] + list(g.branches[i])
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            if coeffs:
                polys.append(coeffs)
        if not polys:
            out.append(None)
            continue
        acc = polys[0]
        for p in polys[1:]:
            acc = _poly_gcd(acc, p)
        lead = acc[-1]
        out.append([c / lead for c in acc])
    return out


def _poly_mod(a, b):
    a = list(a)
    inv_lead = b[-1].inverse()
    while len(a) >= len(b) and a:
        if not a[-1]:
            a.pop()
            continue
        f = a[-1] * inv_lead
        off = len(a) - len(b)
        for j in range(len(b)):
            a[off + j] = a[off + j] - f * b[j]
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_mod(a, b)
    return a


@dataclass(frozen=True)
class PunctualIdeal:
    """Canonical presentation (u, A) of an origin-supported finite-colength
    ideal.

    The generators are the rows of ``matrix`` applied to the column of
    monomials x_i^{u_i}.  Any full-rank matrix without zero columns may be
    given; it is stored in reduced row echelon form, the one matrix of its
    row space, so every presentation of an ideal gives the same verdicts.
    ``pivots`` holds the pivot axis of each row.
    """

    ctx: FoldRingCtx
    l: int
    u: tuple
    matrix: ExactMatrix
    pivots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.ctx.n
        if len(self.u) != n or any(d < 1 for d in self.u):
            raise ValueError("degree vector must be positive of length n")
        if not 1 <= self.l <= n:
            raise ValueError("row count out of range")
        if self.matrix.rows != self.l or self.matrix.cols != n:
            raise ValueError("matrix shape mismatch")
        for j in range(n):
            if not any(self.matrix[i, j] for i in range(self.l)):
                raise ValueError(f"zero matrix column at axis {j}")
        reduced, pivots = rref(self.matrix.entries)
        if len(pivots) != self.l:
            raise ValueError("matrix must have full row rank")
        object.__setattr__(self, "matrix", ExactMatrix(reduced))
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def n(self):
        return self.ctx.n

    def colength(self) -> int:
        return sum(self.u) + 1 - self.l

    def generators(self):
        gens = []
        for i in range(self.l):
            p = SeparatedPoly.zero(self.n)
            for j in range(self.n):
                c = self.matrix[i, j]
                if c:
                    p = p + self.ctx.axis_monomial(j, self.u[j], c)
            gens.append(p)
        return gens

    def monomial_rows(self):
        """(row, axis) for each generator that is a pure axis power."""
        out = []
        for i in range(self.l):
            support = [j for j in range(self.n) if self.matrix[i, j]]
            if len(support) == 1:
                out.append((i, support[0]))
        return out

    def contains(self, p: SeparatedPoly) -> bool:
        """Membership: no constant term, no x_i^s with s < u_i, and the
        x_i^{u_i} coefficients in the row space of the matrix (every
        x_i^s with s > u_i lies in the ideal)."""
        if p.constant or any(p.coeff(i, s) for i in range(self.n)
                             for s in range(1, self.u[i])):
            return False
        v = [p.coeff(i, self.u[i]) for i in range(self.n)]
        for r, axis in enumerate(self.pivots):
            f = v[axis]
            if f:
                v = [x - f * y for x, y in zip(v, self.matrix.row(r))]
        return not any(v)


def normalize_punctual(ctx: FoldRingCtx, gens) -> PunctualIdeal:
    """Canonical (l, u, A) presentation of an origin-supported ideal.

    The branch-i restrictions of the ideal generate (x_i^{u_i}) in C[x_i],
    so u_i is the degree of their gcd; x_i * J holds exactly the powers
    x_i^s with s > u_i, so A is the reduced row space of the span's
    coordinates at the monomials x_i^{u_i}.  Raises NotFiniteColength /
    NotOriginSupported on bad input.  Cross-checks: the presentation's
    colength sum(u) + 1 - l equals the dimension of the quotient by the
    span, and every input generator lies in the presented ideal; an ideal
    contained in another of equal colength equals it.  A failure raises
    InternalDiagnosticError.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise NotFiniteColength("no nonzero generators")
    if any(g.constant for g in gens):
        raise NotOriginSupported("a generator has a nonzero constant term")
    tr, rows = _finite_span(ctx, gens)
    u = []
    for i, g in enumerate(_branch_restriction_gcds(ctx, gens)):
        if g is None:
            raise NotFiniteColength(f"axis {i} untouched by the generators")
        if any(c for c in g[:-1]):
            raise NotOriginSupported(f"axis {i} has a root away from the origin")
        u.append(len(g) - 1)

    cols = [tr.index[(i, d)] for i, d in enumerate(u)]
    coeff_rows = [r for r in ([row[c] for c in cols] for row in rows) if any(r)]
    ideal = PunctualIdeal(ctx, len(coeff_rows), tuple(u),
                          ExactMatrix(coeff_rows))
    m = tr.dim - len(rows)
    if ideal.colength() != m:
        raise InternalDiagnosticError(
            f"colength identity violated: {ideal.colength()} != {m}")
    if not all(ideal.contains(g) for g in gens):
        raise InternalDiagnosticError(
            "an input generator lies outside the presented ideal")
    return ideal


# --------------------------------------------------------------------------
# Tangent spaces.
# --------------------------------------------------------------------------


class _QuotientRing:
    """Monomial basis of R_n / J and the action of each axis on it, read
    off the canonical presentation without elimination.

    The basis is 1 (first), the x_i^s with s < u_i, and x_i^{u_i} on each
    axis that is no row's pivot.  On the pivot axis p of row r,
    x_p^{u_p} = -sum_j A[r][j] x_j^{u_j} over the other axes j, which are
    all non-pivot; every x_i^s with s > u_i lies in J.
    """

    def __init__(self, ideal: PunctualIdeal):
        self.ideal = ideal
        self.pivot_row = {axis: r for r, axis in enumerate(ideal.pivots)}
        self.basis = [None] + [
            (i, s) for i in range(ideal.n)
            for s in range(1, ideal.u[i] + (i not in self.pivot_row))]
        self.basis_pos = {mono: b for b, mono in enumerate(self.basis)}
        self.m = len(self.basis)

    def _coords(self, i, s):
        """Coordinates of x_i^s in the quotient basis."""
        coords = [GR_ZERO] * self.m
        b = self.basis_pos.get((i, s))
        if b is not None:
            coords[b] = GR_ONE
        elif s == self.ideal.u[i]:
            row = self.ideal.matrix.row(self.pivot_row[i])
            for j, c in enumerate(row):
                if j != i and c:
                    coords[self.basis_pos[(j, self.ideal.u[j])]] = -c
        return coords

    def action(self, axis):
        """Multiplication by x_{axis+1} on the basis monomials it moves, 1
        and the powers of that axis: (b, coordinates of x_{axis+1} * basis
        b) pairs.  Every other basis monomial goes to 0."""
        return [(b, self._coords(axis, 1 if mono is None else mono[1] + 1))
                for b, mono in enumerate(self.basis)
                if mono is None or mono[0] == axis]


def tangent_dim(ideal: PunctualIdeal, m: int | None = None) -> int:
    """Dimension of Hom(J, R/J), the tangent space at [J].

    Unknowns are the images of the canonical generators written in the
    monomial basis of R/J (l*m of them).  For each axis i, with a = A[., i]
    and p the first row where a_p != 0, the relations
    a_j * x_i * f_p - a_p * x_i * f_j = 0 for j != p impose m linear
    constraints each.  They span the relations of every other pair of rows:
    syz(j, k) = (a_k/a_p) syz(p, j) - (a_j/a_p) syz(p, k).  The answer is
    l*m minus the rank of the constraint system.
    """
    if m is not None and ideal.colength() != m:
        raise ValueError(f"colength is {ideal.colength()}, not {m}")
    quo = _QuotientRing(ideal)
    mdim = quo.m
    l = ideal.l
    A = ideal.matrix
    rows = []
    for i in range(ideal.n):
        a = [A[r, i] for r in range(l)]
        p = next(r for r in range(l) if a[r])
        moved = quo.action(i)
        for out_coord in range(mdim):
            hits = [(b, coords[out_coord]) for b, coords in moved
                    if coords[out_coord]]
            if not hits:
                continue
            for j in range(l):
                if j == p:
                    continue
                row = [GR_ZERO] * (l * mdim)
                for b, c in hits:
                    if a[j]:
                        row[p * mdim + b] = a[j] * c
                    row[j * mdim + b] = -a[p] * c
                rows.append(row)
    _, pivots = rref(rows)
    return l * mdim - len(pivots)


@lru_cache(maxsize=None)
def component_dimension(n: int, m: int, l: int) -> int:
    """Dimension of the unique component through a generic member of the
    (m, l) stratum: the smoothable component (dim m) when l = 1, else the
    Grassmannian family of dimension l(n-l) + m + l - 1 - n.

    For a nonempty stratum (m >= n + 1 - l) the formula is compared with the
    tangent dimension at one generic member, a smooth point of the
    component: degrees (m + l - n, 1, ..., 1) and Vandermonde rows
    ((j + 1)^r)_j, whose maximal minors are all nonzero, so that no
    canonical row is a monomial.
    """
    if l == 1:
        return m
    dim = l * (n - l) + (m + l - 1 - n)
    if m + l > n:
        generic = PunctualIdeal(
            FoldRingCtx(n), l, (m + l - n,) + (1,) * (n - 1),
            ExactMatrix([[(j + 1) ** r for j in range(n)] for r in range(l)]))
        if tangent_dim(generic) != dim:
            raise InternalDiagnosticError(
                "component dimension formula and generic tangent disagree")
    return dim


@dataclass(frozen=True)
class SingularVerdict:
    singular: bool
    matched_condition: str
    tangent: int
    expected_smooth_dim: int


def is_singular_point(ideal: PunctualIdeal, m: int | None = None) -> SingularVerdict:
    """Is [J] a singular point of the ambient Hilbert scheme?

    Two independent routes, cross-checked:
    (a) the syntactic condition on the canonical form -- a pure-power
        minimal generator of degree >= 2, or degree-one monomial generators
        together with exactly one non-monomial generator;
    (b) tangent dimension strictly above the containing component's
        dimension, or membership in two punctual components.
    Disagreement raises InternalDiagnosticError.
    """
    mm = ideal.colength()
    if m is not None and mm != m:
        raise ValueError(f"colength is {mm}, not {m}")
    n = ideal.n

    if mm == 1:
        verdict = n >= 2
        return SingularVerdict(verdict, "length-one degenerate",
                               tangent_dim(ideal), 1)
    if n == 1:
        # the Hilbert scheme of points on a smooth curve is smooth of dim m
        if tangent_dim(ideal) != mm:
            raise InternalDiagnosticError(
                f"tangent dimension on one axis is not the colength: {ideal}")
        return SingularVerdict(False, "one axis: smooth curve", mm, mm)

    mon = ideal.monomial_rows()
    mon_axes = [axis for _, axis in mon]
    high_mon = [axis for axis in mon_axes if ideal.u[axis] >= 2]
    non_mon_count = ideal.l - len(mon)

    if high_mon:
        syntactic = True
        condition = "pure-power generator of degree >= 2"
    elif mon and non_mon_count == 1:
        syntactic = True
        condition = "single non-monomial generator plus degree-one axes"
    else:
        syntactic = False
        condition = "generic stratum member"

    tangent = tangent_dim(ideal)
    if high_mon:
        from .moment import containing_presentations
        by_tangent = tangent > max(
            component_dimension(n, mm, l2)
            for l2, _, _ in containing_presentations(ideal))
        expected = component_dimension(n, mm, ideal.l - 1)
    else:
        expected = component_dimension(n, mm, ideal.l)
        by_tangent = tangent > expected

    if by_tangent != syntactic:
        raise InternalDiagnosticError(
            f"syntactic and tangent singularity verdicts disagree on {ideal}")
    return SingularVerdict(syntactic, condition, tangent, expected)


def is_smoothable(ideal: PunctualIdeal) -> bool:
    """True when [J] is a limit of reduced points.

    Canonical-form criterion: at most one generator is non-monomial.  When
    meaningful (colength >= 2 and at least two axes) the verdict is
    cross-checked against the smoothable-face test on the moment image
    inside the hypersimplicial complex.  On one axis every ideal is
    smoothable: the points of a smooth curve form a smooth scheme.
    """
    non_mon = ideal.l - len(ideal.monomial_rows())
    verdict = non_mon <= 1
    m = ideal.colength()
    if m >= 2 and ideal.n >= 2:
        from .hypercomplex import build_complex, is_smoothable_face
        from .moment import locate, moment_global
        complex_ = build_complex(ideal.n, m)
        face = locate(moment_global(ideal, m), complex_)
        by_face = is_smoothable_face(face, complex_)
        if by_face != verdict:
            raise InternalDiagnosticError(
                f"canonical-form and face smoothability disagree on {ideal}")
    return verdict
