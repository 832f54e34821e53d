"""The coordinate ring of a union of coordinate axes, and its punctual ideals.

The ring is R_n = C[x_1..x_n] / (x_i x_j : i < j), the coordinate ring of the
n coordinate axes glued at the origin.  Every element is a constant plus one
univariate polynomial per axis ("branch"), which is what SeparatedPoly stores.

Ideals of finite colength supported at the origin admit a canonical matrix
presentation: a degree vector u (one degree per branch) and a full-rank
matrix A without zero columns, the generators being A * (x_1^{u_1}, ...,
x_n^{u_n})^T.  normalize_punctual computes that canonical form by exact
linear algebra on a degree-truncated piece of the ring; colength, tangent
spaces and the singular/smoothable verdicts are all built on top of the same
truncated-span machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
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
# origin-supported ideals.
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
        self.monomials = [None]
        self.index = {}
        for deg in range(1, max(self.bounds) + 1):
            for i in range(n):
                if deg <= self.bounds[i]:
                    self.index[(i, deg)] = len(self.monomials)
                    self.monomials.append((i, deg))
        self.dim = len(self.monomials)

    def vector_of(self, p: SeparatedPoly):
        v = [GR_ZERO] * self.dim
        v[0] = p.constant
        for i in range(self.n):
            for s, c in enumerate(p.branches[i], start=1):
                if c and s <= self.bounds[i]:
                    v[self.index[(i, s)]] = c
        return v

    def shift_vectors(self, include_unshifted=True):
        """Truncations of x_i^a * g; a = 0 rows only when requested."""
        rows = []
        for g in self.gens:
            if include_unshifted:
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


class _SpanRREF:
    """RREF of a span with O(1) monomial-membership and reduction."""

    def __init__(self, rows):
        self.rows, self.pivots = rref(rows) if rows else ([], [])
        self.pivot_to_row = {p: r for r, p in enumerate(self.pivots)}

    def rank(self):
        return len(self.pivots)

    def contains_monomial(self, idx):
        r = self.pivot_to_row.get(idx)
        if r is None:
            return False
        row = self.rows[r]
        return all(not c for j, c in enumerate(row) if j != idx)

    def reduce(self, vec):
        vec = list(vec)
        for r, p in enumerate(self.pivots):
            if vec[p]:
                f = vec[p]
                vec = [x - f * y for x, y in zip(vec, self.rows[r])]
        return vec


def _span_data(ctx: FoldRingCtx, gens):
    tr = _Truncation(ctx.n, list(gens))
    full = _SpanRREF(tr.shift_vectors(include_unshifted=True))
    return tr, full


def colength(ctx: FoldRingCtx, gens):
    """Vector-space dimension of R_n / <gens>, or None when infinite.

    Finiteness is detected by every axis reaching a pure power inside the
    truncated span; for origin-supported ideals the returned value is exact.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return None
    tr, full = _span_data(ctx, gens)
    for i in range(ctx.n):
        if not any(full.contains_monomial(tr.index[(i, s)])
                   for s in range(1, tr.bounds[i] + 1)):
            return None
    return tr.dim - full.rank()


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
    """Canonical data of an origin-supported finite-colength ideal.

    The generators are the rows of ``matrix`` applied to the column of
    monomials x_i^{u_i}, together with the forced pure powers x_i^{u_i + 1}
    for i in ``forced``.  The matrix columns at forced axes are zero (the
    matrix is stored embedded at full width n).  Canonical output of
    normalize_punctual always has forced = frozenset() and the matrix in
    reduced row echelon form.
    """

    ctx: FoldRingCtx
    l: int
    u: tuple
    matrix: ExactMatrix
    forced: frozenset = frozenset()

    def __post_init__(self):
        n = self.ctx.n
        if len(self.u) != n or any(d < 1 for d in self.u):
            raise ValueError("degree vector must be positive of length n")
        if not 1 <= self.l <= n:
            raise ValueError("row count out of range")
        if self.matrix.rows != self.l or self.matrix.cols != n:
            raise ValueError("matrix shape mismatch")
        if self.forced and set(self.forced) == set(range(n)):
            raise ValueError("forced set cannot be every axis")
        for j in range(n):
            col_nonzero = any(self.matrix[i, j] for i in range(self.l))
            if j in self.forced:
                if col_nonzero:
                    raise ValueError("matrix column at a forced axis must vanish")
            elif not col_nonzero:
                raise ValueError(f"zero matrix column at axis {j}")
        from .exact import rank as _rank
        if _rank(self.matrix) != self.l:
            raise ValueError("matrix must have full row rank")

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
        for j in sorted(self.forced):
            gens.append(self.ctx.axis_monomial(j, self.u[j] + 1))
        return gens

    def pure_form(self) -> "PunctualIdeal":
        """Absorb forced pure powers as extra unit rows (degree bumped)."""
        if not self.forced:
            return self
        n = self.n
        u = list(self.u)
        rows = [list(self.matrix.row(i)) for i in range(self.l)]
        for j in sorted(self.forced):
            u[j] += 1
            unit = [GR_ZERO] * n
            unit[j] = GR_ONE
            rows.append(unit)
        reduced, _ = rref(rows)
        return PunctualIdeal(self.ctx, len(reduced), tuple(u),
                             ExactMatrix(reduced), frozenset())

    def monomial_rows(self):
        """Row indices whose generator is a pure axis power (pure form only)."""
        out = []
        for i in range(self.l):
            support = [j for j in range(self.n) if self.matrix[i, j]]
            if len(support) == 1:
                out.append((i, support[0]))
        return out


def normalize_punctual(ctx: FoldRingCtx, gens) -> PunctualIdeal:
    """Canonical (l, u, A) presentation of an origin-supported ideal.

    Pipeline: truncate, check finiteness and origin support, extract the
    canonical reduced minimal generators (span RREF reduced modulo the
    span of x_i * ideal), then read off the degree vector and the RREF
    coefficient matrix with axis-ordered pivot columns.  Raises
    NotFiniteColength / NotOriginSupported on bad input and an
    InternalDiagnosticError if the result violates the colength identity.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise NotFiniteColength("no nonzero generators")
    if any(g.constant for g in gens):
        raise NotOriginSupported("a generator has a nonzero constant term")
    tr, full = _span_data(ctx, gens)
    for i in range(ctx.n):
        if not any(full.contains_monomial(tr.index[(i, s)])
                   for s in range(1, tr.bounds[i] + 1)):
            raise NotFiniteColength(f"axis {i} never reaches a pure power")
    for i, g in enumerate(_branch_restriction_gcds(ctx, gens)):
        if g is None:
            raise NotFiniteColength(f"axis {i} untouched by the generators")
        if any(c for c in g[:-1]):
            raise NotOriginSupported(f"axis {i} has a root away from the origin")

    m = tr.dim - full.rank()
    ideal_shifted = _SpanRREF(tr.shift_vectors(include_unshifted=False))

    minimal = []
    for r, p in enumerate(full.pivots):
        if p not in ideal_shifted.pivot_to_row:
            minimal.append(ideal_shifted.reduce(full.rows[r]))
    minimal, _ = rref(minimal)
    if not minimal:
        raise InternalDiagnosticError("no minimal generators found")

    degree_of_axis = {}
    for row in minimal:
        if row[0]:
            raise InternalDiagnosticError("minimal generator with constant term")
        for idx, c in enumerate(row):
            if idx and c:
                i, s = tr.monomials[idx]
                if degree_of_axis.setdefault(i, s) != s:
                    raise InternalDiagnosticError(
                        f"axis {i} appears in two degrees among minimal generators")
    if set(degree_of_axis) != set(range(ctx.n)):
        raise InternalDiagnosticError("an axis is missing from the minimal generators")

    u = tuple(degree_of_axis[i] for i in range(ctx.n))
    coeff_rows = [[row[tr.index[(i, u[i])]] for i in range(ctx.n)]
                  for row in minimal]
    coeff_rows, _ = rref(coeff_rows)
    ideal = PunctualIdeal(ctx, len(coeff_rows), u, ExactMatrix(coeff_rows))
    if ideal.colength() != m:
        raise InternalDiagnosticError(
            f"colength identity violated: {ideal.colength()} != {m}")
    return ideal


# --------------------------------------------------------------------------
# Tangent spaces.
# --------------------------------------------------------------------------


class _QuotientRing:
    """Monomial basis of R_n / J and multiplication-by-axis matrices."""

    def __init__(self, ideal: PunctualIdeal):
        self.ideal = ideal
        ctx = ideal.ctx
        gens = ideal.generators()
        self.tr, self.full = _span_data(ctx, gens)
        pivot_set = set(self.full.pivots)
        self.basis = [idx for idx in range(self.tr.dim) if idx not in pivot_set]
        self.basis_pos = {idx: p for p, idx in enumerate(self.basis)}
        self.m = len(self.basis)
        self._mult_cache = {}

    def _reduce_monomial(self, idx):
        """Coordinates of a monomial in the quotient basis."""
        coords = [GR_ZERO] * self.m
        if idx in self.basis_pos:
            coords[self.basis_pos[idx]] = GR_ONE
            return coords
        r = self.full.pivots.index(idx)
        row = self.full.rows[r]
        for j, c in enumerate(row):
            if j != idx and c:
                coords[self.basis_pos[j]] = -c
        return coords

    def mult_matrix(self, axis):
        """m x m matrix of multiplication by x_{axis+1} on the basis."""
        if axis in self._mult_cache:
            return self._mult_cache[axis]
        cols = []
        for idx in self.basis:
            if idx == 0:
                target = (axis, 1)
            else:
                i, s = self.tr.monomials[idx]
                target = (i, s + 1) if i == axis else None
            if target is None:
                cols.append([GR_ZERO] * self.m)
                continue
            t_idx = self.tr.index.get(target)
            if t_idx is None:
                # beyond the truncation bound: in the ideal for valid inputs
                cols.append([GR_ZERO] * self.m)
                continue
            cols.append(self._reduce_monomial(t_idx))
        self._mult_cache[axis] = cols  # cols[b][o]: coefficient of basis o
        return cols


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
    ideal = ideal.pure_form()
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
        mult = quo.mult_matrix(i)
        for out_coord in range(mdim):
            hits = [(b, mult[b][out_coord]) for b in range(mdim)
                    if mult[b][out_coord]]
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
    if not rows:
        return l * mdim
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
    ideal = ideal.pure_form()
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
    pure = ideal.pure_form()
    non_mon = pure.l - len(pure.monomial_rows())
    verdict = non_mon <= 1
    m = pure.colength()
    if m >= 2 and pure.n >= 2:
        from .hypercomplex import build_complex, is_smoothable_face
        from .moment import locate, moment_global
        complex_ = build_complex(pure.n, m)
        face = locate(moment_global(ideal, m), complex_)
        by_face = is_smoothable_face(face, complex_)
        if by_face != verdict:
            raise InternalDiagnosticError(
                f"canonical-form and face smoothability disagree on {ideal}")
    return verdict
