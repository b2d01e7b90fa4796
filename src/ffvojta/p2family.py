"""Bidegree bookkeeping and the reducible-quartic family fixture.

Forms live on P^2 x P^1 with coordinates (x0, x1, x2) and (y0, y1); a
BiForm is bihomogeneous of bidegree (a, b): a `bipoly.SparsePoly` with
Fraction coefficients, whose constructor rejects any other input.  The
fixture is a pencil of reducible plane quartics (two lines plus a conic)
whose covering map ramifies, away from the boundary, over one ample
component; its bad fibers and image polynomial are computed here so
sections can be audited over Q.
"""

from __future__ import annotations

from fractions import Fraction

from .bipoly import BiPoly, SparsePoly
from .field_core import Place, Poly, RatFunc, _Record, factor_poly
from .sunits import PlaceSet


class DegenerateMap(ValueError):
    """Raised when the Jacobian determinant of a map vanishes identically."""


class BiDegree(_Record):
    """Bidegree (a, b) in Pic(P^2 x P^1)."""

    __slots__ = ("a", "b")

    def as_tuple(self) -> tuple[int, int]:
        return (self.a, self.b)


def log_canonical_bidegree(d: int, l: int) -> BiDegree:
    """Bidegree (d - 3, l - 2) of the log canonical class K + D for D of
    bidegree (d, l)."""
    return BiDegree(d - 3, l - 2)


_VARS = ("x0", "x1", "x2", "y0", "y1")


class BiForm(SparsePoly):
    """Bihomogeneous form in x0, x1, x2, y0, y1 over Q.

    Keys are exponent tuples (e0, e1, e2, f0, f1); every monomial must have
    the same x-degree and the same y-degree.
    """

    __slots__ = ("xdeg", "ydeg")

    _arity = 5
    _coerce = staticmethod(Fraction)

    def __init__(self, coeffs=None):
        super().__init__(coeffs)
        xdegs = {k[0] + k[1] + k[2] for k in self.coeffs}
        ydegs = {k[3] + k[4] for k in self.coeffs}
        if len(xdegs) > 1 or len(ydegs) > 1:
            raise ValueError("a BiForm must be bihomogeneous")
        self.xdeg = xdegs.pop() if xdegs else 0
        self.ydeg = ydegs.pop() if ydegs else 0

    @staticmethod
    def zero() -> "BiForm":
        return BiForm()

    @staticmethod
    def monomial(e0=0, e1=0, e2=0, f0=0, f1=0, c=1) -> "BiForm":
        return BiForm({(e0, e1, e2, f0, f1): c})

    def partial_x(self, k: int) -> "BiForm":
        """Partial derivative with respect to x_k (k in 0..2)."""
        return self._partial(k)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for key, c in sorted(self.coeffs.items()):
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(_VARS, key) if e > 0)
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"BiForm({str(self)})"


def jacobian_ramification(g1: BiForm, g2: BiForm, g3: BiForm) -> BiForm:
    """Determinant of the 3x3 matrix of x-partials, expanded exactly.

    The three forms must have equal x-degree (exponents already applied by
    the caller); an identically zero determinant signals a degenerate map.
    """
    forms = (g1, g2, g3)
    xdegs = {g.xdeg for g in forms}
    if len(xdegs) != 1:
        raise ValueError("the three forms must share one x-degree")
    rows = [[g.partial_x(k) for k in range(3)] for g in forms]
    det = BiForm.zero()
    for (i, j, k), sign in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        term = rows[0][i] * rows[1][j] * rows[2][k]
        det = det + (term if sign > 0 else -term)
    if det.is_zero:
        raise DegenerateMap("the Jacobian determinant vanishes identically")
    return det


# ---------------------------------------------------------------------------
# The reducible-quartic pencil fixture
# ---------------------------------------------------------------------------

class QuarticFamily(_Record):
    """The worked pencil: two lines and a conic moving over P^1.

    `z_component` is y0^2 x2, the non-boundary ramification component."""

    __slots__ = ("jacobian", "divisor_bidegree", "z_bidegree", "z_component",
                 "bad_places", "image_poly")

    def to_json(self) -> dict:
        return {
            "jacobian": str(self.jacobian),
            "jacobian_components": self.jacobian_components(),
            "divisor_bidegree": self.divisor_bidegree.as_tuple(),
            "z_bidegree": self.z_bidegree.as_tuple(),
            "z_component": str(self.z_component),
            "bad_places": [str(p) for p in self.bad_places.sorted_places()],
            "image_poly": str(self.image_poly),
        }

    def jacobian_components(self) -> list[str]:
        """Factorization pattern of the Jacobian: the two boundary lines,
        the ramification component, and the leftover monomial."""
        boundary = (BiForm.monomial(e0=1, f0=1), BiForm.monomial(e1=1, f0=1))
        key, coeff = next(iter(self.jacobian.coeffs.items()))
        used = (0, 0, 0, 0, 0)
        for comp in (*boundary, self.z_component):
            ckey = next(iter(comp.coeffs))
            used = tuple(a + b for a, b in zip(used, ckey))
        leftover = tuple(a - b for a, b in zip(key, used))
        parts = [str(b) for b in boundary] + [str(self.z_component)]
        parts.append(str(BiForm({leftover: coeff})))
        return parts


def _conic_discriminant_places() -> set[Place]:
    """Places of P^1 where the conic fiber x2^2 - x1^2 - t^2 x0 x1 - x0^2
    degenerates: the determinant of its symmetric matrix vanishes."""
    # matrix [[-1, -t^2/2, 0], [-t^2/2, -1, 0], [0, 0, 1]]; det = 1 - t^4/4
    det = Poly((1,)) - Poly.monomial(4, Fraction(1, 4))
    return {Place._trusted(q) for q, _ in factor_poly(det)}


def quartic_family() -> QuarticFamily:
    """Build the quartic pencil, its ramification data and bad places."""
    y0x0 = BiForm.monomial(e0=1, f0=1)
    y0x1 = BiForm.monomial(e1=1, f0=1)
    conic = (
        BiForm.monomial(e2=2, f0=2)
        - BiForm.monomial(e1=2, f0=2)
        - BiForm.monomial(e0=1, e1=1, f1=2)
        - BiForm.monomial(e0=2, f0=2)
    )
    g1 = y0x0 ** 2
    g2 = y0x1 ** 2
    full_form = y0x0 * y0x1 * conic
    jac = jacobian_ramification(g1, g2, conic)

    bad = _conic_discriminant_places()
    # every monomial of the full form carries y0, so the fiber over
    # infinity (y0 = 0) degenerates
    if min(key[3] for key in full_form.coeffs) >= 1:
        bad.add(Place.infinity())
    bad_places = PlaceSet(frozenset(bad))

    # image of the ramification component x2 = 0 under the covering map, in
    # the unit-torus coordinates X = U/W, Y = V/W
    t4 = RatFunc(Poly.monomial(4))
    xy1 = BiPoly.x() + BiPoly.y() + BiPoly.const(1)
    image = xy1 * xy1 - BiPoly({(1, 1): t4})

    return QuarticFamily(
        jacobian=jac,
        divisor_bidegree=BiDegree(4, 4),
        z_bidegree=log_canonical_bidegree(4, 4),
        z_component=BiForm.monomial(e2=1, f0=2),
        bad_places=bad_places,
        image_poly=image,
    )
