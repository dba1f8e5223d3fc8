"""Forward-mode derivative containers.

Two small truncated Taylor algebras drive every curvature formula in this
package:

* :class:`Jet` -- value and first three derivatives of a scalar function of
  one variable.  All components are numpy arrays (or scalars) so that a whole
  sample grid is pushed through an expression tree in one pass.
* :class:`Jet2` -- value and partial derivatives through second order of a
  function of two variables, used by the torus-invariant metric families.

Chain rules are written out explicitly (Faa di Bruno to the required order)
rather than via a generic series product; at order <= 3 the explicit form is
both faster and easier to audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Jet", "Jet2", "jet_var", "jet_const", "jet2_var_x", "jet2_var_y"]


@dataclass
class Jet:
    """Value and derivatives (f, f', f'', f''') of a univariate function."""

    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = _as_jet(other, self)
        return Jet(self.f + o.f, self.f1 + o.f1, self.f2 + o.f2, self.f3 + o.f3)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_jet(other, self)
        return Jet(self.f - o.f, self.f1 - o.f1, self.f2 - o.f2, self.f3 - o.f3)

    def __rsub__(self, other):
        o = _as_jet(other, self)
        return o - self

    def __neg__(self):
        return Jet(-self.f, -self.f1, -self.f2, -self.f3)

    def __mul__(self, other):
        o = _as_jet(other, self)
        return Jet(
            self.f * o.f,
            self.f1 * o.f + self.f * o.f1,
            self.f2 * o.f + 2.0 * self.f1 * o.f1 + self.f * o.f2,
            self.f3 * o.f + 3.0 * self.f2 * o.f1 + 3.0 * self.f1 * o.f2 + self.f * o.f3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet(other, self)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        o = _as_jet(other, self)
        return o * self.reciprocal()

    # -- composition helpers ---------------------------------------------

    def chain(self, g0, g1, g2, g3):
        """Compose an outer function with derivatives g0..g3 at ``self.f``."""
        u1, u2, u3 = self.f1, self.f2, self.f3
        return Jet(
            g0,
            g1 * u1,
            g2 * u1 * u1 + g1 * u2,
            g3 * u1 ** 3 + 3.0 * g2 * u1 * u2 + g1 * u3,
        )

    def reciprocal(self):
        inv = 1.0 / self.f
        inv2 = inv * inv
        return self.chain(inv, -inv2, 2.0 * inv2 * inv, -6.0 * inv2 * inv2)

    def power(self, a: float):
        """self**a for a real constant exponent (positive base assumed)."""
        if a == 0:
            one = np.ones_like(self.f)
            zero = np.zeros_like(self.f)
            return Jet(one, zero, zero.copy(), zero.copy())
        if a == 1:
            return self
        if a == 2:
            return self * self
        if a == 3:
            return self * self * self
        v = self.f
        g0 = v ** a
        g1 = a * v ** (a - 1.0)
        g2 = a * (a - 1.0) * v ** (a - 2.0)
        g3 = a * (a - 1.0) * (a - 2.0) * v ** (a - 3.0)
        return self.chain(g0, g1, g2, g3)

    def as_tuple(self):
        return (self.f, self.f1, self.f2, self.f3)


def _as_jet(x, like: Jet) -> Jet:
    if isinstance(x, Jet):
        return x
    v = np.asarray(x, dtype=float)
    z = np.zeros_like(np.broadcast_arrays(v, like.f)[1], dtype=float)
    return Jet(v + z, z, z.copy(), z.copy())


def jet_var(x) -> Jet:
    """Jet of the identity function at points ``x``."""
    v = np.asarray(x, dtype=float)
    one = np.ones_like(v)
    zero = np.zeros_like(v)
    return Jet(v, one, zero, zero.copy())


def jet_const(c, like=None) -> Jet:
    v = np.asarray(c, dtype=float)
    if like is not None:
        v = v + np.zeros_like(np.asarray(like, dtype=float))
    z = np.zeros_like(v)
    return Jet(v, z, z.copy(), z.copy())


# -- elementary functions on jets ------------------------------------------


def jsin(u: Jet) -> Jet:
    s, c = np.sin(u.f), np.cos(u.f)
    return u.chain(s, c, -s, -c)


def jcos(u: Jet) -> Jet:
    s, c = np.sin(u.f), np.cos(u.f)
    return u.chain(c, -s, -c, s)


def jexp(u: Jet) -> Jet:
    e = np.exp(u.f)
    return u.chain(e, e, e, e)


def jlog(u: Jet) -> Jet:
    v = u.f
    return u.chain(np.log(v), 1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)


def jsqrt(u: Jet) -> Jet:
    return u.power(0.5)


def jtan(u: Jet) -> Jet:
    t = np.tan(u.f)
    s = 1.0 + t * t  # sec^2
    return u.chain(t, s, 2.0 * t * s, s * (2.0 * s + 4.0 * t * t))


def jcot(u: Jet) -> Jet:
    c = 1.0 / np.tan(u.f)
    d = 1.0 + c * c  # csc^2
    # cot' = -(1+cot^2), cot'' = 2 cot (1+cot^2), cot''' = -(1+cot^2)(2+6cot^2)
    return u.chain(c, -d, 2.0 * c * d, -d * (2.0 + 6.0 * c * c))


# Series for cot(x) - 1/x, accurate to ~1e-16 relative on |x| <= 0.4.
_COTM1 = np.array(
    [
        -1.0 / 3.0,
        -1.0 / 45.0,
        -2.0 / 945.0,
        -1.0 / 4725.0,
        -2.0 / 93555.0,
        -1382.0 / 638512875.0,
        -4.0 / 18243225.0,
        -3617.0 / 325641566250.0,
        -87734.0 / 38979295480125.0,
    ]
)


def _poly_even(vs, coef):
    """sum_k coef[k] * x**(2k) evaluated by Horner in x^2."""
    x2 = vs * vs
    s = np.zeros_like(vs)
    for c in coef[::-1]:
        s = s * x2 + c
    return s


def _even_series(vs, coef):
    """Derivatives 0..3 of f(x) = sum_k coef[k] * x**(2k) at points vs."""
    coef = list(coef)
    d1 = [coef[k] * (2 * k) for k in range(1, len(coef))]           # f'  = x * sum d1[j] x^(2j)
    d2 = [coef[k] * (2 * k) * (2 * k - 1) for k in range(1, len(coef))]  # f'' = sum d2[j] x^(2j)
    d3 = [coef[k] * (2 * k) * (2 * k - 1) * (2 * k - 2) for k in range(2, len(coef))]  # f''' = x * sum
    s0 = _poly_even(vs, coef)
    s1 = vs * _poly_even(vs, d1)
    s2 = _poly_even(vs, d2)
    s3 = vs * _poly_even(vs, d3) if d3 else np.zeros_like(vs)
    return s0, s1, s2, s3


def _odd_series(vs, coef):
    """Derivatives 0..3 of f(x) = sum_k coef[k] * x**(2k+1) at points vs."""
    coef = list(coef)
    d1 = [coef[k] * (2 * k + 1) for k in range(len(coef))]
    d2 = [coef[k] * (2 * k + 1) * (2 * k) for k in range(1, len(coef))]
    d3 = [coef[k] * (2 * k + 1) * (2 * k) * (2 * k - 1) for k in range(1, len(coef))]
    s0 = vs * _poly_even(vs, coef)
    s1 = _poly_even(vs, d1)
    s2 = vs * _poly_even(vs, d2) if d2 else np.zeros_like(vs)
    s3 = _poly_even(vs, d3) if d3 else np.zeros_like(vs)
    return s0, s1, s2, s3


def jcotm1(u: Jet) -> Jet:
    """cot(x) - 1/x evaluated without cancellation near x = 0.

    The subtracted form is what the cone-angle estimates need; for small
    arguments the direct difference loses all significant digits.
    """
    v = u.f
    small = np.abs(v) < 0.4
    vs = np.where(small, v, 0.1)  # safe placeholder for the series branch
    s0, s1, s2, s3 = _odd_series(vs, _COTM1)
    vb = np.where(small, 1.0, v)
    cb = 1.0 / np.tan(vb)
    db = 1.0 + cb * cb
    d0 = cb - 1.0 / vb
    d1 = -db + 1.0 / vb ** 2
    d2 = 2.0 * cb * db - 2.0 / vb ** 3
    d3 = -db * (2.0 + 6.0 * cb * cb) + 6.0 / vb ** 4
    return u.chain(
        np.where(small, s0, d0),
        np.where(small, s1, d1),
        np.where(small, s2, d2),
        np.where(small, s3, d3),
    )


_SINC = np.array([1.0, -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0, 1.0 / 362880.0, -1.0 / 39916800.0])


def jsinc(u: Jet) -> Jet:
    """sin(x)/x with a series branch near 0 (value 1 at x = 0)."""
    v = u.f
    small = np.abs(v) < 0.5
    vs = np.where(small, v, 0.1)
    s0, s1, s2, s3 = _even_series(vs, _SINC)
    vb = np.where(small, 1.0, v)
    f0 = np.sin(vb) / vb
    f1 = np.cos(vb) / vb - np.sin(vb) / vb ** 2
    f2 = -np.sin(vb) / vb - 2.0 * np.cos(vb) / vb ** 2 + 2.0 * np.sin(vb) / vb ** 3
    f3 = -np.cos(vb) / vb + 3.0 * np.sin(vb) / vb ** 2 + 6.0 * np.cos(vb) / vb ** 3 - 6.0 * np.sin(vb) / vb ** 4
    return u.chain(
        np.where(small, s0, f0),
        np.where(small, s1, f1),
        np.where(small, s2, f2),
        np.where(small, s3, f3),
    )


# -- bivariate second-order jets --------------------------------------------


@dataclass
class Jet2:
    """Value and partials (f, fx, fy, fxx, fxy, fyy) of f(x, y)."""

    f: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    fxx: np.ndarray
    fxy: np.ndarray
    fyy: np.ndarray

    def __add__(self, other):
        o = _as_jet2(other, self)
        return Jet2(self.f + o.f, self.fx + o.fx, self.fy + o.fy,
                    self.fxx + o.fxx, self.fxy + o.fxy, self.fyy + o.fyy)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_jet2(other, self)
        return Jet2(self.f - o.f, self.fx - o.fx, self.fy - o.fy,
                    self.fxx - o.fxx, self.fxy - o.fxy, self.fyy - o.fyy)

    def __rsub__(self, other):
        return _as_jet2(other, self) - self

    def __neg__(self):
        return Jet2(-self.f, -self.fx, -self.fy, -self.fxx, -self.fxy, -self.fyy)

    def __mul__(self, other):
        o = _as_jet2(other, self)
        return Jet2(
            self.f * o.f,
            self.fx * o.f + self.f * o.fx,
            self.fy * o.f + self.f * o.fy,
            self.fxx * o.f + 2.0 * self.fx * o.fx + self.f * o.fxx,
            self.fxy * o.f + self.fx * o.fy + self.fy * o.fx + self.f * o.fxy,
            self.fyy * o.f + 2.0 * self.fy * o.fy + self.f * o.fyy,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_jet2(other, self)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return _as_jet2(other, self) * self.reciprocal()

    def chain(self, g0, g1, g2):
        """Compose an outer univariate function with derivatives g0..g2."""
        return Jet2(
            g0,
            g1 * self.fx,
            g1 * self.fy,
            g2 * self.fx * self.fx + g1 * self.fxx,
            g2 * self.fx * self.fy + g1 * self.fxy,
            g2 * self.fy * self.fy + g1 * self.fyy,
        )

    def reciprocal(self):
        inv = 1.0 / self.f
        return self.chain(inv, -inv * inv, 2.0 * inv ** 3)

    def power(self, a: float):
        if a == 2:
            return self * self
        v = self.f
        return self.chain(v ** a, a * v ** (a - 1.0), a * (a - 1.0) * v ** (a - 2.0))


def _as_jet2(x, like: Jet2) -> Jet2:
    if isinstance(x, Jet2):
        return x
    v = np.asarray(x, dtype=float) + np.zeros_like(like.f)
    z = np.zeros_like(v)
    return Jet2(v, z, z.copy(), z.copy(), z.copy(), z.copy())


def jet2_var_x(x, y) -> Jet2:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = x + 0.0 * y
    one = np.ones_like(v)
    z = np.zeros_like(v)
    return Jet2(v, one, z, z.copy(), z.copy(), z.copy())


def jet2_var_y(x, y) -> Jet2:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = y + 0.0 * x
    one = np.ones_like(v)
    z = np.zeros_like(v)
    return Jet2(v, z, one, z.copy(), z.copy(), z.copy())


def j2sin(u: Jet2) -> Jet2:
    s, c = np.sin(u.f), np.cos(u.f)
    return u.chain(s, c, -s)


def j2cos(u: Jet2) -> Jet2:
    s, c = np.sin(u.f), np.cos(u.f)
    return u.chain(c, -s, -c)


def j2sinc(u: Jet2) -> Jet2:
    """sin(x)/x on bivariate jets (series branch near 0)."""
    probe = Jet(u.f, np.ones_like(u.f), np.zeros_like(u.f), np.zeros_like(u.f))
    g = jsinc(probe)
    return u.chain(g.f, g.f1, g.f2)


def j2warp(w, u: Jet2) -> Jet2:
    """Compose a univariate piecewise function (WarpFunction-like) into a Jet2."""
    j = w.jet(u.f)
    return u.chain(j.f, j.f1, j.f2)
