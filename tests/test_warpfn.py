"""Tests for jets, expression trees, and piecewise warp functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewarp import expr as ex
from conewarp.errors import DomainError, JoinFailure, SingularityError
from conewarp.jets import jet_var, jsin, jsinc, jet2_var_x, jet2_var_y
from conewarp.warpfn import (
    PIH,
    WarpFunction,
    build_cutoff,
    check_parity,
    mollify_join,
)


def fd_derivs(f, x, h=1e-4):
    """Central finite differences for orders 1 and 2."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    return d1, d2


# ---------------------------------------------------------------- jets


@pytest.mark.parametrize(
    "expr,f",
    [
        (ex.sin(2.0 * ex.X) / 2.0, lambda x: np.sin(2 * x) / 2),
        (ex.exp(ex.X * ex.X) * ex.cos(ex.X), lambda x: np.exp(x * x) * np.cos(x)),
        ((ex.X ** 1.7) / (1.0 + ex.X), lambda x: x**1.7 / (1 + x)),
        (1.0 / ex.sin(ex.X), lambda x: 1 / np.sin(x)),
        (ex.exp(-ex.X) - ex.X ** 0.5, lambda x: np.exp(-x) - np.sqrt(x)),
        (ex.sin(ex.X) / ex.cos(ex.X), np.tan),
        (ex.sin(2.0 * ex.X) ** 0.975, lambda x: np.sin(2 * x) ** 0.975),
        # both branches of sinc (|x| < 0.5) are sampled
        (ex.sinc(ex.X), lambda x: np.sin(x) / x),
    ],
)
def test_jet_matches_finite_differences(expr, f):
    xs = np.linspace(0.3, 1.2, 7)
    j = expr.jet(jet_var(xs))
    np.testing.assert_allclose(j.f, f(xs), rtol=1e-12)
    d1, d2 = fd_derivs(f, xs)
    np.testing.assert_allclose(j.f1, d1, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(j.f2, d2, rtol=1e-5, atol=1e-5)


def test_trig_jet_exact():
    # f = sin(2x)/2 at pi/4: (1/2, 0, -2)
    j = (ex.sin(2.0 * ex.X) / 2.0).jet(jet_var(np.pi / 4))
    np.testing.assert_allclose([j.f, j.f1, j.f2], [0.5, 0.0, -2.0], atol=1e-14)


def test_sinc_jet():
    xs = np.array([0.0, 1e-9, 0.2, 0.49, 0.51, 1.3])
    j = jsinc(jet_var(xs))
    ref = np.where(xs == 0, 1.0, np.sin(np.where(xs == 0, 1.0, xs)) / np.where(xs == 0, 1.0, xs))
    np.testing.assert_allclose(j.f, ref, rtol=1e-12)
    assert abs(j.f1[0]) < 1e-15  # sinc'(0) = 0
    np.testing.assert_allclose(j.f2[0], -1 / 3, rtol=1e-12)


@given(st.floats(min_value=0.2, max_value=1.3), st.floats(min_value=0.2, max_value=1.3))
@settings(max_examples=30, deadline=None)
def test_jet_product_rule(a, b):
    e1 = ex.sin(ex.Const(a) * ex.X)
    e2 = ex.exp(ex.Const(b) * ex.X)
    xs = np.array([0.7])
    lhs = (e1 * e2).jet(jet_var(xs))
    j1, j2 = e1.jet(jet_var(xs)), e2.jet(jet_var(xs))
    np.testing.assert_allclose(lhs.f2, j1.f2 * j2.f + 2 * j1.f1 * j2.f1 + j1.f * j2.f2, rtol=1e-12)


def test_jet2_partials():
    x = np.array([0.4])
    y = np.array([0.9])
    gx, gy = jet2_var_x(x, y), jet2_var_y(x, y)
    f = jsin(gx * gy) * gx  # f = x sin(xy)
    s, c = np.sin(x * y), np.cos(x * y)
    np.testing.assert_allclose(f.f, x * s, rtol=1e-14)
    np.testing.assert_allclose(f.fx, s + x * y * c, rtol=1e-14)
    np.testing.assert_allclose(f.fy, x * x * c, rtol=1e-14)
    np.testing.assert_allclose(f.fxx, 2 * y * c - x * y * y * s, rtol=1e-13)
    np.testing.assert_allclose(f.fxy, 2 * x * c - x * x * y * s, rtol=1e-13)
    np.testing.assert_allclose(f.fyy, -x ** 3 * s, rtol=1e-13)


# ---------------------------------------------------------------- expressions


@pytest.mark.parametrize(
    "text",
    [
        "sin(2.0 * x) / 2.0",
        "(x ^ 1.5) * exp(-x) + sinc(x)",
        "1.0 - (3.0 * x - 2.0) ^ 2.0",
        "(x ^ 0.5) / (1.0 + cos(x))",
        "-x + sinc(0.5 * x)",
    ],
)
def test_parse_print_roundtrip(text):
    e = ex.parse_expr(text)
    e2 = ex.parse_expr(e.to_str())
    xs = np.linspace(0.1, 0.9, 17)
    np.testing.assert_array_equal(e(xs), e2(xs))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ex.parse_expr("sin(x")
    with pytest.raises(ValueError):
        ex.parse_expr("x + + 2 @")


# ---------------------------------------------------------------- warp functions


def make_round_f():
    return WarpFunction(0.0, np.pi / 2, [], [ex.sin(2.0 * ex.X) / 2.0],
                        continuity_class=2, name="round")


def test_eval_jet_round():
    f = make_round_f()
    j = f.jet(np.pi / 4)
    np.testing.assert_allclose([j.f, j.f1, j.f2], [[0.5], [0], [-2.0]], atol=1e-14)


def test_eval_jet_domain_error():
    f = make_round_f()
    with pytest.raises(DomainError):
        f.jet(2.0)


def test_singularity_error():
    f = WarpFunction(0.0, 1.0, [], [ex.cos(ex.X) / ex.sin(ex.X)])
    with pytest.raises(SingularityError):
        f.jet(0.0)


def test_breakpoint_onesided_jets():
    # sin(kappa x)/kappa joined at x0 to its own analytic continuation: C^infty
    k = 2.0
    x0 = 0.3
    f = WarpFunction(0.0, 1.5, [x0],
                     [ex.sin(ex.Const(k) * ex.X) / k, ex.sin(ex.Const(k) * ex.X) / k],
                     continuity_class=2)
    assert f.check_joins()
    # now a genuine C^{1,1} corner: second derivatives differ
    g = WarpFunction(0.0, 1.5, [x0],
                     [ex.X, ex.Const(x0) + (ex.X - x0) + (ex.X - x0) ** 2.0],
                     continuity_class=1)
    assert g.check_joins()
    lj, rj = g.eval_jet_onesided(x0, "left"), g.eval_jet_onesided(x0, "right")
    assert abs(lj.f2 - rj.f2) > 1.0


def test_mollify_join_identity_outside_and_constraints():
    # corner between x and the constant 1 at x0=1: monotone nondecreasing join
    f = WarpFunction(0.0, 2.0, [1.0], [ex.X, ex.Const(1.0)], continuity_class=0)
    out = mollify_join(f, 1.0, 0.2, constraints=[("monotone", +1), ("d2", -1)])
    xs_out = np.concatenate([np.linspace(0, 0.79, 5000), np.linspace(1.21, 2, 5000)])
    np.testing.assert_array_equal(out(xs_out), f(xs_out))
    xs_in = np.linspace(0.8, 1.2, 401)
    assert np.all(np.diff(out(xs_in)) >= -1e-12)
    # join is C^3 at the window edges
    assert out.check_joins()


def test_mollify_join_smooths_the_breakpoint_it_is_given():
    """Of two breakpoints 5e-14 apart, the join replaces the second one only."""
    t0 = 0.5
    t1 = t0 + 5e-14
    f = WarpFunction(0.0, 1.0, [t0, t1], [ex.X, ex.X, ex.Const(t1)], continuity_class=0)
    g = mollify_join(f, t1, 1e-14)
    assert g.breakpoints == [t0, t1 - 1e-14, t1 + 1e-14]
    assert g.pieces[0] is f.pieces[0] and g.pieces[1] is f.pieces[1]


def test_mollify_join_wrong_sign_errors():
    # convex corner (slope jumps up) cannot be smoothed concavely
    f = WarpFunction(0.0, 2.0, [1.0], [ex.Const(0.5) * ex.X, ex.X - 0.5], continuity_class=0)
    with pytest.raises(JoinFailure):
        mollify_join(f, 1.0, 0.2, constraints=[("d2", -1)])


def test_build_cutoff_bounds():
    sigma = 0.03
    eta = build_cutoff(sigma, 2 * sigma, domain_end=1.0)
    xs = np.linspace(0, 1, 10_000)
    j = eta.jet(xs)
    assert np.all(j.f >= -1e-15) and np.all(j.f <= 1 + 1e-15)
    assert np.max(np.abs(j.f1)) <= 2.0 / sigma + 1e-9
    assert eta(np.array([0.0]))[0] == 1.0
    assert eta(np.array([2 * sigma]))[0] == 0.0
    assert eta(np.array([1.0]))[0] == 0.0


def test_build_cutoff_domain_error():
    with pytest.raises(DomainError):
        build_cutoff(0.5, 0.2, domain_end=1.0)
    with pytest.raises(DomainError):
        build_cutoff(0.1, 0.2, domain_end=0.2)


def test_check_parity_round():
    f = make_round_f()
    rep = check_parity(f, "left", "even-derivatives-vanish-and-value-zero")
    assert rep.passed
    assert rep.derivatives[1] == pytest.approx(1.0, abs=1e-12)
    rep2 = check_parity(f, "right", "even-derivatives-vanish-and-value-zero")
    assert rep2.passed
    j = f.eval_jet_onesided(np.pi / 2, "left")
    assert j.f1 == pytest.approx(-1.0, abs=1e-12)


def test_check_parity_odd():
    g = WarpFunction(0.0, 1.0, [], [ex.cos(ex.X)], name="phi")
    rep = check_parity(g, "left", "odd-derivatives-vanish")
    assert rep.passed and rep.derivatives[0] == pytest.approx(1.0)


def test_serialize_roundtrip():
    f = WarpFunction(0.0, 1.0, [0.25],
                     [ex.sin(2.0 * ex.X) / 2.0, (ex.X ** 1.5) + ex.Const(0.1)],
                     continuity_class=1, parity_left="even-derivatives-vanish-and-value-zero",
                     name="demo")
    g = WarpFunction.deserialize(f.serialize())
    xs = np.linspace(0, 1, 777)
    np.testing.assert_array_equal(f(xs), g(xs))
    assert g.parity_left == f.parity_left
    assert g.breakpoints == f.breakpoints
    assert g.serialize() == f.serialize()


def test_deserialize_rejects_a_piece_gap():
    text = ("warpfn v1\nname gap\ndomain 0.0 3.0\n"
            "piece 0.0 1.0 : x\npiece 2.0 3.0 : x\n")
    with pytest.raises(DomainError, match="do not chain"):
        WarpFunction.deserialize(text)
    with pytest.raises(DomainError, match="do not chain"):
        WarpFunction.deserialize(text.replace("2.0 3.0", "1.0 2.5"))


@pytest.mark.parametrize("header, extra, message", [
    ("warpfn v1", "peice 0.0 1.0 : x\n", "unknown warpfn key"),
    ("warpfn v3", "", "unsupported warpfn version"),
    # v2 stored spline pieces, which no longer exist
    ("warpfn v2", "", "unsupported warpfn version 'v2'"),
    # a jet holds orders 0..2, so no higher continuity class can be checked
    ("warpfn v1", "continuity 3\n", "continuity class 3 is not 0, 1 or 2")])
def test_deserialize_rejects_unknown_lines(header, extra, message):
    text = f"{header}\ndomain 0.0 1.0\npiece 0.0 1.0 : x\n{extra}"
    with pytest.raises(DomainError, match=message):
        WarpFunction.deserialize(text)


@given(st.integers(min_value=2, max_value=40))
@settings(max_examples=20, deadline=None)
def test_jet_fd_agreement_property(k):
    """Closed-form jets match central differences at O(h^2)."""
    f = WarpFunction(0.0, 1.0, [], [ex.sin(ex.Const(float(k)) * ex.X) / float(k)])
    x = 0.456
    for h in (1e-3, 1e-4):
        fd2 = (f(np.array([x + h]))[0] - 2 * f(np.array([x]))[0] + f(np.array([x - h]))[0]) / h**2
        j = f.jet(x)
        d2 = j.f2[0]
        scale = max(1.0, k**3 * abs(j.f[0]) + k)
        assert abs(fd2 - d2) <= 10 * h**2 * k**2 * scale


def test_join_window_stays_in_the_cells_next_to_the_corner():
    """The breakpoint at pi/2 - 0.01 bounds a join at pi/2 - 0.007."""
    f = WarpFunction(1.5, PIH, [PIH - 0.03, PIH - 0.01, PIH - 0.007],
                     [ex.Const(0.5) * ex.sin(2.0 * ex.X), ex.Const(0.5) * ex.sin(2.0 * ex.X),
                      ex.Const(0.4) * ex.sin(2.0 * ex.X), ex.sin(2.0 * ex.X)],
                     continuity_class=1)
    with pytest.raises(DomainError, match="adjacent cells"):
        mollify_join(f, PIH - 0.007, 0.005)
    g = mollify_join(f, PIH - 0.007, 0.002)
    x0 = PIH - 0.007
    assert g.breakpoints == [PIH - 0.03, PIH - 0.01, x0 - 0.002, x0 + 0.002]
    assert g.pieces[1] is f.pieces[1]
