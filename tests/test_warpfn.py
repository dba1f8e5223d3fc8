"""Tests for jets, expression trees, and piecewise warp functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewarp import expr as ex
from conewarp.errors import DomainError, JoinFailure, SingularityError
from conewarp.jets import jet_var, jsin, jcot, jcotm1, jsinc, jet2_var_x, jet2_var_y, j2sin
from conewarp.warpfn import (
    PIH,
    DescentSpline,
    WarpFunction,
    build_cutoff,
    check_parity,
    mollify_join,
)


def fd_derivs(f, x, h=1e-4):
    """Central finite differences for orders 1..3."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    d3 = (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)
    return d1, d2, d3


# ---------------------------------------------------------------- jets


@pytest.mark.parametrize(
    "expr,f",
    [
        (ex.sin(2.0 * ex.X) / 2.0, lambda x: np.sin(2 * x) / 2),
        (ex.exp(ex.X * ex.X) * ex.cos(ex.X), lambda x: np.exp(x * x) * np.cos(x)),
        ((ex.X ** 1.7) / (1.0 + ex.X), lambda x: x**1.7 / (1 + x)),
        (ex.cot(ex.X), lambda x: 1 / np.tan(x)),
        (ex.log(1.0 + ex.X) - ex.sqrt(ex.X), lambda x: np.log(1 + x) - np.sqrt(x)),
    ],
)
def test_jet_matches_finite_differences(expr, f):
    xs = np.linspace(0.3, 1.2, 7)
    j = expr.jet(jet_var(xs))
    np.testing.assert_allclose(j.f, f(xs), rtol=1e-12)
    d1, d2, d3 = fd_derivs(f, xs)
    np.testing.assert_allclose(j.f1, d1, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(j.f2, d2, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(j.f3, d3, rtol=1e-3, atol=1e-3)


def test_trig_jet_exact():
    # f = sin(2x)/2 at pi/4: (1/2, 0, -2, 0)
    j = (ex.sin(2.0 * ex.X) / 2.0).jet(jet_var(np.pi / 4))
    np.testing.assert_allclose([j.f, j.f1, j.f2, j.f3], [0.5, 0.0, -2.0, 0.0], atol=1e-14)


def test_cotm1_series_accuracy():
    xs = np.array([1e-12, 1e-8, 1e-4, 0.05, 0.3, 0.39, 0.41, 0.7])
    j = jcotm1(jet_var(xs))
    # long-double reference where it is reliable; leading Taylor terms below that
    xl = xs.astype(np.longdouble)
    ref = np.where(xs > 1e-3,
                   (np.cos(xl) / np.sin(xl) - 1 / xl).astype(float),
                   -xs / 3 - xs**3 / 45)
    np.testing.assert_allclose(j.f, ref, rtol=1e-12, atol=1e-18)
    # derivative of cot - 1/x is -csc^2 + 1/x^2 -> -1/3 at 0
    np.testing.assert_allclose(j.f1[0], -1 / 3, rtol=1e-10)


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
    np.testing.assert_allclose(lhs.f3, j1.f3 * j2.f + 3 * j1.f2 * j2.f1 + 3 * j1.f1 * j2.f2 + j1.f * j2.f3, rtol=1e-12)


def test_jet2_partials():
    x = np.array([0.4])
    y = np.array([0.9])
    gx, gy = jet2_var_x(x, y), jet2_var_y(x, y)
    f = j2sin(gx * gy) * gx  # f = x sin(xy)
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
        "(x ^ 1.5) * exp(-x) + cotm1(x)",
        "1.0 - (3.0 * x - 2.0) ^ 2.0",
        "sqrt(x) / (1.0 + cos(x))",
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
                        continuity_class=3, name="round")


def test_eval_jet_round():
    f = make_round_f()
    j = f.jet(np.pi / 4)
    np.testing.assert_allclose([j.f, j.f1, j.f2, j.f3], [[0.5], [0], [-2.0], [0]], atol=1e-14)


def test_eval_jet_domain_error():
    f = make_round_f()
    with pytest.raises(DomainError):
        f.jet(2.0)


def test_singularity_error():
    f = WarpFunction(0.0, 1.0, [], [ex.cot(ex.X)])
    with pytest.raises(SingularityError):
        f.jet(0.0)


def test_breakpoint_onesided_jets():
    # sin(kappa x)/kappa joined at x0 to its own analytic continuation: C^infty
    k = 2.0
    x0 = 0.3
    f = WarpFunction(0.0, 1.5, [x0],
                     [ex.sin(ex.Const(k) * ex.X) / k, ex.sin(ex.Const(k) * ex.X) / k],
                     continuity_class=3)
    assert f.check_joins()
    # now a genuine C^{1,1} corner: second derivatives differ
    g = WarpFunction(0.0, 1.5, [x0],
                     [ex.X, ex.Const(x0) + (ex.X - x0) + (ex.X - x0) ** 2.0],
                     continuity_class=1)
    assert g.check_joins()
    lj, rj = g.eval_jet_onesided(x0, "left"), g.eval_jet_onesided(x0, "right")
    assert abs(lj.d2 - rj.d2) > 1.0


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
        build_cutoff(0.5, 0.2)


def test_check_parity_round():
    f = make_round_f()
    rep = check_parity(f, "left", "even-vanish-and-value-zero".replace("even-vanish", "even-derivatives-vanish"), 2) \
        if False else check_parity(f, "left", "even-derivatives-vanish-and-value-zero", 2)
    assert rep.passed
    assert rep.derivatives[1] == pytest.approx(1.0, abs=1e-12)
    rep2 = check_parity(f, "right", "even-derivatives-vanish-and-value-zero", 2)
    assert rep2.passed
    j = f.eval_jet_onesided(np.pi / 2, "left")
    assert j.d1 == pytest.approx(-1.0, abs=1e-12)


def test_check_parity_odd():
    g = WarpFunction(0.0, 1.0, [], [ex.cos(ex.X)], name="phi")
    rep = check_parity(g, "left", "odd-derivatives-vanish", 3)
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
    ("warpfn v3", "", "unsupported warpfn version")])
def test_deserialize_rejects_unknown_lines(header, extra, message):
    text = f"{header}\ndomain 0.0 1.0\npiece 0.0 1.0 : x\n{extra}"
    with pytest.raises(DomainError, match=message):
        WarpFunction.deserialize(text)


# ------------------------------------------------- spline pieces, warpfn v2

# A descent-style piece c sin(2x) exp(W(pi/2 - x)) written by hand in v1: W is
# the quintic Hermite cell from (s, W, W', W'') = (0.01, 0.3, -12, 150) to
# (0.03, 0.05, -4, 60), c = 0.5, on x in [pi/2 - 0.03, pi/2 - 0.01].
U = "(((1.5707963267948966 - x) - 0.01) / 0.019999999999999997)"
V1_DESCENT = (
    "warpfn v1\nname descent\ndomain 1.5 1.5607963267948965\ncontinuity 2\n"
    "piece 1.5 1.5407963267948965 : (0.5 * sin((2.0 * x)))\n"
    "piece 1.5407963267948965 1.5607963267948965 : ((0.5 * sin((2.0 * x))) * exp("
    f"((((((((((-0.5580000000000002 * {U}) + 1.3360000000000003) * {U}) + "
    f"-0.8180000000000003) * {U}) + 0.029999999999999992) * {U}) + -0.23999999999999996)"
    f" * {U}) + 0.3)))\n")
TABLE = [(0.01, 0.3, -12.0, 150.0), (0.03, 0.05, -4.0, 60.0)]


def _jet_bytes(f, xs):
    return np.stack(f.jet(xs).as_tuple()).tobytes()


def test_v1_descent_text_reads_and_evaluates_as_the_spline_node():
    f = WarpFunction.deserialize(V1_DESCENT)
    assert f.serialize() == V1_DESCENT
    node = WarpFunction(f.a, f.b, f.breakpoints, [f.pieces[0], DescentSpline(0.5, TABLE)],
                        name="descent")
    xs = np.concatenate([np.linspace(f.a, f.b, 301), f.breakpoints])
    assert _jet_bytes(node, xs) == _jet_bytes(f, xs)
    assert node.serialize().startswith("warpfn v2\n")
    assert "spline 1.5407963267948965 1.5607963267948965 : 0.5\n" in node.serialize()


def _spline_warp():
    """A middle piece, a three-knot spline cut short of its last knot, a tail."""
    spline = DescentSpline(0.5, [(0.005, 0.4, -20.0, 300.0), *TABLE])
    return WarpFunction(1.5, PIH, [PIH - 0.03, PIH - 0.007],
                        [ex.Const(0.5) * ex.sin(2.0 * ex.X), spline, ex.sin(2.0 * ex.X)],
                        continuity_class=1, name="spline_demo")


def test_v2_text_round_trips_and_keeps_the_knots():
    f = _spline_warp()
    assert f.knots == [PIH - 0.03, PIH - 0.01, PIH - 0.007]
    text = f.serialize()
    assert text.startswith("warpfn v2\n") and text.count("\nknot ") == 3
    g = WarpFunction.deserialize(text)
    assert g.serialize() == text and g.knots == f.knots
    xs = np.concatenate([np.linspace(f.a, f.b, 501), f.knots])
    assert _jet_bytes(g, xs) == _jet_bytes(f, xs)


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.replace("knot 0.01 0.3 -12.0 150.0", "knot 0.01 0.3 -12.0"), "4 numbers"),
    (lambda t: t.replace("knot 0.01 0.3 -12.0 150.0", "knot 0.01 0.3 -12.0 150.0 1.0"),
     "4 numbers"),
    (lambda t: t.replace("knot 0.01 ", "knot 0.04 "), "do not chain"),
    (lambda t: t.replace("knot 0.03 ", "knot 0.02 "), "do not chain"),
    (lambda t: t.replace("knot 0.005 0.4 -20.0 300.0\n", ""), "do not chain"),
    (lambda t: t + "knot 0.05 0.0 0.0 0.0\n", "unknown warpfn key 'knot'"),
    (lambda t: t.replace("warpfn v2", "warpfn v1"), "unknown warpfn key 'spline'"),
])
def test_v2_reader_rejects_bad_spline_tables(edit, message):
    text = _spline_warp().serialize()
    with pytest.raises(DomainError, match=message):
        WarpFunction.deserialize(edit(text))


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
    """The spline's knot at pi/2 - 0.01 bounds a join at its end pi/2 - 0.007."""
    f = _spline_warp()
    with pytest.raises(DomainError, match="adjacent cells"):
        mollify_join(f, PIH - 0.007, 0.005)
    g = mollify_join(f, PIH - 0.007, 0.002)
    x0 = PIH - 0.007
    assert g.knots == [PIH - 0.03, PIH - 0.01, x0 - 0.002, x0 + 0.002]
    assert g.pieces[1] is f.pieces[1]
