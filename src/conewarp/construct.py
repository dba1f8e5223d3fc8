"""Builders for the explicit warp profiles and metric families, with every
constant resolved and every claimed property re-certified on grids.

Layout mirrors the construction chain:

* ``build_f_kappa``      -- the base-sphere profile with prescribed endpoint
  slopes (1 at 0, -p at pi/2) satisfying the collapsed-fiber inequality;
* ``solve_kappa_prime``  -- the faithful log-space tail-coefficient solve;
* ``build_edge_profile`` -- radial profiles (rho, phi) turning the cone over
  the Berger sphere into an edge-flattened body with exact linear tails;
* ``build_glue_field``   -- the twist interpolation between the Berger form
  and the surface product near the singular point;
* ``build_conical_cap``  -- the shrink-and-freeze cap that replaces the
  product corner by a certified conical point;
* ``build_interpolation_family`` -- the torus-invariant link family joining
  the cap link to a round sphere at constant volume;
* ``build_general_profiles``     -- the round-base body used when the group
  is not cyclic.

Double-precision feasibility drives three documented choices: the dip factor
eps = (sin kappa mu_hat)^(mu/2) is chosen as large as the glue's mixed-term
bound allows (so mu_hat stays representable), the quartic-bump constant uses
a floored mu_hat, and the cap is built at its own order-one scale r0 with a
dip profile that never enters the linear-tail regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .certify import Grid, cap_block_margins, scalar_q_inequality
from .curvature import LocalGlue, TorusInvariant, cap_parts
from .curvature import make_cap_families  # noqa: F401  (kept importable from here)
from .errors import (
    ConstructionFailure,
    DomainError,
    ParameterError,
    UnderflowError_,
)
from .jets import Jet, jet_var
from .warpfn import (
    PIH,
    DescentSpline,
    ScalarJet,
    WarpFunction,
    _hermite_quintic_piece,
    _sample_open,
    build_cutoff,
    mollify_join,
    smoothstep_quintic,
    smoothstep_quintic_integral,
)

__all__ = [
    "ConstructionParams",
    "FKappa",
    "build_f_kappa",
    "solve_kappa_prime",
    "KappaPrime",
    "EdgeProfile",
    "build_edge_profile",
    "GlueField",
    "build_glue_field",
    "ConicalCap",
    "build_conical_cap",
    "InterpolationFamily",
    "build_interpolation_family",
    "build_general_profiles",
]

BUMP_MU_FLOOR = 1e-10          # floor for the quartic-bump constant's mu_hat
MIN_LOG10_SIN = -290.0         # representability floor for sin(kappa mu_hat)


@dataclass
class ConstructionParams:
    """Ledger of every named constant with its provenance."""

    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def set(self, name, value, source):
        self.values[name] = value
        self.provenance[name] = source

    def merge(self, other: "ConstructionParams"):
        """Take every entry of ``other``, its value and provenance."""
        self.values.update(other.values)
        self.provenance.update(other.provenance)

    def ledger_text(self) -> str:
        lines = ["# construction parameter ledger (key = value  # provenance)"]
        for k in sorted(self.values):
            lines.append(f"{k} = {self.values[k]!r}  # {self.provenance[k]}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# profile for the base sphere (f_kappa)
# ---------------------------------------------------------------------------


def alpha_nominal(xi0: float, kappa: float) -> float:
    """The tilt exponent nominal closed form (4 xi0/k) cot(2 xi0/k) - 4 xi0 cot(2 xi0)."""
    return (4 * xi0 / kappa) / math.tan(2 * xi0 / kappa) - 4 * xi0 / math.tan(2 * xi0)


def alpha_c1(xi0: float, kappa: float) -> float:
    """Tilt exponent forced by C^1 continuity at the junction 2 xi0/kappa.

    Matching the logarithmic derivatives of sin(kappa x)/kappa and
    C sin(2x) x^(-alpha) at x = 2 xi0/kappa gives
    alpha = (4 xi0/kappa) cot(4 xi0/kappa) - 2 xi0 cot(2 xi0); the nominal
    closed form differs and would break the C^{1,1} regularity, so the
    construction uses this one (for kappa = 2 it vanishes identically).
    """
    b = 2 * xi0 / kappa
    return 2 * b / math.tan(2 * b) - 2 * xi0 / math.tan(2 * xi0)


def _coef_prefactor_log(xi0: float, log_kappa: float) -> float:
    """log of sin(2 xi0) / (kappa * sin(4 xi0 / kappa)) for possibly huge kappa."""
    arg = 4 * xi0 * math.exp(-log_kappa)
    if arg > 1e-8:
        return math.log(math.sin(2 * xi0)) - log_kappa - math.log(math.sin(arg))
    # sin(arg) ~ arg: log(kappa sin(4 xi0/kappa)) ~ log(4 xi0) + log(1 - arg^2/6)
    return math.log(math.sin(2 * xi0)) - math.log(4 * xi0) + arg * arg / 6.0


def _alpha_c1_log(xi0: float, log_kappa: float) -> float:
    b2 = 4 * xi0 * math.exp(-log_kappa)   # = 2b
    if b2 > 1e-8:
        t1 = b2 / math.tan(b2)
    else:
        t1 = 1.0 - b2 * b2 / 3.0
    return t1 - 2 * xi0 / math.tan(2 * xi0)


def tail_coefficient_log(xi0: float, tau: float, log_kappa: float) -> float:
    """log of the far sine coefficient C_infty(kappa) of the tilted profile."""
    a = _alpha_c1_log(xi0, log_kappa)
    return _coef_prefactor_log(xi0, log_kappa) + a * (
        math.log(4 * xi0 / tau) - log_kappa)


def _bisect(pred, lo: float, hi: float, steps: int) -> tuple:
    """At most ``steps`` halvings of [lo, hi]: the bracket becomes (mid, hi)
    where pred(mid) holds, else (lo, mid).  An update that leaves the bracket
    unchanged would repeat at every later step, so the search stops there
    with the bracket a full fixed-count loop would reach."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if pred(mid) else (lo, mid)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    return lo, hi


@dataclass
class KappaPrime:
    log_value: float
    value: float               # inf when not representable
    residual: float            # relative mismatch of the log tail coefficients


def solve_kappa_prime(xi0: float, kappa: float, p: int, tau: float) -> KappaPrime:
    """Solve C_infty(kappa') = C_infty(kappa)/p for kappa' >= kappa (log space).

    The tail coefficient decreases to 0 as kappa' grows, so bisection on
    log kappa' converges; for p = 1 the solution is kappa itself.  The value
    may exceed double range, hence the log-space return.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    target = tail_coefficient_log(xi0, tau, math.log(kappa)) - math.log(p)
    if p == 1:
        return KappaPrime(math.log(kappa), float(kappa), 0.0)
    # the coefficient decays like exp(-alpha_inf log kappa'), alpha_inf ~ 4 xi0^2/3,
    # so the faithful solution sits at log kappa' ~ ln(p) / alpha_inf
    lo, hi = math.log(kappa), 100.0
    while tail_coefficient_log(xi0, tau, hi) > target:
        hi *= 2.0
        if hi > 1e9:
            raise ConstructionFailure("tail coefficient does not drop to target/p")
    lo, hi = _bisect(lambda m: tail_coefficient_log(xi0, tau, m) > target, lo, hi, 200)
    log_kp = 0.5 * (lo + hi)
    res = abs(tail_coefficient_log(xi0, tau, log_kp) - target) / max(1.0, abs(target))
    val = math.exp(log_kp) if log_kp < 700 else float("inf")
    return KappaPrime(log_kp, val, res)


@dataclass
class FKappa:
    f: WarpFunction            # smoothed profile (C^2)
    f_hat: WarpFunction        # pre-smoothing profile (C^{1,1})
    n: int
    p: int
    kappa: float
    kappa_prime: KappaPrime
    kappa_prime_eff: float
    xi0: float
    tau: float
    beta: float                # extra tilt closing the coefficient gap
    c_mid: float               # coefficient of sin(2 xi) on the middle region
    presmooth_worst: float     # max of f_hat's inequality, 256 points per piece
    t_kappa: float = 0.0
    eps_kappa: float = 0.0
    params: ConstructionParams = field(default_factory=ConstructionParams)


BETA_MAX = 0.30        # pure-power drift budget; the inequality allows 3/7
SEAL_KAPPA = 1.0e7     # end-piece frequency carrying the slope -p
X_DESCENT = 2.0e-4     # where the drift hands over to the certified descent
D_KILL = 6.0e-3        # residual drift handled by the final quintic taper
DESCENT_SLACK = 0.95   # descent designed against LHS <= -2 - (1 - slack)
DESCENT_FRAC = 0.97    # fraction of the maximal admissible descent rate


def _seal_phase(beta: float, kappa_a: float) -> float:
    """Phase theta with kappa cot(theta) = 2 cot(2 theta/kappa) - beta kappa/theta.

    This makes the seal piece sin(kappa_a xi') meet the drift piece
    sin(2 xi') xi'^(-beta) with matching logarithmic derivative.
    """
    def mm(th):
        x = th / kappa_a
        return kappa_a / math.tan(th) - (2.0 / math.tan(2 * x) - beta / x)
    lo, hi = 3e-3, 2.9
    m_lo = mm(lo)
    if m_lo * mm(hi) > 0:
        raise ConstructionFailure("no C1 seal phase for the drift exponent")
    lo, hi = _bisect(lambda th: m_lo * mm(th) > 0, lo, hi, 90)
    return 0.5 * (lo + hi)


DESCENT_STEPS = 16000  # geometric steps from X_DESCENT to 0.99 tau


@dataclass
class _DescentGrid:
    """The beta-independent part of the descent: the geometric grid from xd
    to 0.99 tau (each x the previous one times r) and 3 cot(2x) on it,
    shared by every beta the search tries."""

    x_cap: float
    r: float
    xs: list                   # xd, xd r, xd r^2, ...: DESCENT_STEPS + 1 values
    cot3: list                 # 3/tan(2x) at xs[:-1]


def _descent_grid(xd: float, tau: float) -> _DescentGrid:
    x_cap = 0.99 * tau
    r = (x_cap / xd) ** (1.0 / DESCENT_STEPS)
    xs = [xd]
    for _ in range(DESCENT_STEPS):
        xs.append(xs[-1] * r)
    return _DescentGrid(x_cap, r, xs, [3.0 / math.tan(2 * x) for x in xs[:-1]])


def _integrate_descent(beta: float, grid: _DescentGrid):
    """Maximal-rate descent of the drift D from beta/xd to zero.

    Integrates -D' = frac * (4/3)(slack + 3 cot(2x) D - 7/4 D^2) on the
    geometric grid (stable through the stiff start), then a quintic taper
    once D <= D_KILL.  Returns arrays (x, D, Dp, W) with W(x) = int_x^end D,
    or raises when the descent cannot finish before 0.99 tau.
    """
    xd = grid.xs[0]
    x_cap = grid.x_cap
    D = beta / xd
    Ds = [D]
    Dps = []
    taper_at = None
    prev_rate = beta / (xd * xd)   # the plateau's own descent rate: C^2 handoff
    growth = grid.r ** 40.0        # growth-limited ramp toward the design rate
    frac = DESCENT_FRAC * (4.0 / 3.0)
    rm1 = grid.r - 1.0
    for x, cot3 in zip(grid.xs, grid.cot3):
        design = frac * (DESCENT_SLACK + cot3 * D - 1.75 * D * D)
        if design <= 0:
            raise ConstructionFailure(f"drift descent stalled at x={x:.5f}")
        ramp = prev_rate * growth
        rate = ramp if ramp < design else design     # min(design, ramp), NaN alike
        prev_rate = rate
        Dps.append(-rate)
        if D <= D_KILL:
            taper_at = (x, D, rate)
            break
        D -= x * rm1 * rate
        if D < 0.0:                                  # max(D, 0.0), NaN alike
            D = 0.0
        Ds.append(D)
    xs = grid.xs[:len(Ds)]
    if taper_at is None:
        raise ConstructionFailure("drift descent does not finish before tau")
    # cubic Hermite taper matching the arrival slope: D from (Dk, -rate_k) to (0, 0)
    xk, Dk, rate_k = taper_at
    w = max(4.0 * Dk, 0.015)
    w = min(w, x_cap - xk)
    if w <= 2.0 * Dk:
        raise ConstructionFailure("no room for the drift taper before tau")
    m = 64
    for j in range(1, m + 1):
        u = j / m
        h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
        h10 = u * (1.0 - u) ** 2
        dh00 = 6.0 * u * (u - 1.0)
        dh10 = (1.0 - u) * (1.0 - 3.0 * u)
        xs.append(xk + w * u)
        Ds.append(Dk * h00 - rate_k * w * h10)
        Dps.append((Dk * dh00 - rate_k * w * dh10) / w)
    Dps[len(xs) - m - 1] = -rate_k  # knot value at the taper start
    xs = np.array(xs)
    Ds = np.array(Ds)
    Dps = np.array(Dps)
    # W by trapezoid from the end backwards
    W = np.concatenate([np.cumsum((0.5 * (Ds[1:] + Ds[:-1]) * np.diff(xs))[::-1])[::-1], [0.0]])
    return xs, Ds, Dps, W


@dataclass
class _MirrorSide:
    """Seal, drift and descent data of the mirror profile at one beta."""

    c_mid: float
    beta: float
    kappa_a: float
    x1: float                  # seal/drift junction in xi' = pi/2 - x
    descent: tuple             # (xs, Ds, Dps, W) from _integrate_descent
    Kd: float                  # drift constant exp(W(xd)) xd^beta
    A_s: float                 # seal amplitude, from value continuity at x1
    resid: float               # slope residual A_s kappa_a / p - 1


def _mirror_side(p, beta, c_mid, grid: _DescentGrid, kappa_a=SEAL_KAPPA) -> _MirrorSide:
    """The mirror side's data at one beta (structure at ``_mirror_pieces``).

    The beta search reads only the slope residual, which vanishes when the
    seal carries exactly slope -p; no expression tree is built here.
    """
    th_s = _seal_phase(beta, kappa_a)
    x1 = th_s / kappa_a
    xs, Ds, Dps, W = _integrate_descent(beta, grid)
    xd = xs[0]
    if x1 * 1.5 >= xd:
        raise ConstructionFailure("seal phase leaves no room for the drift piece")
    Kd = math.exp(W[0]) * xd ** beta
    A_s = c_mid * Kd * math.sin(2 * x1) * x1 ** (-beta) / math.sin(th_s)
    return _MirrorSide(c_mid, beta, kappa_a, x1, (xs, Ds, Dps, W), Kd, A_s,
                       A_s * kappa_a / p - 1.0)


def _mirror_pieces(m: _MirrorSide, knot_stride=80):
    """Pieces (in x) of the mirror profile carrying the slope -p at pi/2.

    Structure in the reflected variable xi' = pi/2 - x:

    * seal  [0, x1]:        A_s sin(kappa_a xi'), slope p at 0;
    * drift [x1, xd]:       c_mid sin(2 xi') K (xi')^(-beta), the pure-power
      drift (admissible for beta < 3/7);
    * descent [xd, x_end]:  c_mid sin(2 xi') exp(W(xi')) with W from the
      maximal-rate descent, realized as one quintic-Hermite spline node in W;
    * beyond x_end the profile is exactly c_mid sin(2 xi').
    """
    xs, Ds, Dps, W = m.descent
    xp = ex.Const(PIH) - ex.X
    # spline knots every knot_stride steps, plus both ends of the 64-step taper
    idx = sorted(set(range(0, len(xs) - 1, knot_stride)) | {len(xs) - 65, len(xs) - 1})
    spline = DescentSpline(m.c_mid, [(xs[a], W[a], -Ds[a], -Dps[a]) for a in idx])
    return [(PIH - xs[-1], PIH - xs[0], spline),
            (PIH - xs[0], PIH - m.x1,
             ex.Const(m.c_mid * m.Kd) * ex.sin(2.0 * ex.X) * xp ** (-m.beta)),
            (PIH - m.x1, PIH, ex.Const(m.A_s) * ex.sin(ex.Const(m.kappa_a) * xp))]


def _left_side_pieces(xi0, kappa, tau, alpha, q_b, var: ex.Expr = ex.X):
    """Pieces of the profile near 0 (no extra tilt on this side), as
    functions of ``var``; the intervals are in ``var``."""
    b = 2 * xi0 / kappa
    sin2 = ex.sin(2.0 * var)
    if alpha == 0.0:
        # sin(kappa x)/kappa happens to be C^infty-compatible with q_b sin 2x
        return [(0.0, b, ex.sin(ex.Const(kappa) * var) / kappa),
                (b, 2 * tau / 3, sin2 * ex.Const(q_b))]
    pow_nat = (var / ex.Const(b)) ** (-alpha)
    frozen = ((tau / 2) / b) ** (-alpha)
    eta = ex.Const(1.0) - smoothstep_quintic((var - ex.Const(tau / 3)) / ex.Const(tau / 3))
    mix = pow_nat * eta + ex.Const(frozen) * (ex.Const(1.0) - eta)
    return [
        (0.0, b, ex.sin(ex.Const(kappa) * var) / kappa),
        (b, tau / 3, sin2 * ex.Const(q_b) * pow_nat),
        (tau / 3, 2 * tau / 3, sin2 * ex.Const(q_b) * mix),
    ]


def _assemble(pieces) -> WarpFunction:
    pieces = sorted(pieces, key=lambda t: t[0])
    bps = [hi for (_, hi, _) in pieces[:-1]]
    return WarpFunction(pieces[0][0], pieces[-1][1], bps, [e for (_, _, e) in pieces],
                        continuity_class=1,
                        parity_left="even-derivatives-vanish-and-value-zero",
                        parity_right="even-derivatives-vanish-and-value-zero",
                        name="f_hat")


def build_f_kappa(n: int, p: int, tau: float, kappa: float = 2.0) -> FKappa:
    """Base-sphere profile with f'(0) = 1, f'(pi/2) = -p, certified inequality.

    The pre-smoothing profile must satisfy the inequality with bound -2
    (margin 0.5 on the regional estimates driving the xi0 search), the
    smoothed one with bound -1.  For p > 1 the faithful matching frequency
    kappa' (log-space solve, recorded) compresses the slope seal far below
    double resolution, so the mirror side is realized as a seal + pure-power
    drift + maximal-rate descent whose exponent is bisected until the seal
    amplitude carries exactly slope -p; every piece is re-certified.
    """
    if math.gcd(n, p) != 1:
        raise DomainError(f"n = {n} and p = {p} must be coprime")
    if not (0 < tau < 0.1):
        raise DomainError("tau must lie in (0, 1/10)")
    if kappa < 2:
        raise DomainError("kappa must be >= 2")

    params = ConstructionParams()
    xi0 = tau / 20.0
    fails = []
    for halving in range(41):
        try:
            fk = _try_build_f(n, p, tau, kappa, xi0, params)
            params.set("xi0", xi0, f"search: tau/20 halved {halving} times until the "
                                   "regional estimates hold with margin 0.5")
            params.set("xi0_halvings", halving, "search budget used")
            return fk
        except ConstructionFailure as e:
            fails.append(str(e))
            xi0 *= 0.5
    raise ConstructionFailure(f"xi0 search exhausted 40 halvings: first cause (at "
                              f"xi0 = tau/20): {fails[0]}; last cause: {fails[-1]}")


def _try_build_f(n, p, tau, kappa, xi0, params) -> FKappa:
    aL = alpha_c1(xi0, kappa)
    if abs(aL) < 1e-15:
        aL = 0.0
    bL = 2 * xi0 / kappa
    q_bL = math.sin(2 * xi0) / (kappa * math.sin(4 * xi0 / kappa))
    c_mid = q_bL * (((tau / 2) / bL) ** (-aL) if aL != 0.0 else 1.0)

    kp = solve_kappa_prime(xi0, kappa, p, tau)

    left = _left_side_pieces(xi0, kappa, tau, aL, q_bL)
    pieces = list(left)
    if p == 1:
        # mirror the left side; the middle piece spans the bridge
        pieces.append((2 * tau / 3, PIH - 2 * tau / 3, ex.Const(c_mid) * ex.sin(2.0 * ex.X)))
        for (lo, hi, e) in _left_side_pieces(xi0, kappa, tau, aL, q_bL,
                                             var=ex.Const(PIH) - ex.X):
            pieces.append((PIH - hi, PIH - lo, e))
        beta = 0.0
        kp_eff = kappa
        x_end_r = 2 * tau / 3
    else:
        # drift exponent solved so the seal amplitude carries exactly slope -p
        grid = _descent_grid(X_DESCENT, tau)
        lo_b, hi_b = 1e-4, BETA_MAX
        r_lo = _mirror_side(p, lo_b, c_mid, grid).resid
        r_hi = None
        while hi_b > lo_b:
            try:
                r_hi = _mirror_side(p, hi_b, c_mid, grid).resid
                break
            except ConstructionFailure:
                hi_b *= 0.95
        if r_hi is None or r_lo > 0 or r_hi < 0:
            raise ConstructionFailure(
                f"drift budget cannot reach slope -{p} (residuals {r_lo:.3f}, {r_hi})")
        lo_b, hi_b = _bisect(lambda b: _mirror_side(p, b, c_mid, grid).resid < 0,
                             lo_b, hi_b, 80)
        beta = 0.5 * (lo_b + hi_b)
        side = _mirror_side(p, beta, c_mid, grid)
        if abs(side.resid) > 1e-9:
            raise ConstructionFailure(f"drift bisection residual too large: {side.resid:.2e}")
        x_end_r = side.descent[0][-1]
        pieces.append((2 * tau / 3, PIH - x_end_r, ex.Const(c_mid) * ex.sin(2.0 * ex.X)))
        pieces.extend(_mirror_pieces(side))
        kp_eff = SEAL_KAPPA
    f_hat = _assemble(pieces)

    worst_left, worst_right = _bilateral_worst_q(f_hat, 256)
    if worst_left > -2.5:
        raise ConstructionFailure(
            f"pre-smoothing regional estimates failed (max {worst_left:.3f} > -2.5)")
    if worst_right > -2.0:
        raise ConstructionFailure(
            f"pre-smoothing drift bound -2 failed (max {worst_right:.3f})")

    f = f_hat
    # smooth the genuine C^{1,1} corners (second-derivative jumps) among the
    # junctions; a spline's own knots are C^2 by construction.  The window
    # stays inside the cells next to the junction.
    for t in f_hat.breakpoints:
        lj = f.eval_jet_onesided(t, "left")
        rj = f.eval_jet_onesided(t, "right")
        scale = max(abs(lj.d2), abs(rj.d2), 1.0)
        if abs(lj.d2 - rj.d2) < 1e-9 * scale:
            continue
        edges = [f.a, *f.knots, f.b]
        i = edges.index(t)
        w = 0.25 * min(t - edges[i - 1], edges[i + 1] - t)
        f = mollify_join(f, t, w)
    f.name = f"f_kappa_{n}_{p}"
    f_hat.name = f"f_hat_{n}_{p}"

    wl, wr = _bilateral_worst_q(f, 192)
    worst = max(wl, wr)
    if worst > -1.0:
        raise ConstructionFailure(
            f"post-smoothing inequality fails bound -1 (max {worst:.4f})")

    # the infima defining the admissible Berger parameter and the Ricci margin
    xs = _per_piece_samples(f, 128)
    j = f.jet(xs)
    ratio = np.sin(2 * xs) / (2 * j.f)
    t_kappa = 0.1 * float(np.min(ratio ** -2.0))
    eps_kappa = 0.1 * float(min(np.min(ratio ** -2.0), np.min(ratio ** 2.0),
                                np.min(-j.f2 / (4.0 * j.f))))
    params.set("kappa", kappa, "input")
    params.set("kappa_prime_log", kp.log_value, "log-space tail-coefficient solve")
    params.set("kappa_prime_eff", kp_eff,
               "seal frequency actually carrying the slope -p"
               if p > 1 else "faithful value (p = 1)")
    params.set("alpha_left", aL, "exponent forced by C1 matching at the junction")
    params.set("alpha_nominal", alpha_nominal(xi0, kappa), "nominal closed form, recorded for comparison")
    params.set("beta", beta, f"pure-power drift exponent (budget {BETA_MAX} < 3/7)")
    params.set("c_mid", c_mid, "middle-region sine coefficient")
    params.set("t_kappa", t_kappa, "0.1 * inf (sin2xi/2f)^-2 on offset grid")
    params.set("eps_kappa", eps_kappa,
               "0.1 * inf min{(sin2xi/2f)^-2, (sin2xi/2f)^2, -f''/(4f)}; the "
               "squared branch added so Ric >= eps (t dalpha^2 + h_f) certifies")
    return FKappa(f=f, f_hat=f_hat, n=n, p=p, kappa=kappa, kappa_prime=kp,
                  kappa_prime_eff=kp_eff, xi0=xi0, tau=tau, beta=beta,
                  c_mid=c_mid, presmooth_worst=max(worst_left, worst_right),
                  t_kappa=t_kappa, eps_kappa=eps_kappa, params=params)


class _Reflected:
    """x -> f(pi/2 - x), evaluated through f: the odd derivatives change
    sign, which is exact, so every value equals that of f's pieces with
    x replaced by pi/2 - x."""

    def __init__(self, f: WarpFunction):
        self.f = f

    def jet(self, x) -> Jet:
        j = self.f.jet(PIH - np.asarray(x, dtype=float))
        return Jet(j.f, -j.f1, j.f2, -j.f3)


def _bilateral_worst_q(f: WarpFunction, n_per_piece: int):
    """Worst inequality values over per-cell grids, evaluated on whichever
    side of pi/4 is well conditioned (cot(2x) near x = pi/2 loses all digits
    in the x variable; the reflected function sees those cells near 0).

    Returns (worst over cells left of pi/4, worst over cells right of pi/4).
    """
    edges = [f.a, *f.knots, f.b]
    left, right = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if 0.5 * (lo + hi) <= np.pi / 4:
            left.append(_sample_open(lo, hi, n_per_piece))
        else:
            right.append(_sample_open(PIH - hi, PIH - lo, n_per_piece))
    return (float(np.max(scalar_q_inequality(f, np.concatenate(left)))),
            float(np.max(scalar_q_inequality(_Reflected(f), np.concatenate(right)))))


def _per_piece_samples(f: WarpFunction, n_per_piece: int) -> np.ndarray:
    """The open grids of every cell (pieces, and the cells of a spline piece)."""
    edges = [f.a, *f.knots, f.b]
    return np.concatenate([_sample_open(lo, hi, n_per_piece)
                           for lo, hi in zip(edges[:-1], edges[1:])])


# ---------------------------------------------------------------------------
# edge profiles (rho, phi)
# ---------------------------------------------------------------------------


@dataclass
class EdgeProfile:
    rho: WarpFunction
    phi: WarpFunction
    n: int
    kappa: float
    mu: float
    eps: float                  # realized dip factor (sin kappa mu_hat)^(mu/2)
    mu_hat: float
    mu_hat_strict_log10: float   # log10 of the faithful mu_hat bound
    c1: float
    c2: float
    c3: float
    R_mu: float
    r_out: float
    bump_const: float
    params: ConstructionParams = field(default_factory=ConstructionParams)


def _dip_mu_hat(kappa: float, mu: float, eps_target: float) -> float:
    """mu_hat with (sin kappa mu_hat)^(mu/2) = eps_target, or raise."""
    log10_sin = (2.0 / mu) * math.log10(eps_target)
    if log10_sin < MIN_LOG10_SIN:
        raise UnderflowError_(
            f"dip factor {eps_target:.2e} needs sin(kappa mu_hat) = 1e{log10_sin:.0f}; "
            f"increase mu (currently {mu}) or the dip target")
    s = 10.0 ** log10_sin
    return math.asin(s) / kappa


def build_edge_profile(kappa: float, mu: float, n: int, fk: FKappa,
                       positions_kappa: float | None = None) -> EdgeProfile:
    """Radial profiles: rho dips to a thin cone, phi bends to a linear tail.

    rho is n sin(kappa r)/kappa near 0, then the power-law
    (n/kappa) eps (sin kappa r)^(1-mu/2) whose logarithmic derivative sits at
    (1 - mu/2) kappa cot(kappa r), then a certified concave transition to the
    exact linear tail c1 (r + c3).  phi is 1, a quartic bump of size
    (eps_k mu_hat_bump)^20, then exactly c2 (r + c3).

    ``positions_kappa`` rescales the phi-bump and tail junctions (the
    round-base body uses the same shapes at unit scale).
    """
    if not (0 < mu < 0.1):
        raise ParameterError("mu must lie in (0, 1/10)")
    pk = positions_kappa if positions_kappa is not None else kappa
    params = ConstructionParams()

    # dip depth: at most 2 mu; below the Berger-parameter bound
    # rho/phi < sqrt(t_kappa); and small enough that the glue box mixed
    # term stays inside the dip-curvature PSD band (the quartic cutoff
    # second derivative against sqrt(d22 d44), certified again on grids)
    eps_target = min(2 * mu,
                     0.8 * kappa * math.sqrt(fk.t_kappa) / (0.1987 * n),
                     29.5 * math.sqrt(mu) / n ** 3)
    mu_hat = _dip_mu_hat(kappa, mu, eps_target)
    eps = math.sin(kappa * mu_hat) ** (mu / 2)
    mu_hat_strict_log10 = (2.0 / mu) * math.log10(fk.t_kappa / (100.0 * n * kappa))
    params.set("eps", eps, "dip factor; desk-scale target recorded in ledger")
    params.set("mu_hat", mu_hat, "solves (sin kappa mu_hat)^(mu/2) = eps")
    params.set("mu_hat_strict_log10_sin", mu_hat_strict_log10,
               "faithful bound log10 sin(kappa mu_hat), kept in log space")

    # --- rho ---------------------------------------------------------------
    tail_lo, tail_hi = 1.0 / (5.0 * pk), 1.0 / (4.0 * pk)
    kx = ex.Const(kappa) * ex.X
    rho_pieces = [
        (0.0, mu_hat, ex.Const(float(n)) * ex.sin(kx) / kappa),
        (mu_hat, tail_lo, ex.Const(n / kappa * eps) * ex.sin(kx) ** (1.0 - mu / 2)),
    ]

    # --- phi ---------------------------------------------------------------
    mu_hat_bump = max(mu_hat, BUMP_MU_FLOOR)
    A = (fk.eps_kappa * mu_hat_bump) ** 20
    if A == 0.0 or not math.isfinite(A):
        raise UnderflowError_("quartic bump constant underflowed despite the floor")
    b_lo, b_hi = 1.0 / (8.0 * pk), 3.0 / (20.0 * pk)
    w40 = 1.0 / (40.0 * pk)
    c2 = 4.0 * A * w40 ** 3
    val_bhi = 1.0 + A * w40 ** 4
    c3 = val_bhi / c2 - b_hi
    c3_nominal = (40 * kappa) ** 3 / (4.0 * A) - 19.0 / (160 * kappa)
    params.set("bump_const", A, f"(eps_kappa * mu_hat_bump)^20, mu_hat_bump floored at {BUMP_MU_FLOOR}")
    params.set("c2", c2, "4 A (1/(40 k))^3 closed form")
    params.set("c3", c3, "C1-consistent tail offset (nominal value recorded separately)")
    params.set("c3_nominal", c3_nominal, "nominal closed form, inconsistent with C1 joins")

    R_out = tail_hi + 2.0
    phi_pieces = [
        (0.0, b_lo, ex.Const(1.0)),
        (b_lo, b_hi, ex.Const(1.0) + ex.Const(A) * (ex.X - ex.Const(b_lo)) ** 4.0),
        (b_hi, R_out, ex.Const(c2) * (ex.X + ex.Const(c3))),
    ]
    phi = WarpFunction(0.0, R_out, [b_lo, b_hi], [e for (_, _, e) in phi_pieces],
                       continuity_class=1, parity_left="odd-derivatives-vanish",
                       name=f"phi_{kappa}_{mu}")
    for t, w in ((b_lo, (b_hi - b_lo) / 10), (b_hi, (b_hi - b_lo) / 10)):
        lj, rj = phi.eval_jet_onesided(t, "left"), phi.eval_jet_onesided(t, "right")
        if abs(lj.d2 - rj.d2) > 1e-12 * max(1.0, abs(lj.d2), abs(rj.d2)):
            phi = mollify_join(phi, t, w, constraints=[("monotone", +1)])

    # --- rho tail: concave transition to c1 (r + c3) ------------------------
    rho_body = WarpFunction(0.0, tail_lo, [mu_hat], [e for (_, _, e) in rho_pieces],
                            continuity_class=1,
                            parity_left="even-derivatives-vanish-and-value-zero",
                            name="rho_body")
    v = float(rho_body(np.array([tail_lo]))[0])
    jL = rho_body.eval_jet_onesided(tail_lo, "left")
    c1 = None
    d1_scale = max(abs(jL.d1), 1e-30)
    d2_scale = max(abs(jL.d2), 1e-30)
    for factor in np.linspace(1.02, 1.35, 34):
        c1_try = float(factor) * v / (c3 + tail_lo)
        hermite = _hermite_quintic_piece(
            jL, ScalarJet(c1_try * (tail_hi + c3), c1_try, 0.0, 0.0), tail_lo, tail_hi)
        xs = np.linspace(tail_lo, tail_hi, 512)
        jj = hermite.jet(jet_var(xs))
        if np.max(jj.f2) <= 1e-9 * d2_scale and np.min(jj.f1) >= -1e-9 * d1_scale:
            c1 = c1_try
            tail_piece = hermite
            break
    if c1 is None:
        raise ConstructionFailure("no concave monotone tail transition found for rho")
    params.set("c1", c1, "solved within the admissible bracket so the quintic "
                         "transition stays concave and increasing")
    params.set("R_mu", tail_hi, "tail junction 1/(4 kappa-position)")

    rho = WarpFunction(
        0.0, R_out, [mu_hat, tail_lo, tail_hi],
        [rho_pieces[0][2], rho_pieces[1][2], tail_piece,
         ex.Const(c1) * (ex.X + ex.Const(c3))],
        continuity_class=1, parity_left="even-derivatives-vanish-and-value-zero",
        name=f"rho_{kappa}_{mu}")
    rho = mollify_join(rho, mu_hat, mu_hat / 4, constraints=[("d2", -1), ("monotone", +1)])

    prof = EdgeProfile(rho=rho, phi=phi, n=n, kappa=kappa, mu=mu, eps=eps,
                       mu_hat=mu_hat, mu_hat_strict_log10=mu_hat_strict_log10,
                       c1=c1, c2=c2, c3=c3, R_mu=tail_hi, r_out=R_out,
                       bump_const=A, params=params)
    _certify_edge_bullets(prof, pk)
    return prof


def _certify_edge_bullets(prof: EdgeProfile, pk: float):
    """The stated profile properties, checked where they are claimed."""
    rho, n, kappa, mu = prof.rho, prof.n, prof.kappa, prof.mu
    band_hi = 1.0 / (10.0 * pk)
    xs = _sample_open(1e-6 * band_hi, band_hi, 4096)
    # include per-piece samples so the sub-grid dip corner is also checked
    edges = [e for e in [rho.a, *rho.breakpoints, rho.b] if e <= band_hi]
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = np.concatenate([xs, _sample_open(max(lo, 1e-300), hi, 64)])
    j = rho.jet(xs)
    band = j.f1 * np.sin(kappa * xs) / (kappa * j.f * np.cos(kappa * xs))
    if np.any(band < 1 - mu - 1e-9) or np.any(band > 1 + mu + 1e-9):
        raise ConstructionFailure("logarithmic-derivative band violated")
    with np.errstate(over="ignore"):
        if np.any(-j.f2 / (kappa ** 2 * j.f) < 1 - mu - 1e-9):
            raise ConstructionFailure("concavity band -rho''/(k^2 rho) >= 1-mu violated")
    if np.any(j.f / n > np.sin(xs) + 1e-12):
        raise ConstructionFailure("rho/n <= sin r violated")
    if np.any(j.f / n > mu * (1 + np.sin(xs)) + 1e-12):
        raise ConstructionFailure("rho/n <= mu (1 + sin r) violated")
    # exact linear tails beyond R_mu
    xt = _sample_open(prof.R_mu, prof.r_out, 512)
    lin_r = prof.c1 * (xt + prof.c3)
    lin_p = prof.c2 * (xt + prof.c3)
    if np.max(np.abs(rho(xt) - lin_r) / np.abs(lin_r)) > 1e-12:
        raise ConstructionFailure("rho tail is not the exact linear function")
    if np.max(np.abs(prof.phi(xt) - lin_p) / np.abs(lin_p)) > 1e-12:
        raise ConstructionFailure("phi tail is not the exact linear function")


# ---------------------------------------------------------------------------
# glue field
# ---------------------------------------------------------------------------


@dataclass
class GlueField:
    glue: LocalGlue
    sigma1: float
    sigma2: float
    xi0: float
    n: int
    psi_r_bound: float          # certified sup |psi_r / sin 2xi|
    mixed_bound: float          # certified sup |3 rho' psi_r / (n sin 2xi)|
    params: ConstructionParams = field(default_factory=ConstructionParams)


def build_glue_field(xi0: float, n: int, rho_mu: WarpFunction) -> GlueField:
    """Twist field psi and the glue ansatz on the box [0, xi0/2]^2.

    Certifies |psi_r / sin 2xi| <= 2 n sigma2 / sigma1 and the mixed-term
    bound <= 1/100 on an offset grid.
    """
    s1 = xi0 / 200.0
    s2 = s1 / (200.0 * n * n)
    eta1 = build_cutoff(s1, 2 * s1, domain_end=xi0, name="eta_sigma1")
    eta2 = build_cutoff(s2, 2 * s2, domain_end=xi0, name="eta_sigma2")
    glue = LocalGlue(rho=rho_mu, n=n, eta1=eta1, eta2=eta2,
                     sigma1=s1, sigma2=s2, xi0=xi0)

    half = xi0 / 2
    # the cutoff windows are far below the uniform spacing: refine them;
    # contiguous copies keep numpy's ufuncs on the paths the golden margins pin
    r, xi = Grid([(0.0, half)] * 2, [192, 192],
                 refine=[(0.0, min(2.2 * s, half), 96) for s in (s1, s2)]).points().T.copy()
    psi, p_r, p_xi, _, _ = glue.psi_jets(r, xi)
    s2xi = np.sin(2 * xi)
    ratio = np.abs(p_r / s2xi)
    bound = 2 * n * s2 / s1
    if np.max(ratio) > bound * (1 + 1e-9):
        raise ConstructionFailure(
            f"|psi_r/sin 2xi| = {np.max(ratio):.3e} exceeds 2 n sigma2/sigma1 = {bound:.3e}")
    jr = rho_mu.jet(r)
    mixed = np.abs(3.0 * jr.f1 * p_r / (n * s2xi))
    mixed_max = float(np.max(mixed))
    if mixed_max > 0.01:
        raise ConstructionFailure(f"mixed-term bound 1/100 violated: {mixed_max:.3e}")
    params = ConstructionParams()
    params.set("sigma1", s1, "xi0/200")
    params.set("sigma2", s2, "sigma1/(200 n^2)")
    params.set("psi_r_bound", float(np.max(ratio)), "certified on grid")
    params.set("mixed_bound", mixed_max, "certified on grid against the 1/100 bound")
    return GlueField(glue=glue, sigma1=s1, sigma2=s2, xi0=xi0, n=n,
                     psi_r_bound=float(np.max(ratio)), mixed_bound=mixed_max,
                     params=params)


# ---------------------------------------------------------------------------
# conical cap
# ---------------------------------------------------------------------------


@dataclass
class ConicalCap:
    part1: TorusInvariant
    part2: TorusInvariant
    phi1: WarpFunction
    eta_delta: WarpFunction
    rho_cap: WarpFunction
    n: int
    r0: float
    mu: float
    zeta: float
    sigma_hat: float
    delta: float
    sigma: float                # ball radius sigma_hat - delta
    sigma_link: float           # frozen link argument sigma_hat - delta/2
    mu0: float
    mu123: tuple
    eps_cap: float
    params: ConstructionParams = field(default_factory=ConstructionParams)


def _build_phi1(r0: float, zeta: float) -> WarpFunction:
    # the blend takes the full available width: its curvature cost scales
    # like zeta / width^2 against the order-4 base curvature
    a, b = r0 / 2, 0.98 * r0
    S = smoothstep_quintic((ex.X - ex.Const(a)) / ex.Const(b - a))
    mid = ex.X * (ex.Const(1.0) - ex.Const(zeta) * (ex.Const(1.0) - S))
    return WarpFunction(0.0, r0, [a, b],
                        [ex.Const(1 - zeta) * ex.X, mid, ex.X],
                        continuity_class=2, name="phi1")


def _build_eta_delta(r0: float, sigma_hat: float, delta: float) -> WarpFunction:
    u = (ex.X - ex.Const(sigma_hat - delta)) / ex.Const(delta)
    mid = ex.Const(sigma_hat - delta / 2) + ex.Const(delta) * smoothstep_quintic_integral(u)
    return WarpFunction(0.0, r0 / 2, [sigma_hat - delta, sigma_hat],
                        [ex.Const(sigma_hat - delta / 2), mid, ex.X],
                        continuity_class=2, name="eta_delta")


def _build_rho_cap(r0: float, mu: float, n: int, kappa: float = 2.0,
                   eps_target: float | None = None) -> WarpFunction:
    """Dip profile for the cap: no linear tail, power law through r0."""
    if eps_target is None:
        eps_target = 2 * mu
    mu_hat = _dip_mu_hat(kappa, mu, eps_target)
    eps = math.sin(kappa * mu_hat) ** (mu / 2)
    top = min(1.12 * r0, 0.99 * math.pi / kappa / 2 * 2)  # stay below sin(kappa r) zero
    if kappa * top >= math.pi:
        raise ParameterError("cap radius too large for the dip profile")
    kx = ex.Const(kappa) * ex.X
    rho = WarpFunction(0.0, top, [mu_hat],
                       [ex.Const(float(n)) * ex.sin(kx) / kappa,
                        ex.Const(n / kappa * eps) * ex.sin(kx) ** (1.0 - mu / 2)],
                       continuity_class=1,
                       parity_left="even-derivatives-vanish-and-value-zero",
                       name="rho_cap")
    return mollify_join(rho, mu_hat, mu_hat / 4, constraints=[("d2", -1), ("monotone", +1)])


def _assemble_cap(r0, mu, zeta, n, eps_target=None):
    sigma_hat = r0 / 20.0
    delta = sigma_hat / 10.0
    rho_cap = _build_rho_cap(r0, mu, n, eps_target=eps_target)
    phi1 = _build_phi1(r0, zeta)
    eta_delta = _build_eta_delta(r0, sigma_hat, delta)
    part1, part2 = cap_parts(phi1, eta_delta, rho_cap, n, zeta, r0)
    return ConicalCap(part1=part1, part2=part2, phi1=phi1, eta_delta=eta_delta,
                      rho_cap=rho_cap, n=n, r0=r0, mu=mu, zeta=zeta,
                      sigma_hat=sigma_hat, delta=delta, sigma=sigma_hat - delta,
                      sigma_link=sigma_hat - delta / 2, mu0=0.0, mu123=(0, 0, 0),
                      eps_cap=1.0 - 999.0 * zeta / 1000.0)


def cap_link_ricci_margin(cap: ConicalCap, n_grid: int = 256) -> float:
    """min eig of Ric_h - (2 + zeta/100)(1-zeta)^2 h for the frozen cap link."""
    th = _sample_open(1e-4, PIH - 1e-4, n_grid)
    lam2 = (2.0 + cap.zeta / 100.0) * (1.0 - cap.zeta) ** 2
    m = _link_ricci_threeD(cap, 1.0, th)
    return float(np.min(m - lam2))


def _link_ricci_threeD(cap: ConicalCap, s: float, th: np.ndarray) -> np.ndarray:
    """min-eig margins of the 3D interpolated link Ricci (unscaled frame)."""
    B, C = _interp_BC(cap, s)
    jb = B.jet(th)
    jc = C.jet(th)
    m11 = -jb.f2 / jb.f - jc.f2 / jc.f
    m22 = -jb.f2 / jb.f - jb.f1 * jc.f1 / (jb.f * jc.f)
    m33 = -jc.f2 / jc.f - jb.f1 * jc.f1 / (jb.f * jc.f)
    return np.minimum(np.minimum(m11, m22), m33)


class _ComposedC:
    """C_s(theta) = (1-s) sin th + s rho(sigma sin th)/(n sigma), with jets."""

    def __init__(self, s, sigma, rho, n):
        self.s, self.sigma, self.rho, self.n = s, sigma, rho, n

    def jet(self, th):
        th = np.asarray(th, dtype=float)
        t = jet_var(th)
        from .jets import jsin
        sn = jsin(t)
        inner = self.sigma * sn
        jr = self.rho.jet(inner.f)
        comp = inner.chain(jr.f, jr.f1, jr.f2, jr.f3)
        return (1.0 - self.s) * sn + (self.s / (self.n * self.sigma)) * comp


class _ComposedB:
    """B_s(theta) = (1-s) cos th + s sin(2 sigma cos th)/(2 sigma)."""

    def __init__(self, s, sigma):
        self.s, self.sigma = s, sigma

    def jet(self, th):
        from .jets import jcos, jsinc
        t = jet_var(np.asarray(th, dtype=float))
        c = jcos(t)
        return (1.0 - self.s) * c + self.s * c * jsinc(2.0 * self.sigma * c)


def _interp_BC(cap: ConicalCap, s: float):
    return (_ComposedB(s, cap.sigma_link),
            _ComposedC(s, cap.sigma_link, cap.rho_cap, cap.n))


def _cap_passes(r0, mu, zeta, n, parts, link_grid, eps_target=None) -> bool:
    """Search predicate: the cap assembled at these constants has block
    margins >= -1e-8 on 40 x 40 probe grids of the given parts (0: part 1,
    1: part 2) and, when link_grid is set, a link margin >= -1e-8 on that
    many points; a cap that cannot be assembled does not pass."""
    try:
        cap = _assemble_cap(r0, mu, zeta, n, eps_target=eps_target)
        return (all(np.min(cap_block_margins((cap.part1, cap.part2)[i], 40)[2]) >= -1e-8
                    for i in parts)
                and (not link_grid or cap_link_ricci_margin(cap, link_grid) >= -1e-8))
    except (ConstructionFailure, ParameterError, UnderflowError_):
        return False


def build_conical_cap(r0: float, mu: float, n: int,
                      zeta: float | None = None,
                      search_budget: int = 10,
                      eps_target: float | None = None) -> ConicalCap:
    """Cap families searched on probe grids, with the admissible-mu gate.

    zeta defaults to a bisection for the largest value <= min(0.1, r0^2/8)
    whose certification passes at the input mu; mu1..mu3 are then the largest
    mu passing each sub-certification (bisection, 40 x 40 probe grids), and
    the gate mu0 = min(mu1, mu2, mu3)/2 must exceed the input mu.

    The returned cap is not re-checked here.  Its certificate is the atlas's
    ``cap_blocks_psd`` report (both parts at the atlas's 2-D grid) and its
    ``cap_link_bound`` report (the link at 256 points), so a cap that fails
    at the atlas grid gives a FAIL report rather than a ConstructionFailure.
    """
    if not (0 < mu < 0.1):
        raise ParameterError("mu must lie in (0, 1/10)")
    if zeta is None:
        # find the largest zeta that still certifies with mu-headroom: the
        # gate mu0 halves the admissible-mu minimum, so searching at the
        # input mu itself would always leave mu0 below it
        mu_search = min(2.2 * mu, 0.095)
        zeta = _bisect(lambda z: _cap_passes(r0, mu_search, z, n, (0, 1), 256,
                                             eps_target=eps_target),
                       0.0, min(0.1, r0 * r0 / 8.0), search_budget)[0]
        if zeta == 0.0:
            raise ConstructionFailure("no certifiable zeta found for this (r0, mu, n)")

    # the largest passing probe, or 0.0 when none passes
    mu1, mu2, mu3 = (
        _bisect(lambda m: _cap_passes(r0, m, zeta, n, parts, link, eps_target=eps_target),
                0.0, 0.1, search_budget)[0]
        for parts, link in (((0,), None), ((1,), None), ((), 96)))
    mu0 = 0.5 * min(mu1, mu2, mu3)
    if mu >= mu0:
        raise ParameterError(
            f"mu = {mu} is not below the certified gate mu0 = {mu0:.4f} "
            f"(mu1={mu1:.4f}, mu2={mu2:.4f}, mu3={mu3:.4f})")
    cap = _assemble_cap(r0, mu, zeta, n, eps_target=eps_target)
    cap.mu0 = mu0
    cap.mu123 = (mu1, mu2, mu3)
    cap.params.set("zeta", zeta, f"bisection on certification, budget {search_budget}")
    cap.params.set("mu0", mu0, "half the min of the three certified mu bounds")
    cap.params.set("mu1", mu1, "bisection: part-1 certification")
    cap.params.set("mu2", mu2, "bisection: part-2 certification at sigma_hat - delta")
    cap.params.set("mu3", mu3, "bisection: link lower bound (2 + zeta/100)")
    cap.params.set("sigma", cap.sigma, "exact-cone ball radius sigma_hat - delta")
    cap.params.set("sigma_link", cap.sigma_link, "frozen link argument sigma_hat - delta/2")
    cap.params.set("eps_cap", cap.eps_cap, "round link radius 1 - 999 zeta/1000")
    return cap


# ---------------------------------------------------------------------------
# interpolation family
# ---------------------------------------------------------------------------


@dataclass
class InterpolationFamily:
    cap: ConicalCap
    lam: float                  # 1 - 999 zeta / 1000
    lam1: float
    lam2: float
    s_samples: np.ndarray
    volumes: np.ndarray         # Vol-hat(s) up to the common torus factor
    min_ricci_margin: float     # min over (s, theta) of min-eig(Ric - 2 ghat)
    vol_norm_residual: float    # max relative deviation of normalized volumes
    moser_density_residual: float
    params: ConstructionParams = field(default_factory=ConstructionParams)


def build_interpolation_family(cap: ConicalCap, n_theta: int = 128) -> InterpolationFamily:
    """The link family from the frozen cap link (s=1) to the round sphere (s=0).

    Certifies Ric >= 2 ghat on the (s, theta) grid, volume monotonicity, the
    constancy of the normalized volumes (2/3-power scaling, see ledger), and
    the s-independence of the reparametrized volume density (the torus
    symmetry turns the volume-equalizing diffeomorphism into one monotone
    theta reparametrization per s).
    """
    lam = 1.0 - 999.0 * cap.zeta / 1000.0
    s_samples = np.linspace(0.0, 1.0, 5)
    th = _sample_open(1e-5, PIH - 1e-5, n_theta)
    margins = []
    for s in s_samples:
        m = _link_ricci_threeD(cap, s, th)
        margins.append(np.min(m - 2.0 * lam * lam))
    min_margin = float(np.min(margins))
    if min_margin < -1e-8:
        raise ConstructionFailure(f"interpolated link fails Ric >= 2 ghat: {min_margin:.3e}")

    # volumes on a fine grid (trapezoid; relative accuracy ~ (1/nf)^2)
    nf = 16385
    thf = np.linspace(1e-9, PIH - 1e-9, nf)
    vols = []
    dens = []
    for s in s_samples:
        B, C = _interp_BC(cap, s)
        d = B.jet(thf).f * C.jet(thf).f
        dens.append(d)
        vols.append(np.trapezoid(d, thf))
    vols = np.asarray(vols)
    if np.any(np.diff(vols) > 1e-12):
        raise ConstructionFailure("Vol(ghat(s)) is not nonincreasing in s")
    # pointwise monotonicity of the density (stronger, certified on the grid)
    D = np.stack(dens)
    if np.any(np.diff(D, axis=0) > 1e-12):
        raise ConstructionFailure("volume density not pointwise nonincreasing in s")

    # normalized family: c_s = (V1/Vs)^(2/3) makes 3-volumes equal
    cs = (vols[-1] / vols) ** (2.0 / 3.0)
    vol_norm = cs ** 1.5 * vols
    vol_res = float(np.max(np.abs(vol_norm / vol_norm[-1] - 1.0)))
    if vol_res > 1e-8:
        raise ConstructionFailure(f"normalized volumes not constant: {vol_res:.2e}")

    # Moser reparametrization: cumulative volume matching per s
    Fref = np.concatenate([[0.0], np.cumsum(0.5 * (D[-1][1:] + D[-1][:-1]) * np.diff(thf))])
    moser_res = 0.0
    for i, s in enumerate(s_samples):
        Fs = np.concatenate([[0.0], np.cumsum(0.5 * (D[i][1:] + D[i][:-1]) * np.diff(thf))])
        Fs_scaled = cs[i] ** 1.5 * Fs
        theta_map = np.interp(Fref, Fs_scaled, thf)
        # reparametrized density: c^{3/2} B C (Theta) * Theta'
        mid = slice(nf // 8, -nf // 8)
        dtheta = np.gradient(theta_map, thf)
        B, C = _interp_BC(cap, s)
        d_re = cs[i] ** 1.5 * B.jet(theta_map).f * C.jet(theta_map).f * dtheta
        res = np.max(np.abs(d_re[mid] / D[-1][mid] - 1.0))
        moser_res = max(moser_res, float(res))
    if moser_res > 1e-6:
        raise ConstructionFailure(f"Moser density not s-independent: {moser_res:.2e}")

    fam = InterpolationFamily(
        cap=cap, lam=lam, lam1=1.0,
        lam2=(1000.0 - 1000.0 * cap.zeta) / (1000.0 - 999.0 * cap.zeta),
        s_samples=s_samples, volumes=vols, min_ricci_margin=min_margin,
        vol_norm_residual=vol_res, moser_density_residual=moser_res)
    fam.params.set("lambda", lam, "round end radius 1 - 999 zeta/1000")
    fam.params.set("lambda2", fam.lam2, "(1000 - 1000 zeta)/(1000 - 999 zeta)")
    fam.params.set("volume_exponent", 2.0 / 3.0,
                   "scaling power making 3-volumes equal (the plain, "
                   "unpowered ratio is recorded for comparison)")
    return fam


# ---------------------------------------------------------------------------
# round-base body profiles
# ---------------------------------------------------------------------------


def build_general_profiles(n: int, mu: float, fk: FKappa) -> EdgeProfile:
    """Profiles for the round-base Berger body: same shapes at unit positions.

    phi = 1 on (0, 1/10) and both tails exactly linear; certified through
    the round-base Ricci evaluator by the caller.
    """
    prof = build_edge_profile(2.0, mu, n, fk, positions_kappa=1.0)
    r = _sample_open(1e-4, 0.1, 512)
    if np.max(np.abs(prof.phi(r) - 1.0)) > 0.0:
        raise ConstructionFailure("phi must be identically 1 on (0, 1/10)")
    return prof
