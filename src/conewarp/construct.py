"""Builders for the explicit warp profiles and metric families, with every
constant resolved and recorded in a ledger.  A property the atlas claims is
certified by its report in ``certify.CHECKS``, not re-checked here.

Layout mirrors the construction chain:

* ``build_f_kappa``      -- the base-sphere profile with prescribed endpoint
  slopes (1 at 0, -p at pi/2) for the collapsed-fiber inequality;
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
from .certify import CellGrid, Grid, cap_block_min, cap_link_margins
from .curvature import KAPPA, CapFactors, LocalGlue, cap_family_jets, cap_gamma_boxes
from .curvature import cap_link_lower_bound, ricci_torus_jets
from .curvature import make_cap_families  # noqa: F401  (the benchmark reads it from here)
from .errors import (
    ConstructionFailure,
    DomainError,
    ParameterError,
    UnderflowError_,
)
from .jets import Jet, j2warp, jet2_var_x, jet2_var_y, jet_var
from .warpfn import (
    PIH,
    WarpFunction,
    _hermite_quintic,
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


def alpha_nominal(xi0: float) -> float:
    """The tilt exponent nominal closed form (4 xi0/k) cot(2 xi0/k) - 4 xi0 cot(2 xi0)."""
    return (4 * xi0 / KAPPA) / math.tan(2 * xi0 / KAPPA) - 4 * xi0 / math.tan(2 * xi0)


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


def solve_kappa_prime(xi0: float, p: int, tau: float) -> KappaPrime:
    """Solve C_infty(kappa') = C_infty(KAPPA)/p for kappa' >= KAPPA (log space).

    The tail coefficient decreases to 0 as kappa' grows, so bisection on
    log kappa' converges; for p = 1 the solution is KAPPA itself.  The value
    may exceed double range, hence the log-space return.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    target = tail_coefficient_log(xi0, tau, math.log(KAPPA)) - math.log(p)
    if p == 1:
        return KappaPrime(math.log(KAPPA), KAPPA, 0.0)
    # the coefficient decays like exp(-alpha_inf log kappa'), alpha_inf ~ 4 xi0^2/3,
    # so the faithful solution sits at log kappa' ~ ln(p) / alpha_inf
    lo, hi = math.log(KAPPA), 100.0
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
    kappa_prime: KappaPrime
    kappa_prime_eff: float
    xi0: float
    tau: float
    beta: float                # extra tilt closing the coefficient gap
    c_mid: float               # coefficient of sin(2 xi) on the middle region
    presmooth_worst: float     # max of f_hat's inequality, 256 points per cell
    t_kappa: float = 0.0
    eps_kappa: float = 0.0
    params: ConstructionParams = field(default_factory=ConstructionParams)


BETA_MAX = 0.30        # pure-power drift budget; the inequality allows 3/7
SEAL_KAPPA = 1.0e7     # end-piece frequency carrying the slope -p
C_MID = 0.5            # sin(2x)/2 on the middle region, slope 1 at 0
X_DESCENT = 2.0e-4     # where the drift hands over to the descent
DESCENT_SLACK = 0.95   # descent designed against LHS <= -2 - (1 - slack)
DESCENT_FRAC = 0.97    # fraction of the maximal admissible descent rate
RAMP_POWER = 40.0      # the ramp's descent rate grows like s^40
D_TAIL = 0.1           # drift at which the Bernoulli body hands over to the tail

# The descent -D' = k(slack + 3 cot(2s) D - 7/4 D^2), k = DESCENT_FRAC 4/3,
# with 3 cot(2s) read as 1.5/s: the body drops the slack and solves the
# Bernoulli equation D = 1/(C s^M + E s); the tail drops -7/4 D^2 and solves
# the linear equation D = A s^-M - B s.
_K = DESCENT_FRAC * 4.0 / 3.0
_M = 1.5 * _K
_E = 1.75 * _K / (_M - 1.0)
_GAMMA = 1.0 / ((_M - 1.0) * _E)
_B = DESCENT_SLACK * _K / (_M + 1.0)


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


@dataclass
class _MirrorSide:
    """The mirror profile's constants at one beta, in s = pi/2 - x.

    W(s) is the integral of the drift D from s to s0, so each piece of the
    descent is c_mid sin(2x) exp(W); the W_* fields are W at the joins."""

    c_mid: float
    beta: float
    kappa_a: float
    x1: float                  # seal/drift join
    sh: float                  # ramp/body join: the ramp rate meets the body's
    sk: float                  # body/tail join: D = D_TAIL
    s0: float                  # the tail ends with D = 0
    C: float                   # body: D = 1/(C s^M + E s)
    A: float                   # tail: D = A s^-M - B s
    W_sk: float
    W_sh: float
    Kd: float                  # drift constant exp(W(xd)) xd^beta
    A_s: float                 # seal amplitude, from value continuity at x1
    resid: float               # slope residual A_s kappa_a / p - 1


def _ramp_drift(beta: float, s: float) -> float:
    """D on the ramp: D(xd) = beta/xd and -D' = (beta/xd^2)(s/xd)^RAMP_POWER,
    the drift's own rate at xd, so D is C^1 there."""
    u = (s / X_DESCENT) ** (RAMP_POWER + 1.0)
    return beta / X_DESCENT * (1.0 - (u - 1.0) / (RAMP_POWER + 1.0))


def _ramp_integral(beta: float, s: float) -> float:
    """An antiderivative of ``_ramp_drift`` in s."""
    q = RAMP_POWER + 1.0
    return beta / X_DESCENT * (s * (1.0 + 1.0 / q)
                               - X_DESCENT / (q * (q + 1.0)) * (s / X_DESCENT) ** (q + 1.0))


def _mirror_side(p, beta, c_mid, tau, kappa_a=SEAL_KAPPA) -> _MirrorSide:
    """The mirror side's constants at one beta (pieces at ``_mirror_pieces``).

    The beta search reads only the slope residual, which vanishes when the
    seal carries exactly slope -p; every step is a scalar closed form or a
    scalar root, and no expression tree is built here.
    """
    th_s = _seal_phase(beta, kappa_a)
    x1 = th_s / kappa_a
    xd = X_DESCENT
    if x1 * 1.5 >= xd:
        raise ConstructionFailure("seal phase leaves no room for the drift piece")

    def rate_gap(s):   # ramp rate minus the body's rate at the ramp's D; < 0 at xd for beta < 1/E
        D = _ramp_drift(beta, s)
        return beta / xd ** 2 * (s / xd) ** RAMP_POWER - _K * (1.5 * D / s - 1.75 * D * D)

    sh = _bisect(lambda s: rate_gap(s) < 0, xd, 2.0 * xd, 200)[1]
    C = (1.0 / _ramp_drift(beta, sh) - _E * sh) / sh ** _M
    if not C > 0:
        raise ConstructionFailure(f"drift {beta} is past the descent's reach (C = {C:.3e})")
    sk = _bisect(lambda s: C * s ** _M + _E * s < 1.0 / D_TAIL,
                 sh, (1.0 / (D_TAIL * C)) ** (1.0 / _M), 200)[1]
    A = (D_TAIL + _B * sk) * sk ** _M
    s0 = (A / _B) ** (1.0 / (_M + 1.0))
    if s0 >= 0.99 * tau:
        raise ConstructionFailure("drift descent does not finish before tau")
    W_sk = (A * (s0 ** (1.0 - _M) - sk ** (1.0 - _M)) / (1.0 - _M)
            - _B * (s0 * s0 - sk * sk) / 2.0)
    W_sh = W_sk + _GAMMA * math.log((C + _E * sh ** (1.0 - _M)) / (C + _E * sk ** (1.0 - _M)))
    W_xd = W_sh + _ramp_integral(beta, sh) - _ramp_integral(beta, xd)
    Kd = math.exp(W_xd) * xd ** beta
    A_s = c_mid * Kd * math.sin(2 * x1) * x1 ** (-beta) / math.sin(th_s)
    return _MirrorSide(c_mid, beta, kappa_a, x1, sh, sk, s0, C, A, W_sk, W_sh, Kd, A_s,
                       A_s * kappa_a / p - 1.0)


def _mirror_pieces(m: _MirrorSide):
    """Pieces (in x) of the mirror profile carrying the slope -p at pi/2.

    Structure in the reflected variable s = pi/2 - x, each piece c_mid
    sin(2x) exp(W) with W the integral of the drift D from s to s0:

    * seal  [0, x1]:   A_s sin(kappa_a s), slope p at 0;
    * drift [x1, xd]:  D = beta/s, the pure-power drift (admissible for
      beta < 3/7);
    * ramp  [xd, sh]:  -D' = (beta/xd^2)(s/xd)^RAMP_POWER, so D' is
      continuous at xd and, by the choice of sh, at sh;
    * body  [sh, sk]:  the Bernoulli descent D = 1/(C s^M + E s), whose
      exp(W) is a power of C + E s^(1-M);
    * tail  [sk, s0]:  the linear descent D = A s^-M - B s from D_TAIL to 0;
    * beyond s0 the profile is exactly c_mid sin(2x).
    """
    c, b, xd = m.c_mid, m.beta, X_DESCENT
    s = ex.Const(PIH) - ex.X
    sin2 = ex.sin(2.0 * ex.X)
    q = RAMP_POWER + 1.0
    W0_tail = m.A * m.s0 ** (1.0 - _M) / (1.0 - _M) - _B * m.s0 * m.s0 / 2.0
    tail = ex.exp(ex.Const(m.A / (_M - 1.0)) * s ** (1.0 - _M) + ex.Const(_B / 2.0) * s ** 2.0)
    body = (ex.Const(m.C) + ex.Const(_E) * s ** (1.0 - _M)) ** _GAMMA
    ramp = ex.exp(ex.Const(-b / xd * (1.0 + 1.0 / q)) * s
                  + ex.Const(b / (q * (q + 1.0))) * (s / xd) ** (q + 1.0))
    return [(PIH - m.s0, PIH - m.sk, ex.Const(c * math.exp(W0_tail)) * sin2 * tail),
            (PIH - m.sk, PIH - m.sh,
             ex.Const(c * math.exp(m.W_sk) * (m.C + _E * m.sk ** (1.0 - _M)) ** -_GAMMA)
             * sin2 * body),
            (PIH - m.sh, PIH - xd,
             ex.Const(c * math.exp(m.W_sh + _ramp_integral(b, m.sh))) * sin2 * ramp),
            (PIH - xd, PIH - m.x1, ex.Const(c * m.Kd) * sin2 * s ** (-b)),
            (PIH - m.x1, PIH, ex.Const(m.A_s) * ex.sin(ex.Const(m.kappa_a) * s))]


def build_f_kappa(n: int, p: int, tau: float) -> FKappa:
    """Base-sphere profile with f'(0) = 1, f'(pi/2) = -p, certified inequality.

    The profile is one round piece sin(2x)/2 from 0 to the mirror side; for
    p = 1 it is sin(2x)/2 on all of [0, pi/2].  For p > 1 the faithful
    matching frequency kappa' (log-space solve, recorded) compresses the
    slope seal far below double resolution, so the mirror side is realized
    as a seal, a pure-power drift and a closed-form descent (``_mirror_pieces``),
    with the drift exponent bisected until the seal amplitude carries exactly
    slope -p.  xi0 = tau/20 only sizes the glue box, and the mirror
    side does not depend on it, so the build is one try: the pre-smoothing
    profile must satisfy the inequality with bound -2 (-2.5 on the cells
    left of pi/4), or it raises; f's bound -1 is the f_inequality_smoothed report.
    """
    if math.gcd(n, p) != 1:
        raise DomainError(f"n = {n} and p = {p} must be coprime")
    if not (0 < tau < 0.1):
        raise DomainError("tau must lie in (0, 1/10)")

    xi0 = tau / 20.0
    round_part = ex.sin(2.0 * ex.X) / 2.0
    if p == 1:
        pieces = [(0.0, PIH, round_part)]
        beta = 0.0
        kp_eff = KAPPA
    else:
        # drift exponent solved so the seal amplitude carries exactly slope -p
        lo_b, hi_b = 1e-4, BETA_MAX
        r_lo = _mirror_side(p, lo_b, C_MID, tau).resid
        r_hi = None
        while hi_b > lo_b:
            try:
                r_hi = _mirror_side(p, hi_b, C_MID, tau).resid
                break
            except ConstructionFailure:
                hi_b *= 0.95
        if r_hi is None or r_lo > 0 or r_hi < 0:
            hi_text = "None" if r_hi is None else f"{r_hi:.3f}"
            raise ConstructionFailure(
                f"drift budget cannot reach slope -{p} (residuals {r_lo:.3f}, {hi_text})")
        lo_b, hi_b = _bisect(lambda b: _mirror_side(p, b, C_MID, tau).resid < 0,
                             lo_b, hi_b, 80)
        beta = 0.5 * (lo_b + hi_b)
        side = _mirror_side(p, beta, C_MID, tau)
        if abs(side.resid) > 1e-9:
            raise ConstructionFailure(f"drift bisection residual too large: {side.resid:.2e}")
        pieces = [(0.0, PIH - side.s0, round_part), *_mirror_pieces(side)]
        kp_eff = SEAL_KAPPA
    f_hat = WarpFunction(0.0, PIH, [hi for (_, hi, _) in pieces[:-1]], [e for (_, _, e) in pieces],
                         continuity_class=1, parity_left="even-derivatives-vanish-and-value-zero",
                         parity_right="even-derivatives-vanish-and-value-zero", name="f_hat")

    worst_left, worst_right = (float(np.max(q, initial=-np.inf))
                               for q in CellGrid(f_hat, 256, bilateral=True).q(f_hat))
    if worst_left > -2.5:
        raise ConstructionFailure(
            f"pre-smoothing regional estimates failed (max {worst_left:.3f} > -2.5)")
    if worst_right > -2.0:
        raise ConstructionFailure(
            f"pre-smoothing drift bound -2 failed (max {worst_right:.3f})")

    f = f_hat
    # smooth the genuine C^{1,1} corners (second-derivative jumps) among the
    # junctions; the window stays inside the cells next to the junction
    for t in f_hat.breakpoints:
        lj = f.eval_jet_onesided(t, "left")
        rj = f.eval_jet_onesided(t, "right")
        scale = max(abs(lj.f2), abs(rj.f2), 1.0)
        if abs(lj.f2 - rj.f2) < 1e-9 * scale:
            continue
        edges = [f.a, *f.breakpoints, f.b]
        i = edges.index(t)
        w = 0.25 * min(t - edges[i - 1], edges[i + 1] - t)
        f = mollify_join(f, t, w)
    f.name = f"f_kappa_{n}_{p}"
    f_hat.name = f"f_hat_{n}_{p}"

    # the infima defining the admissible Berger parameter and the Ricci margin
    xs = CellGrid(f, 128).x.ravel()
    j = f.jet(xs)
    ratio = np.sin(2 * xs) / (2 * j.f)
    t_kappa = 0.1 * float(np.min(ratio ** -2.0))
    eps_kappa = 0.1 * float(min(np.min(ratio ** -2.0), np.min(ratio ** 2.0),
                                np.min(-j.f2 / (4.0 * j.f))))
    # kappa' only goes to the ledger, so it is solved after every check
    # that names a real cause of failure
    kp = solve_kappa_prime(xi0, p, tau)
    params = ConstructionParams()
    params.set("kappa", KAPPA, "fixed: the round left side sin(2x)/2")
    params.set("kappa_prime_log", kp.log_value, "log-space tail-coefficient solve")
    params.set("kappa_prime_eff", kp_eff,
               "seal frequency actually carrying the slope -p"
               if p > 1 else "faithful value (p = 1)")
    params.set("alpha_left", 0.0, "no tilt on the round left side")
    params.set("alpha_nominal", alpha_nominal(xi0), "nominal closed form, recorded for comparison")
    params.set("beta", beta, f"pure-power drift exponent (budget {BETA_MAX} < 3/7)")
    params.set("c_mid", C_MID, "middle-region sine coefficient of sin(2x)/2")
    params.set("t_kappa", t_kappa, "0.1 * inf (sin2xi/2f)^-2 on offset grid")
    params.set("eps_kappa", eps_kappa,
               "0.1 * inf min{(sin2xi/2f)^-2, (sin2xi/2f)^2, -f''/(4f)}; the "
               "squared branch added so Ric >= eps (t dalpha^2 + h_f) certifies")
    params.set("xi0", xi0, "tau/20: the glue box")
    return FKappa(f=f, f_hat=f_hat, n=n, p=p, kappa_prime=kp,
                  kappa_prime_eff=kp_eff, xi0=xi0, tau=tau, beta=beta,
                  c_mid=C_MID, presmooth_worst=max(worst_left, worst_right),
                  t_kappa=t_kappa, eps_kappa=eps_kappa, params=params)


# ---------------------------------------------------------------------------
# edge profiles (rho, phi)
# ---------------------------------------------------------------------------


@dataclass
class EdgeProfile:
    rho: WarpFunction
    phi: WarpFunction
    n: int
    mu: float
    eps: float                  # realized dip factor (sin kappa mu_hat)^(mu/2)
    mu_hat: float
    mu_hat_strict_log10: float   # log10 of the faithful mu_hat bound
    c1: float
    c2: float
    c3: float
    R_mu: float
    band_hi: float              # the bands hold below 1/(10 kappa-position)
    r_out: float
    bump_const: float
    params: ConstructionParams = field(default_factory=ConstructionParams)


def _dip_mu_hat(mu: float, eps_target: float) -> float:
    """mu_hat with (sin kappa mu_hat)^(mu/2) = eps_target, or raise."""
    log10_sin = (2.0 / mu) * math.log10(eps_target)
    if log10_sin < MIN_LOG10_SIN:
        raise UnderflowError_(
            f"dip factor {eps_target:.2e} needs sin(kappa mu_hat) = 1e{log10_sin:.0f}; "
            f"increase mu (currently {mu}) or the dip target")
    s = 10.0 ** log10_sin
    return math.asin(s) / KAPPA


def build_edge_profile(mu: float, n: int, t_kappa: float, eps_kappa: float,
                       positions_kappa: float = KAPPA) -> EdgeProfile:
    """Radial profiles: rho dips to a thin cone, phi bends to a linear tail.

    rho is n sin(kappa r)/kappa near 0, then the power-law
    (n/kappa) eps (sin kappa r)^(1-mu/2) whose logarithmic derivative sits at
    (1 - mu/2) kappa cot(kappa r), then a certified concave transition to the
    exact linear tail c1 (r + c3).  phi is 1, a quartic bump of size
    (eps_k mu_hat_bump)^20, then exactly c2 (r + c3).

    t_kappa and eps_kappa are the infima that ``build_f_kappa`` records for
    the base profile f.  ``positions_kappa`` rescales the phi-bump and tail
    junctions (the round-base body uses the same shapes at unit scale).
    """
    if not (0 < mu < 0.1):
        raise ParameterError("mu must lie in (0, 1/10)")
    pk = positions_kappa
    params = ConstructionParams()

    # dip depth: at most 2 mu; below the Berger-parameter bound
    # rho/phi < sqrt(t_kappa); and small enough that the glue box mixed
    # term stays inside the dip-curvature PSD band (the quartic cutoff
    # second derivative against sqrt(d22 d44); the glue_mixed_bound report)
    eps_target = min(2 * mu,
                     0.8 * KAPPA * math.sqrt(t_kappa) / (0.1987 * n),
                     29.5 * math.sqrt(mu) / n ** 3)
    mu_hat = _dip_mu_hat(mu, eps_target)
    eps = math.sin(KAPPA * mu_hat) ** (mu / 2)
    mu_hat_strict_log10 = (2.0 / mu) * math.log10(t_kappa / (100.0 * n * KAPPA))
    params.set("eps", eps, "dip factor; desk-scale target recorded in ledger")
    params.set("mu_hat", mu_hat, "solves (sin kappa mu_hat)^(mu/2) = eps")
    params.set("mu_hat_strict_log10_sin", mu_hat_strict_log10,
               "faithful bound log10 sin(kappa mu_hat), kept in log space")

    # --- rho ---------------------------------------------------------------
    tail_lo, tail_hi = 1.0 / (5.0 * pk), 1.0 / (4.0 * pk)
    kx = ex.Const(KAPPA) * ex.X
    rho_pieces = [
        (0.0, mu_hat, ex.Const(float(n)) * ex.sin(kx) / KAPPA),
        (mu_hat, tail_lo, ex.Const(n / KAPPA * eps) * ex.sin(kx) ** (1.0 - mu / 2)),
    ]

    # --- phi ---------------------------------------------------------------
    mu_hat_bump = max(mu_hat, BUMP_MU_FLOOR)
    A = (eps_kappa * mu_hat_bump) ** 20
    if A == 0.0 or not math.isfinite(A):
        raise UnderflowError_("quartic bump constant underflowed despite the floor")
    b_lo, b_hi = 1.0 / (8.0 * pk), 3.0 / (20.0 * pk)
    w40 = 1.0 / (40.0 * pk)
    c2 = 4.0 * A * w40 ** 3
    val_bhi = 1.0 + A * w40 ** 4
    c3 = val_bhi / c2 - b_hi
    c3_nominal = (40 * KAPPA) ** 3 / (4.0 * A) - 19.0 / (160 * KAPPA)
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
                       name=f"phi_{KAPPA}_{mu}")
    for t, w in ((b_lo, (b_hi - b_lo) / 10), (b_hi, (b_hi - b_lo) / 10)):
        lj, rj = phi.eval_jet_onesided(t, "left"), phi.eval_jet_onesided(t, "right")
        if abs(lj.f2 - rj.f2) > 1e-12 * max(1.0, abs(lj.f2), abs(rj.f2)):
            phi = mollify_join(phi, t, w, constraints=[("monotone", +1)])

    # --- rho tail: concave transition to c1 (r + c3) ------------------------
    rho_body = WarpFunction(0.0, tail_lo, [mu_hat], [e for (_, _, e) in rho_pieces],
                            continuity_class=1,
                            parity_left="even-derivatives-vanish-and-value-zero",
                            name="rho_body")
    v = float(rho_body(np.array([tail_lo]))[0])
    jL = rho_body.eval_jet_onesided(tail_lo, "left")
    c1 = None
    d1_scale = max(abs(jL.f1), 1e-30)
    d2_scale = max(abs(jL.f2), 1e-30)
    for factor in np.linspace(1.02, 1.35, 34):
        c1_try = float(factor) * v / (c3 + tail_lo)
        hermite = _hermite_quintic(
            jL, Jet(c1_try * (tail_hi + c3), c1_try, 0.0), tail_lo, tail_hi)
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
        name=f"rho_{KAPPA}_{mu}")
    rho = mollify_join(rho, mu_hat, mu_hat / 4, constraints=[("d2", -1), ("monotone", +1)])

    prof = EdgeProfile(rho=rho, phi=phi, n=n, mu=mu, eps=eps,
                       mu_hat=mu_hat, mu_hat_strict_log10=mu_hat_strict_log10,
                       c1=c1, c2=c2, c3=c3, R_mu=tail_hi, r_out=R_out,
                       band_hi=1.0 / (10.0 * pk), bump_const=A, params=params)
    return prof


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
    params: ConstructionParams = field(default_factory=ConstructionParams)


def build_glue_field(xi0: float, n: int, rho_mu: WarpFunction) -> GlueField:
    """Twist field psi and the glue ansatz on the box [0, xi0/2]^2.

    Not checked here: the bounds |psi_r / sin 2xi| <= 2 n sigma2 / sigma1
    and mixed term <= 1/100 are the atlas's glue_psi_r_bound and
    glue_mixed_bound reports.
    """
    s1 = xi0 / 200.0
    s2 = s1 / (200.0 * n * n)
    eta1 = build_cutoff(s1, 2 * s1, domain_end=xi0, name="eta_sigma1")
    eta2 = build_cutoff(s2, 2 * s2, domain_end=xi0, name="eta_sigma2")
    glue = LocalGlue(rho=rho_mu, n=n, eta1=eta1, eta2=eta2,
                     sigma1=s1, sigma2=s2, xi0=xi0)
    params = ConstructionParams()
    params.set("sigma1", s1, "xi0/200")
    params.set("sigma2", s2, "sigma1/(200 n^2)")
    return GlueField(glue=glue, sigma1=s1, sigma2=s2, xi0=xi0, n=n, params=params)


# ---------------------------------------------------------------------------
# conical cap
# ---------------------------------------------------------------------------


@dataclass
class ConicalCap:
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


def _build_rho_cap(r0: float, mu: float, n: int, eps_target: float) -> WarpFunction:
    """Dip profile for the cap: no linear tail, power law through r0."""
    mu_hat = _dip_mu_hat(mu, eps_target)
    eps = math.sin(KAPPA * mu_hat) ** (mu / 2)
    top = min(1.12 * r0, 0.99 * math.pi / KAPPA)  # stay below sin(KAPPA r) zero
    kx = ex.Const(KAPPA) * ex.X
    rho = WarpFunction(0.0, top, [mu_hat],
                       [ex.Const(float(n)) * ex.sin(kx) / KAPPA,
                        ex.Const(n / KAPPA * eps) * ex.sin(kx) ** (1.0 - mu / 2)],
                       continuity_class=1,
                       parity_left="even-derivatives-vanish-and-value-zero",
                       name="rho_cap")
    return mollify_join(rho, mu_hat, mu_hat / 4, constraints=[("d2", -1), ("monotone", +1)])


def cap_link_ricci_margin(cap: ConicalCap, n_grid: int = 256) -> float:
    """min eig of Ric_h - (2 + zeta/100)(1-zeta)^2 h for the frozen cap link.
    Nothing in the package calls it; it stays because the benchmark's span
    table (bench/spans.py) wraps it."""
    m = cap_link_margins(cap.rho_cap, cap.n, cap.sigma_link, n_grid)[1]
    return float(np.min(m - cap_link_lower_bound(cap.zeta)))


CAP_PROBE_GRID = 40    # the cap search's n x n probe grid per part


class _CapSearch:
    """The probes of one ``build_conical_cap`` call.  A probe asks whether the
    cap at (mu, zeta) has block margins >= -1e-8 on the 40 x 40 probe grids of
    the given parts (0: part 1, 1: part 2) and, when link_grid is set, a link
    margin >= -1e-8 on that many points; a cap that cannot be built does not
    pass.  What the probes share (see ``build_conical_cap``) is kept for the
    life of the search object, that is, one ``build_conical_cap`` call."""

    def __init__(self, r0: float, n: int, eps_target: float):
        self.r0, self.n, self.eps_target = r0, n, eps_target
        self.sigma_hat = r0 / 20.0
        self.delta = self.sigma_hat / 10.0
        self.sigma_link = self.sigma_hat - self.delta / 2
        self.eta_delta = _build_eta_delta(r0, self.sigma_hat, self.delta)
        self._memo = {}

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def phi1(self, zeta):
        return self._once(("phi1", zeta), lambda: _build_phi1(self.r0, zeta))

    def rho_cap(self, mu):
        return self._once(("rho_cap", mu),
                          lambda: _build_rho_cap(self.r0, mu, self.n, self.eps_target))

    def _factors(self, part):
        pts = Grid([cap_gamma_boxes(self.r0)[part], (0.0, PIH)], [CAP_PROBE_GRID] * 2).points()
        return CapFactors(jet2_var_x(pts[:, 0], pts[:, 1]), jet2_var_y(pts[:, 0], pts[:, 1]),
                          self.n, self.eta_delta if part else None)

    def _part_passes(self, part, mu, zeta) -> bool:
        fac = self._once(("factors", part), lambda: self._factors(part))
        pref = self._once(("pref", part, zeta), lambda: fac.pref(self.phi1(zeta), zeta))

        def rho():
            return self._once(("rho_on_grid", part, mu),
                              lambda: j2warp(self.rho_cap(mu), fac.arg_sin))

        e = ricci_torus_jets(*(form() for form in cap_family_jets(pref, fac, rho))).entries
        return np.min(cap_block_min(e)) >= -1e-8

    def passes(self, mu, zeta, parts, link_grid) -> bool:
        try:
            if not all(self._part_passes(i, mu, zeta) for i in parts):
                return False
            if not link_grid:
                return True
            m = self._once(("link", mu, link_grid), lambda: cap_link_margins(
                self.rho_cap(mu), self.n, self.sigma_link, link_grid)[1])
            return np.min(m - cap_link_lower_bound(zeta)) >= -1e-8
        except (ConstructionFailure, ParameterError, UnderflowError_):
            return False

    def cap(self, mu, zeta) -> ConicalCap:
        return ConicalCap(phi1=self.phi1(zeta), eta_delta=self.eta_delta,
                          rho_cap=self.rho_cap(mu), n=self.n, r0=self.r0, mu=mu, zeta=zeta,
                          sigma_hat=self.sigma_hat, delta=self.delta,
                          sigma=self.sigma_hat - self.delta, sigma_link=self.sigma_link,
                          mu0=0.0, mu123=(0, 0, 0), eps_cap=1.0 - 999.0 * zeta / 1000.0)


def build_conical_cap(r0: float, mu: float, n: int, eps_target: float,
                      zeta: float | None = None,
                      search_budget: int = 10) -> ConicalCap:
    """Cap families searched on probe grids, with the admissible-mu gate.

    zeta defaults to a bisection for the largest value <= min(0.1, r0^2/8)
    whose certification passes at the input mu; mu1..mu3 are then the largest
    mu passing each sub-certification (bisection, 40 x 40 probe grids), and
    the gate mu0 = min(mu1, mu2, mu3)/2 must exceed the input mu.

    Each probe computes only what its searched constant changes
    (``_CapSearch``).  eta_delta and each probe grid's ``CapFactors`` (the
    jets that no searched constant moves) are built once; phi1 and the
    prefactor once per zeta; rho_cap, rho_cap(arg sin th) and the frozen-link
    margins (``certify.cap_link_margins``) once per mu, the three mu
    bisections sharing their midpoints.  A probe forms the two families with
    ``cap_family_jets``, evaluates ``ricci_torus_jets`` and reduces it with
    ``cap_block_min``, as ``cap_blocks_psd`` does; its outcome is bit for bit
    that of a cap assembled from scratch.

    The returned cap is not re-checked here.  Its certificate is the atlas's
    ``cap_blocks_psd`` report (both parts at the atlas's 2-D grid) and its
    ``cap_link_bound`` report (the link at 256 points), so a cap that fails
    at the atlas grid gives a FAIL report rather than a ConstructionFailure.
    """
    if not (0 < mu < 0.1):
        raise ParameterError("mu must lie in (0, 1/10)")
    search = _CapSearch(r0, n, eps_target)
    if zeta is None:
        # find the largest zeta that still certifies with mu-headroom: the
        # gate mu0 halves the admissible-mu minimum, so searching at the
        # input mu itself would always leave mu0 below it
        mu_search = min(2.2 * mu, 0.095)
        zeta = _bisect(lambda z: search.passes(mu_search, z, (0, 1), 256),
                       0.0, min(0.1, r0 * r0 / 8.0), search_budget)[0]
        if zeta == 0.0:
            raise ConstructionFailure("no certifiable zeta found for this (r0, mu, n)")

    # the largest passing probe, or 0.0 when none passes
    mu1, mu2, mu3 = (
        _bisect(lambda m: search.passes(m, zeta, parts, link), 0.0, 0.1, search_budget)[0]
        for parts, link in (((0,), None), ((1,), None), ((), 96)))
    mu0 = 0.5 * min(mu1, mu2, mu3)
    if mu >= mu0:
        raise ParameterError(
            f"mu = {mu} is not below the certified gate mu0 = {mu0:.4f} "
            f"(mu1={mu1:.4f}, mu2={mu2:.4f}, mu3={mu3:.4f})")
    cap = search.cap(mu, zeta)
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
    lam: float                  # round end radius 1 - 999 zeta / 1000
    lam2: float
    params: ConstructionParams = field(default_factory=ConstructionParams)


def build_interpolation_family(cap: ConicalCap) -> InterpolationFamily:
    """The constants of the link family from the frozen cap link (s=1) to the
    round sphere (s=0), ``curvature.link_family_jets``.

    Not checked here: Ric >= 2 ghat, monotone volumes, constant normalized
    volumes and the s-independent Moser density are the atlas's
    family_ricci, family_volumes and family_moser reports.
    """
    fam = InterpolationFamily(lam=1.0 - 999.0 * cap.zeta / 1000.0,
                              lam2=(1000.0 - 1000.0 * cap.zeta) / (1000.0 - 999.0 * cap.zeta))
    fam.params.set("lambda", fam.lam, "round end radius 1 - 999 zeta/1000")
    fam.params.set("lambda2", fam.lam2, "(1000 - 1000 zeta)/(1000 - 999 zeta)")
    fam.params.set("volume_exponent", 2.0 / 3.0,
                   "scaling power: c_s = (V1/Vs)^(2/3) makes the 3-volumes equal")
    return fam


# ---------------------------------------------------------------------------
# round-base body profiles
# ---------------------------------------------------------------------------


def build_general_profiles(n: int, mu: float) -> EdgeProfile:
    """Profiles for the round-base Berger body: the edge shapes at unit
    positions, so phi = 1 on (0, 1/10) and both tails are exactly linear
    (the atlas's body_phi_one and body_tail_exact reports).  The round base
    sin(2x)/2 has both infima exactly 1, so t_kappa = eps_kappa = 0.1."""
    return build_edge_profile(mu, n, 0.1, 0.1, positions_kappa=1.0)
