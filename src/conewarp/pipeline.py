"""Surgery atlas assembly, full resolution runs, and report aggregation.

A cyclic atlas has four regions: the exact cone tail, the edge body (cone
over the warped Berger sphere), the glue collar (twist interpolation near
the singular point), and the conical cap with its interpolation family.
Interfaces between the first three are exact coordinate identifications and
are certified as such; the cap is certified as a standalone scaled model of
the product corner, and the scale transport (a one-parameter family rescale)
is flagged in the notes rather than silently assumed.  So is the homothety
from a parent's cap to its child's cone at infinity: each atlas records its
own cap link and cone at infinity, and no edge between them is certified.

Non-cyclic groups get the round-base Berger body plus one singular-orbit
entry per cyclic stabilizer; each child is then resolved recursively.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from . import construct as cn
from .certify import DEFAULT_TOL, AtlasRegion, _jsonable, bound_report, run_checks
from .errors import DomainError, NotFreeError, ParameterError
from .groups import (
    GroupDescriptor,
    ResolutionNode,
    acts_freely,
    cyclic_group,
    element_set_key,
    generate_elements,
    normalize_cyclic,
    resolution_step,
    resolution_tree,
    serialize_group,
    singular_orbits,
)

__all__ = ["PipelineConfig", "SurgeryAtlas", "ResolutionRun",
           "assemble_atlas", "run_full_resolution", "mu_floor"]


@dataclass
class PipelineConfig:
    tau: float = 0.099
    mu: float | None = None          # default chosen per group order
    r0_cap: float = 0.75
    grid_1d: int = 10_000
    grid_2d: int = 128
    tol: float = DEFAULT_TOL
    cap_search_budget: int = 10

    @classmethod
    def from_mapping(cls, mapping):
        cfg = cls()
        casts = {"tau": float, "mu": float, "r0_cap": float, "grid_1d": int,
                 "grid_2d": int, "tol": float, "cap_search_budget": int}
        for k, v in mapping.items():
            if k not in casts:
                raise ParameterError(f"unknown config key {k!r}")
            setattr(cfg, k, casts[k](v))
        return cfg


def mu_floor(n: int) -> float:
    """Smallest band exponent whose dip depth stays representable.

    The dip factor target is min(2 mu, 29.5 sqrt(mu)/n^3); it must satisfy
    (2/mu) |log10 eps| <= 280 for sin(kappa mu_hat) to stay inside double
    range.  Returns the smallest admissible mu on a small ladder.
    """
    for mu in (0.012, 0.015, 0.02, 0.03, 0.045, 0.06, 0.08):
        eps = min(2 * mu, 29.5 * math.sqrt(mu) / n ** 3)
        if (2.0 / mu) * abs(math.log10(eps)) <= 280.0:
            return mu
    raise ParameterError(f"no representable band exponent for n = {n}")


@dataclass
class Interface:
    a: str
    b: str
    description: str
    exact: bool
    report_name: str


@dataclass
class SingularPoint:
    location: str
    child: GroupDescriptor
    note: str = ""


@dataclass
class SurgeryAtlas:
    group: GroupDescriptor
    n: int
    p: int
    regions: list = field(default_factory=list)
    interfaces: list = field(default_factory=list)
    singular_points: list = field(default_factory=list)
    cone_at_infinity: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    params: cn.ConstructionParams = field(default_factory=cn.ConstructionParams)
    notes: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self):
        return all(r.passed for r in self.reports.values())

    def summary(self) -> str:
        lines = [f"atlas for {self.group.name()}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.regions)} regions, {len(self.reports)} reports, "
                 f"{self.wall_time:.1f}s)"]
        for name in sorted(self.reports):
            lines.append("  " + self.reports[name].summary())
        for note in self.notes:
            lines.append("  note: " + note)
        return "\n".join(lines)

    def to_json(self) -> str:
        d = {
            "group": serialize_group(self.group),
            "n": self.n, "p": self.p,
            "regions": [
                {"id": r.id, "kind": r.kind, "description": r.description,
                 "data": r.data,
                 "warps": {k: w.serialize() for k, w in r.warps.items()}}
                for r in self.regions
            ],
            "interfaces": [vars(i) for i in self.interfaces],
            "singular_points": [
                {"location": s.location, "child": serialize_group(s.child),
                 "note": s.note}
                for s in self.singular_points
            ],
            "cone_at_infinity": self.cone_at_infinity,
            "reports": {k: json.loads(v.to_json()) for k, v in self.reports.items()},
            "params": {"values": self.params.values,
                       "provenance": self.params.provenance},
            "notes": self.notes,
        }
        return json.dumps(d, separators=(",", ":"), default=_jsonable)


# ---------------------------------------------------------------------------
# cyclic atlas
# ---------------------------------------------------------------------------


def assemble_atlas(group: GroupDescriptor,
                   config: PipelineConfig | None = None) -> SurgeryAtlas:
    """Build and certify the full atlas for one non-trivial resolution node."""
    cfg = config or PipelineConfig()
    if group.is_trivial:
        raise DomainError("the trivial group needs no surgery: flat R^4 has no atlas")
    free, witness = acts_freely(group)
    if not free:
        raise NotFreeError(f"group does not act freely: {witness}")
    if group.kind == "cyclic":
        n, _, p = normalize_cyclic(group.n, group.k, group.l)
        return _cyclic_atlas(cyclic_group(n, 1, p), n, p, cfg)
    return _noncyclic_atlas(group, cfg)


def _certify_regions(atlas: SurgeryAtlas, cfg: PipelineConfig):
    """Run every region check of the certification table on the atlas."""
    atlas.reports.update(run_checks({r.id: r for r in atlas.regions},
                                    n_1d=cfg.grid_1d, n_2d=cfg.grid_2d, tol=cfg.tol))


def _cyclic_atlas(group, n, p, cfg: PipelineConfig) -> SurgeryAtlas:
    t0 = time.perf_counter()
    atlas = SurgeryAtlas(group=group, n=n, p=p)
    mu = cfg.mu if cfg.mu is not None else mu_floor(n)
    atlas.params.set("mu", mu, "pipeline default via representability floor"
                     if cfg.mu is None else "config override")
    atlas.params.set("tau", cfg.tau, "config")

    # 1. base-sphere profile; f_hat is not stored, so the report carries the
    # build's own per-piece sweep of its inequality ----------------------------
    fk = cn.build_f_kappa(n, p, tau=cfg.tau)
    atlas.params.merge(fk.params)
    atlas.reports["f_inequality_presmooth"] = bound_report(
        f"f_hat inequality <= -2 ({n},{p})", fk.presmooth_worst, -2.0,
        grid={"per_piece": 256, "conditioning": "bilateral"})

    # 2. edge body -----------------------------------------------------------
    prof = cn.build_edge_profile(mu, n, fk.t_kappa, fk.eps_kappa)
    atlas.params.merge(prof.params)

    # 3. glue collar -----------------------------------------------------------
    glue = cn.build_glue_field(fk.xi0, n, prof.rho)
    atlas.params.merge(glue.params)

    # 4. conical cap and interpolation family --------------------------------
    cap = cn.build_conical_cap(cfg.r0_cap, mu, n, eps_target=prof.eps,
                               search_budget=cfg.cap_search_budget)
    atlas.params.merge(cap.params)
    fam = cn.build_interpolation_family(cap)
    atlas.params.merge(fam.params)

    # 5. regions and their certification (every report but the presmoothing
    # one comes from the table), interfaces, bookkeeping ------------------------
    quotient = (f"residual torus action: deck translations "
                f"(alpha, beta) -> (alpha + 2 pi/{n}, beta + 2 pi ({p}-1)/{n})")
    atlas.regions.extend([
        AtlasRegion("cone_tail", "cone_over_berger",
                    f"exact cone r >= {prof.R_mu}: rho = c1 (r+c3), phi = c2 (r+c3)",
                    data={"R_mu": prof.R_mu, "c1": prof.c1, "c2": prof.c2,
                          "c3": prof.c3}),
        AtlasRegion("edge_body", "cone_over_berger",
                    "cone over the warped Berger sphere with the edge-flattening dip",
                    data={"n": n, "p": p, "mu": mu, "eps": prof.eps,
                          "quotient": quotient, "r_out": prof.r_out, "band_hi": prof.band_hi},
                    warps={"rho": prof.rho, "phi": prof.phi, "f": fk.f}),
        AtlasRegion("glue_collar", "local_glue",
                    "twist interpolation between the Berger form and the surface product",
                    data={"xi0": fk.xi0, "sigma1": glue.sigma1, "sigma2": glue.sigma2,
                          "n": n},
                    warps={"rho": prof.rho, "eta1": glue.glue.eta1,
                           "eta2": glue.glue.eta2}),
        AtlasRegion("conical_cap", "torus_invariant",
                    "shrink-and-freeze cap certified at its own scale",
                    data={"r0": cap.r0, "zeta": cap.zeta, "mu": cap.mu,
                          "mu0": cap.mu0, "sigma": cap.sigma,
                          "sigma_link": cap.sigma_link, "n": n,
                          "eps_cap_link": cap.eps_cap,
                          "lambda2": fam.lam2},
                    warps={"rho_cap": cap.rho_cap, "phi1": cap.phi1,
                           "eta_delta": cap.eta_delta}),
    ])

    _certify_regions(atlas, cfg)
    atlas.interfaces.extend([
        Interface("cone_tail", "edge_body", "same chart; tails are the exact "
                  "linear functions beyond R_mu", True, "tail_exact_linear"),
        Interface("edge_body", "glue_collar",
                  "(r, xi, alpha, beta) -> (r, xi, n(alpha+beta), beta)",
                  True, "iface_edge_glue"),
        Interface("glue_collar", "conical_cap",
                  "product corner formulas matched to the cap family; the cap "
                  "is certified at model scale r0 and transported by the "
                  "family rescale (flagged)", False, "iface_cap_collar"),
        Interface("conical_cap", "inner_cone",
                  "exact frozen cone inside gamma <= sigma", True, "iface_cap_cone"),
    ])

    child = resolution_step(n, p)
    atlas.singular_points.append(SingularPoint(
        location="cap center (the resolved singular point)",
        child=child,
        note="cap round-link radius 1 - 999 zeta/1000; matched to the child "
             "cone at infinity by global homothety (flagged: the link rounding "
             "of the child tail is interpolation-certified, not flow-rounded)"))
    t_inf = (prof.c1 / prof.c2) ** 2
    atlas.cone_at_infinity = {
        "link": f"S^3/Gamma_{{{n},1,{p}}} with Berger-type metric",
        "delta_cone": prof.c2,
        "fiber_over_base_sq": t_inf,
        "round": False,
        "status": "Berger-type, interpolation-certified (flow rounding out of scope)",
    }
    atlas.notes.append(
        "cap certified on the product model at r0 = %.3g with shared (mu, dip); "
        "the corner ball transport is a family rescale recorded here, not a "
        "grid-certified isometry" % cap.r0)
    atlas.wall_time = time.perf_counter() - t0
    return atlas


# ---------------------------------------------------------------------------
# non-cyclic atlas
# ---------------------------------------------------------------------------


def _noncyclic_atlas(group, cfg: PipelineConfig) -> SurgeryAtlas:
    t0 = time.perf_counter()
    order = len(generate_elements(group))
    atlas = SurgeryAtlas(group=group, n=order, p=0)
    mu = cfg.mu if cfg.mu is not None else mu_floor(order)
    # round-base Berger body over the projectivized quotient
    prof = cn.build_general_profiles(order, mu)
    atlas.params.merge(prof.params)
    atlas.regions.append(AtlasRegion(
        "berger_body", "berger_general",
        "round-base Berger body over the projectivized quotient",
        data={"order": order, "mu": mu, "r_out": prof.r_out, "R_mu": prof.R_mu,
              "c1": prof.c1, "c2": prof.c2, "c3": prof.c3, "band_hi": prof.band_hi},
        warps={"rho": prof.rho, "phi": prof.phi}))
    _certify_regions(atlas, cfg)

    _, orbits = singular_orbits(group)
    for i, (size, child) in enumerate(orbits):
        atlas.singular_points.append(SingularPoint(
            location=f"singular orbit {i} (orbit size {size})",
            child=child,
            note="cap per orbit via the cyclic machinery at the child's data"))
    atlas.cone_at_infinity = {
        "link": f"S^3/{group.name()} Berger-type",
        "delta_cone": prof.c2,
        "round": False,
        "status": "Berger-type, interpolation-certified (flow rounding out of scope)",
    }
    atlas.notes.append("non-cyclic body; each singular orbit resolves through "
                       "its cyclic stabilizer chain")
    atlas.wall_time = time.perf_counter() - t0
    return atlas


# ---------------------------------------------------------------------------
# resolution run
# ---------------------------------------------------------------------------


@dataclass
class ResolutionRun:
    group: GroupDescriptor
    tree: ResolutionNode
    atlases: list = field(default_factory=list)      # (name, SurgeryAtlas)
    reused: dict = field(default_factory=dict)       # name -> name of its atlas's first build
    wall_time: float = 0.0

    @property
    def passed(self):
        return all(a.passed for _, a in self.atlases)

    def summary(self) -> str:
        lines = [f"resolution run for {self.group.name()}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({len(self.atlases)} atlases, {self.wall_time:.1f}s)"]
        lines.extend(self.tree.as_text(indent=2))
        for name, atlas in self.atlases:
            if name in self.reused:
                lines.append(f"{name}: same atlas as {self.reused[name]}")
            else:
                lines.append(atlas.summary())
        return "\n".join(lines)


def run_full_resolution(group: GroupDescriptor,
                        config: PipelineConfig | None = None) -> ResolutionRun:
    """Resolve the whole tree: one certified atlas per non-trivial node.

    The run passes when every atlas's reports pass; the homothety from a
    parent's cap to its child's cone at infinity is flagged in the atlases'
    notes, not computed.  An atlas depends only on the canonical node (the
    normalized cyclic exponents, or the element set) and the config, so
    identical nodes of one run share the atlas of their first build; each
    name is still listed, and ``run.reused`` names the first build.  Trivial
    leaves need no surgery and get no atlas.  Nothing is kept past the call.
    """
    cfg = config or PipelineConfig()
    t0 = time.perf_counter()
    tree = resolution_tree(group)
    run = ResolutionRun(group=group, tree=tree)
    built = {}     # canonical node -> (name of its first build, atlas)

    def visit(node: ResolutionNode, name: str):
        g = node.group
        if g.is_trivial:
            return
        key = (normalize_cyclic(g.n, g.k, g.l) if g.kind == "cyclic"
               else element_set_key(generate_elements(g)))
        if key not in built:
            built[key] = (name, assemble_atlas(g, cfg))
        first, atlas = built[key]
        run.atlases.append((name, atlas))
        if first != name:
            run.reused[name] = first
        for i, child in enumerate(node.children):
            visit(child, f"{name}.{i}")

    visit(tree, "node0")
    run.wall_time = time.perf_counter() - t0
    return run
