"""Command-line interface.

Subcommands::

    conewarp resolve   --group cyclic:n,k,l | --group-file F --out DIR [--config F]
    conewarp certify   --atlas FILE [--grid N] [--tol T]
    conewarp recursion --group ... | --group-file F
    conewarp plot-data --atlas FILE --field {ricci-min|warp|margin} --out CSV

Config files are plain ``key = value`` lines (grid sizes, tolerances, search
budgets).  Exit codes: 0 pass, 1 certification failure, 2 usage/parameter
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .certify import AtlasRegion, CellGrid, Grid, recertify
from .curvature import ricci_cone_berger
from .errors import ConewarpError, DomainError
from .groups import (
    cyclic_group,
    deserialize_group,
    hj_continued_fraction,
    normalize_cyclic,
    resolution_tree,
)
from .pipeline import PipelineConfig, run_full_resolution


def _parse_group(args):
    if getattr(args, "group", None):
        spec = args.group
        if spec.startswith("cyclic:"):
            parts = spec.split(":", 1)[1].split(",")
            if len(parts) != 3:
                raise ValueError("cyclic group spec must be cyclic:n,k,l")
            n, k, l = (int(v) for v in parts)
            return cyclic_group(n, k, l)
        raise ValueError(f"unknown group spec {spec!r} (use cyclic:n,k,l or --group-file)")
    if getattr(args, "group_file", None):
        return deserialize_group(Path(args.group_file).read_text())
    raise ValueError("one of --group or --group-file is required")


def _load_config(path):
    if not path:
        return PipelineConfig()
    mapping = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        mapping[key.strip()] = val.strip()
    return PipelineConfig.from_mapping(mapping)


def cmd_resolve(args) -> int:
    group = _parse_group(args)
    cfg = _load_config(args.config)
    run = run_full_resolution(group, config=cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    texts = {}     # first build's name -> (atlas JSON, ledger); shared atlases reuse it
    for name, atlas in run.atlases:
        first = run.reused.get(name, name)
        if first not in texts:
            texts[first] = (atlas.to_json(), atlas.params.ledger_text())
        atlas_json, ledger = texts[first]
        (out / f"atlas_{name}.json").write_text(atlas_json)
        (out / f"params_{name}.txt").write_text(ledger)
    (out / "run_summary.txt").write_text(run.summary() + "\n")
    (out / "reports.json").write_text(json.dumps(
        {name: {k: json.loads(r.to_json()) for k, r in atlas.reports.items()}
         for name, atlas in run.atlases}, indent=1))
    print(run.summary())
    print(f"wrote {len(run.atlases)} atlases to {out}")
    return 0 if run.passed else 1


def cmd_recursion(args) -> int:
    group = _parse_group(args)
    tree = resolution_tree(group)
    print("\n".join(tree.as_text()))
    if group.kind == "cyclic" and not group.is_trivial:
        n, _, p = normalize_cyclic(group.n, group.k, group.l)
        if p >= 1 and n > p:
            coeffs = hj_continued_fraction(n, p)
            print(f"continued-fraction oracle: {n}/{p} = {coeffs} "
                  f"(informational exceptional-curve data)")
    return 0


def _load_atlas(path):
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "regions" not in data:
        raise DomainError(f"{path} is not an atlas file: no 'regions' key")
    return data


def cmd_certify(args) -> int:
    """Re-run resolve's file checks (``certify.FILE_CHECKS``) on a written atlas file."""
    reports = recertify(_load_atlas(args.atlas), n_2d=args.grid, tol=args.tol)
    if not reports:
        print("no recertifiable regions found in atlas", file=sys.stderr)
        return 2
    for rep in reports.values():
        print(rep.summary())
    return 0 if all(rep.passed for rep in reports.values()) else 1


def cmd_plot_data(args) -> int:
    regions = {r["id"]: r for r in _load_atlas(args.atlas)["regions"]}
    if "edge_body" not in regions:
        raise DomainError(f"{args.atlas} has no 'edge_body' region; plot-data reads "
                          "the edge body of a cyclic atlas")
    edge = AtlasRegion.from_json(regions["edge_body"])
    w, r_out = edge.warps, edge.data["r_out"]
    out = Path(args.out)
    if args.field == "ricci-min":
        grid = Grid([(0.0, r_out), (0.0, np.pi / 2)], [96, 96])
        pts = grid.points()
        eigs = np.linalg.eigvalsh(
            ricci_cone_berger(w["rho"], w["phi"], w["f"], pts[:, 0], pts[:, 1]).entries)
        rows = np.column_stack([pts, eigs[:, 0]])
        header = "r,xi,min_eigenvalue"
    elif args.field == "warp":
        r = np.linspace(1e-6, r_out, 2048)
        rows = np.column_stack([r, w["rho"](r), w["phi"](r)])
        header = "r,rho,phi"
    elif args.field == "margin":
        # the f_inequality_smoothed report's cells, so the seal is plotted too
        grid = CellGrid(w["f"], 192, bilateral=True)
        rows = np.column_stack([grid.points()[:, 0], -1.0 - np.concatenate(grid.q(w["f"]))])
        rows = rows[np.argsort(rows[:, 0])]
        header = "xi,margin_to_bound_-1"
    else:
        print(f"unknown field {args.field}", file=sys.stderr)
        return 2
    np.savetxt(out, rows, delimiter=",", header=header, comments="")
    print(f"wrote {rows.shape[0]} rows to {out}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="conewarp",
                                 description="certified nonnegative-Ricci metrics "
                                             "on resolutions of quotient singularities")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("resolve", help="full resolution run with certification")
    p.add_argument("--group")
    p.add_argument("--group-file")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("certify", help="re-certify a written atlas file")
    p.add_argument("--atlas", required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("recursion", help="print the resolution tree and oracle data")
    p.add_argument("--group")
    p.add_argument("--group-file")
    p.set_defaults(fn=cmd_recursion)

    p = sub.add_parser("plot-data", help="dump CSV fields for plotting")
    p.add_argument("--atlas", required=True)
    p.add_argument("--field", required=True, choices=["ricci-min", "warp", "margin"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot_data)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConewarpError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
