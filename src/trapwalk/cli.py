"""Command-line front end: coins, classification, spectra, simulations, figures.

Angles are radians unless --degrees is given.  Complex numbers in JSON are
[re, im] pairs.  Output files are written atomically (temp file + rename).
Exit status is nonzero with a machine-readable error JSON on stderr when a
module rejects the input.
"""

import argparse
import contextlib
import json
import math
import os
import pathlib
import sys

# Honor the thread cap before numpy is first imported (the package's lazy
# __init__ keeps it unloaded until the submodule imports below run).
_THREADS = os.environ.get("TRAPWALK_THREADS")
if _THREADS:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _THREADS)

import numpy as np

from . import classify as _classify
from . import coins as _coins
from . import spectral as _spectral
from . import walk as _walk
from .errors import TrapwalkError

__all__ = ["main", "build_parser"]

_ANGLE_ARGS = ("delta", "delta1", "delta2", "delta3", "eta", "phi",
               "alpha", "beta", "gamma", "phi_d", "phi_e", "phi_f",
               "phi_g", "phi_h")


def _atomic_write(path: str, write):
    """Create ``path`` by calling ``write(tmp)`` on a sibling temp file, then renaming.

    The temp file gets the mode a plain ``open`` would give (0o666 less the
    umask) and is removed if writing or renaming fails.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-trapwalk-{os.urandom(8).hex()}")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _emit(text: str, path: str | None):
    if path:
        text = text if text.endswith("\n") else text + "\n"
        _atomic_write(path, lambda tmp: pathlib.Path(tmp).write_text(text, encoding="utf-8"))
    else:
        print(text)


def _add_family_arguments(parser: argparse.ArgumentParser, required: bool = True):
    parser.add_argument("--family", required=required, choices=["I", "IIa", "IIb"],
                        help="coin family")
    parser.add_argument("--variant", type=int, choices=[1, 2], default=1,
                        help="rank-2 sub-family arrangement (IIb only)")
    for name in _ANGLE_ARGS:
        parser.add_argument(f"--{name.replace('_', '-')}", type=float, default=None)
    parser.add_argument("--degrees", action="store_true",
                        help="interpret all angle arguments as degrees")


def _family_params(args) -> _coins.FamilyParams:
    def angle(name, default=0.0):
        value = getattr(args, name)
        if value is None:
            return default
        return math.radians(value) if args.degrees else float(value)

    def required(name):
        if getattr(args, name) is None:
            raise TrapwalkError(f"--{name.replace('_', '-')} is required for family {args.family}")
        return angle(name)

    phases = {k: angle(k) for k in ("phi_d", "phi_e", "phi_f", "phi_g", "phi_h")}
    if args.family == "I":
        return _coins.TypeIParams(required("delta1"), required("delta2"), **phases)
    if args.family == "IIa":
        return _coins.TypeIIaParams(required("delta1"), required("delta2"),
                                    required("delta3"), required("eta"), **phases)
    return _coins.TypeIIbParams(
        variant=args.variant, delta=required("delta"), phi=angle("phi"),
        alpha=angle("alpha"), beta=angle("beta"), gamma=angle("gamma"),
        phi_f=angle("phi_f"),
    )


def _cmd_coin(args) -> int:
    params = _family_params(args)
    coin = _coins.coin_for(params)
    _emit(_coins.coin_to_json(coin, family=params.family, params=params), args.output)
    return 0


def _cmd_classify(args) -> int:
    coin = _coins.read_coin_json(args.input)
    result = _classify.classify_coin(coin, rank_tol=args.rank_tol, seed=args.seed)
    _emit(_classify.classification_to_json(result), args.output)
    return 0


def _cmd_escape(args) -> int:
    coin = _coins.read_coin_json(args.input)
    basis = _classify.escaping_subspace(coin)
    doc = {
        "dimension": basis.shape[1],
        "basis": [
            [[float(z.real), float(z.imag)] for z in basis[:, i]]
            for i in range(basis.shape[1])
        ],
    }
    _emit(json.dumps(doc, indent=2), args.output)
    return 0


def _parse_initial(text: str) -> np.ndarray:
    return _coins.complex_from_pairs(json.loads(text), 4, "initial state")


def _run_simulation(coin, initial, steps, snapshot_times, outdir, floor=0.0):
    os.makedirs(outdir, exist_ok=True)
    traj = _walk.simulate(coin, _walk.initial_state(initial), steps,
                          snapshot_times=snapshot_times)
    _atomic_write(os.path.join(outdir, "trajectory.csv"),
                  lambda tmp: _walk.write_trajectory_csv(tmp, traj))
    for t, snap in sorted(traj.snapshots.items()):
        _atomic_write(os.path.join(outdir, f"dist_t{t}.csv"),
                      lambda tmp: _walk.write_distribution_csv(tmp, snap, floor=floor))
    return traj


def _cmd_simulate(args) -> int:
    _walk.check_floor(args.floor)
    coin = _coins.read_coin_json(args.input)
    initial = _parse_initial(args.initial)
    snaps = [int(t) for t in args.snapshots.split(",")] if args.snapshots else [args.steps]
    _run_simulation(coin, initial, args.steps, snaps, args.outdir, floor=args.floor)
    return 0


def _dispersion_from_coin(coin) -> "_spectral.DispersionSpec":
    result = _classify.classify_coin(coin)
    if not result.trapping:
        raise TrapwalkError("coin is not trapping; no trapping dispersion to report")
    if result.fully_trapped:
        raise TrapwalkError("fully trapped coin: the spectrum is flat, no dispersion")
    if result.params is None:
        raise TrapwalkError(f"cannot derive a dispersion for family {result.family}")
    return _spectral.dispersion_spec(result.params)


def _resolve_spec(args) -> "_spectral.DispersionSpec":
    if args.input:
        return _dispersion_from_coin(_coins.read_coin_json(args.input))
    if args.family is None:
        raise TrapwalkError("give either --input coin.json or family parameters")
    return _spectral.dispersion_spec(_family_params(args))


def _cmd_spectrum(args) -> int:
    n = args.grid
    if n < 1:
        raise ValueError(f"--grid must be at least 1, got {n}")
    spec = _resolve_spec(args)
    ks = -math.pi + 2.0 * math.pi * (np.arange(n) + 0.5) / n
    kx, ky = (k.ravel() for k in np.meshgrid(ks, ks, indexing="ij"))
    columns = (kx, ky, _spectral.omega(spec, kx, ky),
               *_spectral.group_velocity(spec, kx, ky), _spectral.hessian_det(spec, kx, ky))
    lines = ["kx,ky,omega,vx,vy,detH"]
    lines.extend(",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns)))
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_region(args) -> int:
    spec = _resolve_spec(args)
    _emit(_spectral.region_to_json(_spectral.spread_region(spec)), args.output)
    return 0


def _cmd_areasweep(args) -> int:
    grid, table = _spectral.area_sweep(args.n)
    lines = ["delta1,delta2,S"]
    for i, d1 in enumerate(grid):
        for j, d2 in enumerate(grid):
            if i == j:
                continue  # the family excludes the diagonal
            lines.append(f"{float(d1)!r},{float(d2)!r},{float(table[i, j])!r}")
    _emit("\n".join(lines), args.output)
    return 0


def _figure_configs():
    quarter = math.pi / 4.0
    fig2_params = _coins.TypeIParams(math.pi / 3.0, quarter)
    fig4_params = _coins.TypeIIaParams(math.pi / 6.0, quarter, quarter, math.pi)
    fig6_params = _coins.TypeIIbParams(variant=1, delta=quarter)
    return {
        "fig2": dict(
            params=fig2_params,
            initial=np.array([0.5, 0.5j, 0.5j, 0.5]),
            steps=50, snapshots=(50,),
        ),
        "fig4": dict(
            params=fig4_params,
            initial=_coins.escaping_state(fig4_params),
            steps=200, snapshots=(50,),
        ),
        "fig6": dict(
            params=fig6_params,
            initial=np.array([0.5, 0.5, 0.5, 0.5j]),
            steps=100, snapshots=(50,),
        ),
    }


def _cmd_figure(args) -> int:
    _walk.check_floor(args.floor)
    config = _figure_configs()[args.name]
    params = config["params"]
    coin = _coins.coin_for(params)
    outdir = args.outdir or args.name
    os.makedirs(outdir, exist_ok=True)
    _emit(_coins.coin_to_json(coin, family=params.family, params=params),
          os.path.join(outdir, "coin.json"))
    region = _spectral.spread_region(_spectral.dispersion_spec(params))
    _emit(_spectral.region_to_json(region), os.path.join(outdir, "region.json"))
    _run_simulation(coin, config["initial"], config["steps"], config["snapshots"],
                    outdir, floor=args.floor)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trapwalk",
        description="Trapping coins of the four-state quantum walk on the square lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coin = sub.add_parser("coin", help="construct a family coin as JSON")
    _add_family_arguments(p_coin)
    p_coin.add_argument("-o", "--output", help="path for the coin JSON (default stdout)")
    p_coin.set_defaults(func=_cmd_coin)

    p_cls = sub.add_parser("classify", help="classify a coin JSON")
    p_cls.add_argument("-i", "--input", required=True, help="coin JSON path")
    p_cls.add_argument("-o", "--output")
    p_cls.add_argument("--seed", type=int, default=_classify._DEFAULT_SEED,
                       help="seed for the momentum sampling")
    p_cls.add_argument("--rank-tol", type=float, default=1e-8)
    p_cls.set_defaults(func=_cmd_classify)

    p_esc = sub.add_parser("escape", help="escaping-subspace basis of a coin JSON")
    p_esc.add_argument("-i", "--input", required=True)
    p_esc.add_argument("-o", "--output")
    p_esc.set_defaults(func=_cmd_escape)

    p_sim = sub.add_parser("simulate", help="run the walk and write CSV artifacts")
    p_sim.add_argument("-i", "--input", required=True, help="coin JSON path")
    p_sim.add_argument("--initial", required=True,
                       help='coin state as JSON, e.g. "[[0.5,0],[0,0.5],[0,0.5],[0.5,0]]"')
    p_sim.add_argument("--steps", type=int, required=True)
    p_sim.add_argument("--snapshots", help="comma-separated times for dist_t{t}.csv")
    p_sim.add_argument("--floor", type=float, default=0.0,
                       help="omit distribution rows below this probability")
    p_sim.add_argument("--outdir", default=".")
    p_sim.set_defaults(func=_cmd_simulate)

    p_spec = sub.add_parser("spectrum", help="dispersion data over a momentum grid")
    _add_family_arguments(p_spec, required=False)
    p_spec.add_argument("-i", "--input", help="coin JSON instead of family parameters")
    p_spec.add_argument("--grid", type=int, default=64)
    p_spec.add_argument("-o", "--output")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_reg = sub.add_parser("region", help="spreading-region geometry as JSON")
    _add_family_arguments(p_reg, required=False)
    p_reg.add_argument("-i", "--input", help="coin JSON instead of family parameters")
    p_reg.add_argument("-o", "--output")
    p_reg.set_defaults(func=_cmd_region)

    p_area = sub.add_parser("areasweep", help="covered-area table of the full-rank family")
    p_area.add_argument("--n", type=int, default=50, help="grid points per axis")
    p_area.add_argument("-o", "--output")
    p_area.set_defaults(func=_cmd_areasweep)

    p_fig = sub.add_parser("figure", help="run a named end-to-end preset")
    p_fig.add_argument("name", choices=["fig2", "fig4", "fig6"])
    p_fig.add_argument("--outdir", help="output directory (default: the preset name)")
    p_fig.add_argument("--floor", type=float, default=0.0)
    p_fig.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrapwalkError, ValueError, OSError, KeyError) as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(doc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
