"""Command-line front end: coins, classification, spectra, simulations, figures.

Angles are radians unless --degrees is given.  Complex numbers in JSON are
[re, im] pairs.  Output files are written atomically (temp file + rename).
Exit status is nonzero with a machine-readable error JSON on stderr when a
module rejects the input.
"""

import argparse
import contextlib
import dataclasses
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from . import _text
from . import classify as _classify
from . import coins as _coins
from . import spectral as _spectral
from . import walk as _walk
from .errors import TrapwalkError

__all__ = ["main", "build_parser"]

# The family parameter classes by their --family name: I, IIa, IIb.
_FAMILIES = {cls.family.removeprefix("Type"): cls
             for cls in (_coins.TypeIParams, _coins.TypeIIaParams, _coins.TypeIIbParams)}
# Every field of every family, each with a flag of its own, in first-seen order.
_FIELDS = tuple(dict.fromkeys(f.name for cls in _FAMILIES.values()
                              for f in dataclasses.fields(cls)))


def _atomic_write(path: str, write):
    """Create ``path`` by calling ``write(tmp)`` on a sibling temp file, then renaming.

    The temp file gets the mode a plain ``open`` would give (0o666 less the
    umask) and is removed if writing or renaming fails.  An error creating
    it names ``path``.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-trapwalk-{os.urandom(8).hex()}")
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError as exc:
        # a missing or unwritable directory: name the path given, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _emit(chunks, path: str | None):
    """Write the byte ``chunks``, ASCII that ends in a line end, to ``path`` or stdout."""
    if path:
        _atomic_write(path, lambda tmp: _text.write(tmp, chunks))
    else:
        sys.stdout.writelines(chunk.decode() for chunk in chunks)


def _emit_json(text: str, path: str | None):
    _emit([(text + "\n").encode()], path)


def _add_family_arguments(parser: argparse.ArgumentParser, required: bool = True):
    parser.add_argument("--family", required=required, choices=list(_FAMILIES),
                        help="coin family")
    parser.add_argument("--variant", type=int, choices=[1, 2],
                        help="rank-2 sub-family arrangement (IIb only; default 1)")
    # every other field is an angle
    for name in _FIELDS:
        if name != "variant":
            parser.add_argument(f"--{name.replace('_', '-')}", type=float)
    # None unless given, like every family flag
    parser.add_argument("--degrees", action="store_true", default=None,
                        help="interpret all angle arguments as degrees")


def _given(args, names) -> list[str]:
    """The flags of the fields or options ``names`` given on the command line."""
    return [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]


def _family_params(args) -> _coins.FamilyParams:
    """The family's parameters; a field with no default needs its flag, and
    the flag of a field the family does not have is an error."""
    cls, values = _FAMILIES[args.family], {}
    names = [field.name for field in dataclasses.fields(cls)]
    if extra := _given(args, [name for name in _FIELDS if name not in names]):
        raise TrapwalkError(f"family {args.family} has no {', '.join(extra)}")
    for field in dataclasses.fields(cls):
        value = getattr(args, field.name)
        if field.name == "variant":
            value = 1 if value is None else value
        elif value is None and field.default is dataclasses.MISSING:
            raise TrapwalkError(f"--{field.name.replace('_', '-')} is required "
                                f"for family {args.family}")
        elif value is None:
            value = field.default
        elif args.degrees:
            value = math.radians(value)
        values[field.name] = value
    return cls(**values)


def _cmd_coin(args) -> int:
    params = _family_params(args)
    coin = _coins.coin_for(params)
    _emit_json(_coins.coin_to_json(coin, family=params.family, params=params), args.output)
    return 0


def _cmd_classify(args) -> int:
    coin = _coins.read_coin_json(args.input)
    result = _classify.classify_coin(coin)
    _emit_json(_classify.classification_to_json(result), args.output)
    return 0


def _cmd_escape(args) -> int:
    coin = _coins.read_coin_json(args.input)
    basis = _classify.escaping_subspace(coin)
    doc = {
        "dimension": basis.shape[1],
        "basis": [_coins._complex_pairs(column) for column in basis.T],
    }
    _emit_json(json.dumps(doc, indent=2), args.output)
    return 0


def _parse_initial(text: str) -> np.ndarray:
    return _coins.complex_from_pairs(json.loads(text), 4, "initial state")


def _check_outdir(outdir):
    """Raise unless ``outdir`` names a directory that exists or can be made;
    creates nothing."""
    if not outdir:
        raise ValueError("--outdir must name a directory, got ''")
    nearest = os.path.abspath(outdir)
    while not os.path.exists(nearest):
        nearest = os.path.dirname(nearest)
    if not os.path.isdir(nearest):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), outdir)


def _run_simulation(coin, initial, steps, snapshot_times, outdir, floor=0.0):
    # An outdir that cannot be made would throw the walk away: check it
    # first, creating nothing, as simulate checks the steps and snapshot times.
    _check_outdir(outdir)
    traj = _walk.simulate(coin, _walk.initial_state(initial), steps,
                          snapshot_times=snapshot_times)
    os.makedirs(outdir, exist_ok=True)
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
    try:
        snaps = [int(t) for t in args.snapshots.split(",")] if args.snapshots else [args.steps]
    except ValueError:
        raise ValueError(f"--snapshots must be comma-separated integers, "
                         f"got {args.snapshots!r}") from None
    _run_simulation(coin, initial, args.steps, snaps, args.outdir, floor=args.floor)
    return 0


def _dispersion_from_coin(coin) -> "_spectral.DispersionSpec":
    result = _classify.classify_coin(coin)
    if not result.trapping:
        raise TrapwalkError("coin is not trapping; no trapping dispersion to report")
    if result.fully_trapped:
        raise TrapwalkError("fully trapped coin: the spectrum is flat, no dispersion")
    return _spectral._coin_dispersion(coin, result.eigenphases[0][0], result.family)


def _resolve_spec(args) -> "_spectral.DispersionSpec":
    if args.input is not None:
        if given := _given(args, ("family", *_FIELDS, "degrees")):
            raise TrapwalkError(f"--input takes no family flags, got {', '.join(given)}")
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
    # one cosine or sine per axis value, broadcast to the (n, n) grids: each
    # grid value is the same operation on the same inputs as on a meshgrid
    kx, ky = ks[:, None], ks[None, :]
    grids = [_spectral.omega(spec, kx, ky), *_spectral.group_velocity(spec, kx, ky),
             _spectral.hessian_det(spec, kx, ky)]
    _emit(_text.csv_lines("kx,ky,omega,vx,vy,detH", (ks, ks), grids, "\n"), args.output)
    return 0


def _cmd_region(args) -> int:
    spec = _resolve_spec(args)
    _emit_json(_spectral.region_to_json(_spectral.spread_region(spec)), args.output)
    return 0


def _cmd_areasweep(args) -> int:
    grid, table = _spectral.area_sweep(args.n)
    # the family excludes the diagonal
    off_diagonal = ~np.eye(len(grid), dtype=bool)
    _emit(_text.csv_lines("delta1,delta2,S", (grid, grid), [table], "\n", off_diagonal),
          args.output)
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
    outdir = args.name if args.outdir is None else args.outdir
    _check_outdir(outdir)
    os.makedirs(outdir, exist_ok=True)
    _emit_json(_coins.coin_to_json(coin, family=params.family, params=params),
               os.path.join(outdir, "coin.json"))
    region = _spectral.spread_region(_spectral.dispersion_spec(params))
    _emit_json(_spectral.region_to_json(region), os.path.join(outdir, "region.json"))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrapwalkError, ValueError, OSError, KeyError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        doc = {"error": kind, "message": str(exc)}
        print(json.dumps(doc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
