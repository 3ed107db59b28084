"""Parity snapshot of trapwalk's numeric outputs on a fixed set of 3307 coins.

    python tools/parity.py --out DIR
    python tools/parity.py --diff OLD_DIR NEW_DIR

``--out`` imports trapwalk from the ``src`` directory of the tree this file
sits in, so copying the file into another checkout snapshots that tree.
The coin set is fixed: the 3000 criterion-4 draws (seed 104, 1000 per
family), 300 Haar-random coins (seed 5), Grover, H (x) H and the boundary
coins ``DEGENERATE_COINS``; the draws come from ``tests/conftest.py``.
DIR receives

* ``classify.json``: the classify JSON of every coin, or its error;
* ``escape.json``: the escaping-subspace basis of every coin, or its error;
* ``dispersion.json``: the ``DispersionSpec`` fields that ``trapwalk spectrum -i``
  and ``region -i`` read off every coin and off the coin times a fixed random
  global phase (seed 17), or their errors;
* ``arrays.npz``: the localized cells at every eigenphase the classification
  reports, chiral partners included, the trapped-weight operator at
  grid 64 (NaN where the coin does not trap), and the ``stationary_cell``
  pair of each criterion-4 draw (``criterion_params``): its amplitudes,
  norms and eigenphases, shapes (3000, 2, 8), (3000, 2) and (3000, 2);
* ``walk.npz``: P(0, 0, t) and every snapshot of seven ``simulate`` runs
  (``walk_runs``): for the Grover, fig2, fig4 and fig6 coins, 150 steps from
  one fixed coin state with a snapshot at the end; the fig4 coin (a complex
  product) for 150 steps from the two blocks of its first stationary cell,
  snapshots at t = 76 and 151; and Grover (a real product) and the fig4
  coin for 203 steps from the fixed state, snapshots at 101 and 203, which
  end sweeps of a real and of a complex product short of their depth.  It
  also holds ``fig4_cell_field``, the dense ``WalkState.field`` of that
  two-block start after 20 ``walk.step`` calls, and ``coverage``
  (``walk_coverage``), the ``coverage_fraction`` of the fig2, fig4 and
  fig6 snapshots at inflations 1.0, 1.05 and 1.2 and floors 0 and 1e-5;
* ``near.json``: the classify JSON, or its error, of the 2700 coins of a
  seeded near-trapping scan (``near_coins``), one line per coin;
* ``near_escape.json``: the escaping-subspace basis, or its error, of the same
  2700 coins in the same order, one line per coin.  The scan is the only set
  here with coins whose first reported eigenphase is the partner of the
  member the flat-band decision solved;
* ``boundary.json``: the classify JSON, or its error, of 100 seeded
  random-phase family coins with one angle at an endpoint of its range
  (``boundary_coins``), one line per coin;
* ``text.json``: the sha256 and size of every file the text-writing CLI
  commands of ``text_commands`` write: the benchmark's long walk (Grover, 500
  steps, snapshots at 250 and 500), ``figure fig2|fig4|fig6``, ``figure fig2
  --floor 1e-9`` (the distribution's floor path), ``spectrum --grid 128`` and
  ``region`` for the Grover, fig2, fig4 (Type IIa) and fig6 (Type IIb, rho_y
  = 0) coins and for ``PHASED_TYPE_I``, a Type I coin with nonzero phases,
  and ``areasweep --n 50``.

``--diff`` compares two snapshots: the JSON files byte for byte, the cells,
operators, stationary cells and walks bit for bit (with the number of rows
of each array that differ and their largest deviation, NaN-aware, and the
largest deviation of each walk array that differs), the escaping-subspace
projectors to their largest entrywise deviation, and the dispersions to
their largest deviation in rho, e^{i beta}, e^{i phi}, and in omega, group
velocity and area as this tree computes them.  It lists each near-trapping coin whose
family or ``marginal`` flag changed, each near-trapping coin whose escaping
projector moved, with its largest deviation, and each boundary coin whose
family or whether it has ``params`` changed.  It exits nonzero when the
classify JSON, the cells, the operators, the stationary cells, the walks, the
near-trapping or the boundary JSON differ (an array or file that one snapshot
lacks differs), an escaping subspace changes dimension or starts or stops
failing, a dispersion changes kind, or any file of ``text.json`` differs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def criterion_params() -> list:
    """The family parameters of the 3000 criterion-4 draws (seed 104, 1000 per family)."""
    from conftest import DRAWERS

    rng = np.random.default_rng(104)
    return [drawer(rng) for drawer in DRAWERS.values() for _ in range(1000)]


def coin_set() -> list[np.ndarray]:
    from trapwalk import coins
    from conftest import DEGENERATE_COINS, hadamard_tensor_coin, random_unitary

    out = [coins.coin_for(params) for params in criterion_params()]
    rng = np.random.default_rng(5)
    out += [random_unitary(rng) for _ in range(300)]
    return out + [coins.grover_coin(), hadamard_tensor_coin()] + DEGENERATE_COINS


def near_coins():
    """(seed, base, index) and coin of the near-trapping scan, in order.

    For seeds 0 and 2 the bases are Grover, then five Type IIa and three Type I
    draws; each is perturbed 150 times by expm(i eps H), eps log-uniform in
    [1e-11, 3e-8].  The same recipe as ``_scan_coin`` in ``tests/test_laurent.py``,
    kept here so that the tool runs in a tree without it.
    """
    from trapwalk import coins
    from conftest import DRAWERS, perturbed

    for seed in (0, 2):
        rng = np.random.default_rng(seed)
        bases = [coins.grover_coin()] + [coins.coin_for(DRAWERS[family](rng))
                                         for family in ["TypeIIa"] * 5 + ["TypeI"] * 3]
        for b, k in itertools.product(range(len(bases)), range(150)):
            eps = float(np.exp(rng.uniform(np.log(1e-11), np.log(3e-8))))
            yield (seed, b, k), perturbed(bases[b], eps, rng)


# The angles of each family that may sit at an endpoint, 0 or pi/2, of their range.
_ENDPOINT_ANGLES = {"TypeI": ("delta1", "delta2"), "TypeIIa": ("delta2", "delta3"),
                    "TypeIIb": ("delta",)}


def boundary_coins():
    """(family, angle, endpoint, index) and coin of the boundary set, in order.

    For each angle of ``_ENDPOINT_ANGLES``, ten coins with that angle at 0 and
    ten at pi/2.  The other angles are uniform in [0.1, pi/2 - 0.1], the phases
    in [0, 2 pi), Type IIa's eta in +-[0.1, pi] and Type IIb's phi in [0, pi),
    all from one generator (seed 23).  Built with the public family
    constructors only, so the tool runs in older trees too.
    """
    from trapwalk import coins

    rng = np.random.default_rng(23)
    for family, names in _ENDPOINT_ANGLES.items():
        for name, end, k in itertools.product(names, (0.0, np.pi / 2), range(10)):
            angles = dict(zip(("delta1", "delta2", "delta3"), rng.uniform(0.1, np.pi / 2 - 0.1, 3)))
            angles[name] = end
            phases = rng.uniform(0, 2 * np.pi, 5)
            if family == "TypeI":
                params = coins.TypeIParams(angles["delta1"], angles["delta2"], *phases)
            elif family == "TypeIIa":
                eta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, np.pi))
                params = coins.TypeIIaParams(angles["delta1"], angles["delta2"], angles["delta3"],
                                             eta, *phases)
            else:
                params = coins.TypeIIbParams(
                    variant=int(rng.integers(1, 3)), delta=end, phi=float(rng.uniform(0, np.pi)),
                    alpha=phases[0], beta=phases[1], gamma=phases[2], phi_f=phases[3])
            yield (family, name, float(end), k), coins.coin_for(params)


# TypeIParams (delta1, delta2, phi_d .. phi_h) of the phased Type I spectrum coin
PHASED_TYPE_I = (1.0, 0.4, 0.3, 1.1, 2.0, 0.7, 1.9)


def text_commands(inputs: Path) -> dict[str, list[str]]:
    """CLI argument lists by name; each writes into the directory ``{out}``.

    The coin JSON files of the spectra (Grover, the fig2, fig4 and fig6 coins
    and ``PHASED_TYPE_I``) are written to ``inputs`` first.
    """
    from trapwalk import cli, coins

    configs = cli._figure_configs()
    spectrum_coins = {"grover": coins.grover_coin()}
    spectrum_coins.update((name, coins.coin_for(configs[name]["params"]))
                          for name in ("fig2", "fig4", "fig6"))
    spectrum_coins["phased_type_i"] = coins.coin_for(coins.TypeIParams(*PHASED_TYPE_I))
    paths = {name: str(inputs / f"{name}.json") for name in spectrum_coins}
    for name, coin in spectrum_coins.items():
        coins.write_coin_json(paths[name], coin, family="TypeIIa" if name == "grover" else None)
    commands = {"walk_long": ["simulate", "-i", paths["grover"], "--initial",
                              "[[0.5, 0], [0, 0.5], [0, 0.5], [0.5, 0]]", "--steps", "500",
                              "--snapshots", "250,500", "--outdir", "{out}"]}
    commands.update((f"figure_{name}", ["figure", name, "--outdir", "{out}"])
                    for name in ("fig2", "fig4", "fig6"))
    commands["figure_fig2_floor"] = ["figure", "fig2", "--floor", "1e-9", "--outdir", "{out}"]
    for name, path in paths.items():
        commands[f"spectrum_{name}"] = ["spectrum", "-i", path, "--grid", "128",
                                        "-o", "{out}/spectrum.csv"]
        commands[f"region_{name}"] = ["region", "-i", path, "-o", "{out}/region.json"]
    commands["areasweep"] = ["areasweep", "--n", "50", "-o", "{out}/areasweep.csv"]
    return commands


def _text_digests() -> dict:
    """sha256 and size of every file ``text_commands`` write, by command/file."""
    from trapwalk import cli

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, argv in text_commands(root).items():
            out = root / name
            out.mkdir()
            if cli.main([arg.replace("{out}", str(out)) for arg in argv]) != 0:
                raise RuntimeError(f"trapwalk {' '.join(argv)} failed")
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                digests[f"{name}/{path.name}"] = {"sha256": hashlib.sha256(data).hexdigest(),
                                                  "size": len(data)}
    return digests


def _classified(coin) -> str:
    from trapwalk import classify

    try:
        return classify.classification_to_json(classify.classify_coin(coin))
    except Exception as exc:
        return _error(exc)


def _escaped(coin) -> str:
    from trapwalk import classify

    try:
        basis = classify.escaping_subspace(coin)
    except Exception as exc:
        return _error(exc)
    return json.dumps([[[z.real, z.imag] for z in col] for col in basis.T])


def walk_runs():
    """(name, coin, initial state, steps, snapshot times) of the ``walk.npz``
    runs, whose arrays are ``{name}_p_origin`` and ``{name}_prob_t{t}``."""
    from trapwalk import cli, coins, walk

    start = walk.initial_state([0.5, 0.5j, 0.5j, 0.5])
    configs = cli._figure_configs()
    runs = [("grover", coins.grover_coin(), start, 150, (150,))]
    runs += [(name, coins.coin_for(config["params"]), start, 150, (150,))
             for name, config in configs.items()]
    fig4 = configs["fig4"]["params"]
    cell = walk.state_from_cell(coins.stationary_cell(fig4)[0])
    runs.append(("fig4_cell", coins.coin_for(fig4), cell, 150, (76, 151)))
    runs.append(("grover_203", coins.grover_coin(), start, 203, (101, 203)))
    runs.append(("fig4_203", coins.coin_for(fig4), start, 203, (101, 203)))
    return runs


def walk_coverage(snapshots: dict) -> np.ndarray:
    """``coverage_fraction`` of the fig2, fig4 and fig6 ``snapshots`` (by run
    name) in their spreading regions, shape (3 figures, 3 inflations, 2 floors)."""
    from trapwalk import cli, spectral, walk

    configs = cli._figure_configs()
    table = []
    for name in ("fig2", "fig4", "fig6"):
        region = spectral.spread_region(spectral.dispersion_spec(configs[name]["params"]))
        table.append([[walk.coverage_fraction(snapshots[name], region, inflation, floor)
                       for floor in (0.0, 1e-5)] for inflation in (1.0, 1.05, 1.2)])
    return np.array(table)


def _error(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def _dispersion(coin) -> dict:
    from trapwalk import cli

    try:
        spec = cli._dispersion_from_coin(coin)
    except Exception as exc:
        return json.loads(_error(exc))
    return vars(spec)


def snapshot(out: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from trapwalk import classify, coins, laurent, walk

    out.mkdir(parents=True, exist_ok=True)
    classified, escapes, dispersions, cells, weights = [], [], [], [], []
    rng = np.random.default_rng(17)
    for coin in coin_set():
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        dispersions.append(json.dumps([_dispersion(coin), _dispersion(phase * coin)]))
        try:
            result = classify.classify_coin(coin)
            classified.append(classify.classification_to_json(result))
        except Exception as exc:
            result = None
            classified.append(_error(exc))
        escapes.append(_escaped(coin))
        amps = []
        if result is not None and result.trapping:
            for lam, _ in result.eigenphases:
                amps += [cell.amplitudes for cell in laurent.localized_cells(coin, lam)]
            weights.append(classify.trapped_weight_operator(coin, grid_n=64))
        else:
            weights.append(np.full((4, 4), np.nan, dtype=complex))
        cells.append(np.array(amps, dtype=complex).reshape(-1, 8))
    (out / "classify.json").write_text("\n".join(classified) + "\n")
    (out / "escape.json").write_text("\n".join(escapes) + "\n")
    (out / "dispersion.json").write_text("\n".join(dispersions) + "\n")
    pairs = [coins.stationary_cell(params) for params in criterion_params()]
    np.savez(out / "arrays.npz", weights=np.array(weights),
             cell_counts=np.array([len(c) for c in cells]), cells=np.concatenate(cells),
             stationary_amplitudes=np.array([[c.amplitudes for c in pair] for pair in pairs]),
             stationary_norms=np.array([[c.norm for c in pair] for pair in pairs]),
             stationary_eigenphases=np.array([[c.eigenphase for c in pair] for pair in pairs],
                                             dtype=complex))
    walks, ends = {}, {}
    for name, coin, start, steps, times in walk_runs():
        traj = walk.simulate(coin, start, steps, snapshot_times=times)
        walks[f"{name}_p_origin"] = traj.p_origin
        walks.update((f"{name}_prob_t{t}", traj.snapshots[t].prob) for t in times)
        ends[name] = traj.snapshots[times[-1]]
        if name == "fig4_cell":
            state = start
            for _ in range(20):
                state = walk.step(state, coin)
            walks["fig4_cell_field"] = state.field
    walks["coverage"] = walk_coverage(ends)
    np.savez(out / "walk.npz", **walks)
    counts = []
    for name, scan in (("near.json", near_coins), ("boundary.json", boundary_coins)):
        lines = [json.dumps({"coin": key, "result": json.loads(_classified(coin))})
                 for key, coin in scan()]
        (out / name).write_text("\n".join(lines) + "\n")
        counts.append(len(lines))
    lines = [_escaped(coin) for _, coin in near_coins()]
    (out / "near_escape.json").write_text("\n".join(lines) + "\n")
    texts = _text_digests()
    (out / "text.json").write_text(json.dumps(texts, indent=1) + "\n")
    print(f"{len(classified)} coins, {counts[0]} near-trapping and {counts[1]} boundary "
          f"coins and {len(texts)} CLI text files written to {out}")


def _projectors(path: Path) -> list[np.ndarray | None]:
    out = []
    for line in path.read_text().splitlines():
        doc = json.loads(line)
        if isinstance(doc, dict):
            out.append(None)
            continue
        basis = np.array([[complex(re, im) for re, im in col] for col in doc]).reshape(-1, 4).T
        out.append(basis @ basis.conj().T)
    return out


def diff(old: Path, new: Path) -> int:
    status = 0
    for name in ("classify.json", "escape.json", "dispersion.json"):
        a, b = (d.joinpath(name).read_text().splitlines() for d in (old, new))
        differing = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        print(f"{name}: {differing} of {len(b)} lines differ")
        status |= name == "classify.json" and differing > 0
    with np.load(old / "arrays.npz") as a, np.load(new / "arrays.npz") as b:
        for key in ("cell_counts", "cells", "weights", "stationary_amplitudes",
                    "stationary_norms", "stationary_eigenphases"):
            if key not in a.files or key not in b.files:
                print(f"{key}: missing from {'OLD' if key not in a.files else 'NEW'}")
                status = 1
                continue
            same = a[key].shape == b[key].shape and a[key].tobytes() == b[key].tobytes()
            print(f"{key}: {'bit-identical' if same else 'DIFFERENT'}")
            status |= not same
            if key != "cell_counts" and not same and a[key].shape == b[key].shape:
                dev = _deviations(a[key], b[key])
                print(f"{key}: {np.count_nonzero(dev)} of {len(dev)} differ, max deviation "
                      f"{dev.max():.1e}, rows above 1e-8: {np.flatnonzero(dev > 1e-8).tolist()}")
    with np.load(old / "walk.npz") as a, np.load(new / "walk.npz") as b:
        keys = sorted(set(a.files) | set(b.files))
        differing = [key for key in keys if key not in a.files or key not in b.files
                     or a[key].tobytes() != b[key].tobytes()]
        print(f"walks: {len(differing)} of {len(keys)} arrays differ {differing}")
        for key in differing:
            if key in a.files and key in b.files and a[key].shape == b[key].shape:
                print(f"walk {key}: max deviation {np.abs(a[key] - b[key]).max():.1e}")
            else:
                print(f"walk {key}: missing or reshaped")
        status |= bool(differing)
    status |= _diff_escapes(old, new, "escape.json")
    status |= _diff_scan(old, new, "near.json", "marginal")
    keys = [json.loads(line)["coin"] for line in (new / "near.json").read_text().splitlines()]
    status |= _diff_escapes(old, new, "near_escape.json", keys)
    status |= _diff_scan(old, new, "boundary.json", "params")
    status |= _diff_texts(old / "text.json", new / "text.json")
    return int(status) | _diff_dispersions(old / "dispersion.json", new / "dispersion.json")


def _diff_escapes(old: Path, new: Path, name: str, keys=None) -> int:
    """The largest deviation between the escaping-subspace projectors of one file
    of two snapshots and, given the coins' ``keys``, each coin whose projector
    moved; 1 if the file is missing from either or a subspace changed dimension
    or started or stopped failing.
    """
    if not (old / name).exists() or not (new / name).exists():
        print(f"{name}: missing from {'OLD' if not (old / name).exists() else 'NEW'}")
        return 1
    deviation, moved, status = 0.0, [], 0
    for i, (p, q) in enumerate(zip(_projectors(old / name), _projectors(new / name))):
        # every projector is 4 x 4; its trace is the subspace's dimension
        if (p is None) != (q is None) or (p is not None
                                          and round(np.trace(p).real) != round(np.trace(q).real)):
            print(f"{name} {tuple(keys[i]) if keys else i}: escaping subspace changed "
                  f"dimension or failure")
            status = 1
        elif p is not None:
            dev = float(np.abs(p - q).max(initial=0.0))
            deviation = max(deviation, dev)
            if keys and dev > 0.0:
                moved.append((tuple(keys[i]), dev))
    print(f"{name} projectors: max deviation {deviation:.1e}"
          + (f", {len(moved)} of {len(keys)} coins moved" if keys else ""))
    for key, dev in moved:
        print(f"{name} {key}: projector deviation {dev:.1e}")
    return status


def _diff_texts(old: Path, new: Path) -> int:
    """List every CLI text file whose bytes differ or that one snapshot lacks; 1 if any."""
    a, b = (json.loads(path.read_text()) for path in (old, new))
    differing = [name for name in sorted(set(a) | set(b)) if a.get(name) != b.get(name)]
    print(f"text.json: {len(differing)} of {len(b)} files differ")
    for name in differing:
        sizes = [doc[name]["size"] if name in doc else "missing" for doc in (a, b)]
        print(f"text {name}: size {sizes[0]} -> {sizes[1]}")
    return int(bool(differing))


def _deviations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of each row (cell, or coin's operator) of two
    equal-shape arrays: NaN in both (a coin that does not trap) is none, NaN in one
    is infinite.
    """
    dev = np.abs(a - b).reshape(len(a), -1)
    dev[np.isnan(dev)] = np.inf
    dev[(np.isnan(a) & np.isnan(b)).reshape(dev.shape)] = 0.0
    return dev.max(axis=1, initial=0.0)


def _diff_scan(old: Path, new: Path, name: str, flag: str) -> int:
    """List the coins of one scan file whose family, or whether their result has
    a ``flag`` that is set, changed; 1 on any difference.
    """
    a, b = ((d / name).read_text().splitlines() for d in (old, new))
    differing = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    print(f"{name}: {differing} of {len(b)} lines differ")

    def label(doc):
        result = doc["result"]
        return result.get("family", result.get("error")), bool(result.get(flag))

    for x, y in zip(map(json.loads, a), map(json.loads, b)):
        if label(x) != label(y):
            print(f"{name} {tuple(y['coin'])}: (family, {flag}) {label(x)} -> {label(y)}")
    return int(differing > 0)


def _spec_lines(path: Path) -> list:
    return [spec for line in path.read_text().splitlines() for spec in json.loads(line)]


def _diff_dispersions(old: Path, new: Path) -> int:
    """Largest deviations between two snapshots' dispersions; 1 if a kind or refusal changed."""
    sys.path[:0] = [str(ROOT / "src")]
    from trapwalk import spectral

    ks = -np.pi + 2.0 * np.pi * (np.arange(8) + 0.5) / 8
    kx, ky = (k.ravel() for k in np.meshgrid(ks, ks, indexing="ij"))
    worst = dict.fromkeys(("rho", "e^{i beta}", "e^{i phi}", "omega", "v", "area"), 0.0)
    changed, compared = 0, 0
    for p, q in zip(_spec_lines(old), _spec_lines(new)):
        if "error" in p or "error" in q or p["kind"] != q["kind"]:
            changed += p != q and not ("error" in p and "error" in q)
            continue
        compared += 1
        p, q = spectral.DispersionSpec(**p), spectral.DispersionSpec(**q)
        for name, f in (("rho", lambda s: np.array([s.rho_x, s.rho_y])),
                        ("e^{i beta}", lambda s: np.exp(1j * s.beta)),
                        ("e^{i phi}", lambda s: np.exp(1j * np.array([s.phi_x, s.phi_y]))),
                        ("omega", lambda s: spectral.omega(s, kx, ky)),
                        ("v", lambda s: np.array(spectral.group_velocity(s, kx, ky))),
                        ("area", lambda s: spectral.spread_region(s).area)):
            dev = np.abs(f(p) - f(q))
            worst[name] = max(worst[name], float(np.nanmax(dev, initial=0.0)))
    print(f"dispersions: {compared} compared, {changed} changed kind or refusal; max deviation "
          + ", ".join(f"{name} {value:.1e}" for name, value in worst.items()))
    return int(changed > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="directory for the snapshot")
    group.add_argument("--diff", type=Path, nargs=2, metavar=("OLD", "NEW"),
                       help="compare two snapshot directories")
    args = parser.parse_args(argv)
    if args.out is not None:
        snapshot(args.out)
        return 0
    return diff(*args.diff)


if __name__ == "__main__":
    sys.exit(main())
