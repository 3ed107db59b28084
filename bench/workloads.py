"""The benchmark's three workloads: seeded inputs, one operation, its check.

Each workload draws every input from ``numpy.random.default_rng(seed)`` and
hands the library only the generated coins and states.  A workload runs in
passes; a pass is a list of items, each worth ``ops`` operations.  ``run``
is the timed call into trapwalk and ``check`` verifies its output exactly,
raising ``CheckFailed``; the caller counts both kinds of failure.  A traced
run makes ``trace_passes`` traced passes (each followed by an untraced one),
so that its per-layer counts are fixed by the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from trapwalk import classify, cli, coins, walk

MARGIN = 0.05  # distance from the family boundaries, as in the test suite
RANK = {"TypeI": 4, "TypeIIa": 3, "TypeIIb": 2}
GROVER = coins.TypeIIaParams(math.pi / 4, math.pi / 4, math.pi / 4, math.pi)
FIG2 = coins.TypeIParams(math.pi / 3, math.pi / 4)


class CheckFailed(Exception):
    pass


@dataclass
class Item:
    ops: int
    label: str
    coin: np.ndarray | None
    extra: dict = field(default_factory=dict)


def draw_type_i(rng) -> coins.TypeIParams:
    while True:
        d1, d2 = rng.uniform(MARGIN, np.pi / 2 - MARGIN, 2)
        if abs(d1 - d2) >= MARGIN:
            return coins.TypeIParams(d1, d2, *rng.uniform(0, 2 * np.pi, 5))


def draw_type_iia(rng) -> coins.TypeIIaParams:
    d1, d2, d3 = rng.uniform(MARGIN, np.pi / 2 - MARGIN, 3)
    eta = float(rng.choice([-1.0, 1.0]) * rng.uniform(MARGIN, np.pi))
    return coins.TypeIIaParams(d1, d2, d3, eta, *rng.uniform(0, 2 * np.pi, 5))


def draw_type_iib(rng) -> coins.TypeIIbParams:
    return coins.TypeIIbParams(
        variant=int(rng.integers(1, 3)),
        delta=float(rng.uniform(MARGIN, np.pi / 2 - MARGIN)),
        phi=float(rng.uniform(0, np.pi - MARGIN)),
        alpha=float(rng.uniform(0, 2 * np.pi)),
        beta=float(rng.uniform(0, 2 * np.pi)),
        gamma=float(rng.uniform(0, 2 * np.pi)),
        phi_f=float(rng.uniform(0, 2 * np.pi)),
    )


DRAWERS = {"TypeI": draw_type_i, "TypeIIa": draw_type_iia, "TypeIIb": draw_type_iib}


def haar_unitary(rng, n: int = 4) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, R's diagonal phases removed."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def unit_state(rng) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def _family(params) -> str:
    return {coins.TypeIParams: "TypeI", coins.TypeIIaParams: "TypeIIa",
            coins.TypeIIbParams: "TypeIIb"}[type(params)]


class ClassifySweep:
    """Screening parameter space: one caller classifies a stream of coins.

    All of the work is in classify/laurent/linalg/spectral.momentum_operator
    and none in walk.  Each pass holds 30% of each trapping family and 10%
    Haar-random coins, which leave after point-spectrum sampling (about a
    quarter of a family coin's cost): a speed-up confined to laurent shows
    diluted, one in point-spectrum sampling shows on every coin.
    """

    trace_passes = 10

    def __init__(self, seed: int, workdir: str, tiny: bool, inject_bad: int = 0):
        self.rng = np.random.default_rng(seed)
        self.per_family = 3 if tiny else 30
        self.haar = 1 if tiny else 10
        self.inject_bad = inject_bad
        self._pending = self._draw_pass()

    def _draw_pass(self) -> list[Item]:
        items = [Item(1, "NotTrapping", haar_unitary(self.rng)) for _ in range(self.haar)]
        for family, draw in DRAWERS.items():
            items.extend(Item(1, family, coins.coin_for(draw(self.rng)))
                         for _ in range(self.per_family))
        order = self.rng.permutation(len(items))
        return [items[i] for i in order]

    def warmup_item(self) -> Item:
        return Item(1, "TypeI", coins.coin_for(draw_type_i(self.rng)))

    def next_pass(self) -> list[Item]:
        items, self._pending = self._pending, None
        if items is None:
            return self._draw_pass()
        for item in items[:self.inject_bad]:  # smoke test only: a non-unitary coin
            item.coin = 1.5 * item.coin
        return items

    def run(self, item: Item):
        return classify.classify_coin(item.coin)

    def check(self, item: Item, result):
        if result.family != item.label:
            raise CheckFailed(f"classified {result.family}, drawn {item.label}")
        if item.label != "NotTrapping" and result.rank_a != RANK[item.label]:
            raise CheckFailed(f"{item.label} coin has rank_a {result.rank_a}")


class WalkLong:
    """The memory-bound end of walk: one long in-process ``simulate`` CLI call.

    The Grover coin runs 500 steps from a seeded coin state.  The dense
    (2t+3)^2 window reaches 64 MB at t = 500, far beyond the 4 MB L2, while
    only a quarter of its sites can be occupied; writing the t = 500
    distribution (about 1M rows) is part of the call.  No classification.
    """

    trace_passes = 1

    def __init__(self, seed: int, workdir: str, tiny: bool):
        rng = np.random.default_rng(seed)
        self.steps = 20 if tiny else 500
        self.snapshots = (self.steps // 2, self.steps)
        self.coin_path = os.path.join(workdir, "grover.json")
        self.outdir = os.path.join(workdir, "simulate")
        coins.write_coin_json(self.coin_path, coins.grover_coin(), family="TypeIIa")
        psi = unit_state(rng)
        self.initial = json.dumps([[float(z.real), float(z.imag)] for z in psi])

    def _argv(self, steps: int, snapshots) -> list[str]:
        return ["simulate", "-i", self.coin_path, "--initial", self.initial,
                "--steps", str(steps), "--snapshots", ",".join(map(str, snapshots)),
                "--outdir", self.outdir]

    def warmup_item(self) -> Item:
        return Item(2, "warmup", None, {"argv": self._argv(2, (2,))})

    def next_pass(self) -> list[Item]:
        return [Item(self.steps, "grover", None, {"argv": self._argv(self.steps, self.snapshots)})]

    def run(self, item: Item):
        return cli.main(item.extra["argv"])

    def check(self, item: Item, rc):
        if rc != 0:
            raise CheckFailed(f"simulate exited {rc}")
        if item.label == "warmup":
            return
        with open(os.path.join(self.outdir, "trajectory.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        if len(rows) != self.steps + 1:
            raise CheckFailed(f"trajectory has {len(rows)} rows")
        for t, p in rows:
            p = float(p)
            # the seeded state is normalized to rounding, like any unit state
            # initial_state accepts (|norm - 1| <= 1e-12)
            if not 0.0 <= p <= 1.0 + 1e-12 or (int(t) % 2 == 1 and p != 0.0):
                raise CheckFailed(f"P_origin({t}) = {p!r}")
        for t in self.snapshots:
            path = os.path.join(self.outdir, f"dist_t{t}.csv")
            with open(path, encoding="utf-8") as fh:
                next(fh)
                probs = [float(line.rsplit(",", 1)[1]) for line in fh]
            if len(probs) != (2 * t + 3) ** 2:
                raise CheckFailed(f"dist_t{t}.csv has {len(probs)} rows")
            total = math.fsum(probs)
            if abs(total - 1.0) > 1e-10:
                raise CheckFailed(f"dist_t{t}.csv sums to {total!r}")


class CoinReport:
    """The per-coin analysis behind a paper figure, over a short coin list.

    The same layers as above, used differently: walk runs many short,
    cache-resident windows (per-call overhead dominates), classify does
    quadrature in trapped_weight (each call re-detects the spectrum and
    re-extracts the cells), and the spectrum CLI makes grid^2 per-point
    calls into spectral.
    """

    trace_passes = 2

    def __init__(self, seed: int, workdir: str, tiny: bool):
        rng = np.random.default_rng(seed)
        self.grid = 16 if tiny else 128
        self.weight_grid = 32 if tiny else 256
        self.steps = 20 if tiny else 100
        n_states = 2 if tiny else 8
        params = [GROVER, FIG2] + [draw(rng) for draw in DRAWERS.values()]
        self.items = []
        for k, p in enumerate(params):
            coin = coins.coin_for(p)
            path = os.path.join(workdir, f"coin{k}.json")
            coins.write_coin_json(path, coin, family=_family(p), params=p)
            extra = {"path": path,
                     "spectrum": os.path.join(workdir, f"spectrum{k}.csv"),
                     "region": os.path.join(workdir, f"region{k}.json"),
                     "states": [unit_state(rng) for _ in range(n_states)]}
            if isinstance(p, coins.TypeIIaParams):
                extra["escaping"] = coins.escaping_state(p)
            self.items.append(Item(1, _family(p), coin, extra))
        self.worst_gap = 0.0

    def warmup_item(self) -> Item:
        return self.items[0]

    def next_pass(self) -> list[Item]:
        return self.items

    def run(self, item: Item):
        x = item.extra
        rcs = (cli.main(["spectrum", "-i", x["path"], "--grid", str(self.grid),
                         "-o", x["spectrum"]]),
               cli.main(["region", "-i", x["path"], "-o", x["region"]]))
        weights = [classify.trapped_weight(item.coin, v, grid_n=self.weight_grid)
                   for v in x["states"]]
        escaping = None
        if "escaping" in x:
            escaping = classify.trapped_weight(item.coin, x["escaping"],
                                               grid_n=self.weight_grid)
        # origin amplitudes of the four basis states give every state's
        # return probabilities by linearity
        transfer = np.zeros((self.steps + 1, 4, 4), dtype=complex)
        basis = [walk.initial_state(e) for e in np.eye(4, dtype=complex)]
        for j, state in enumerate(basis):
            transfer[0][:, j] = state.amplitude(0, 0)
            for t in range(1, self.steps + 1):
                state = walk.step(state, item.coin)
                transfer[t][:, j] = state.amplitude(0, 0)
        return rcs, weights, escaping, transfer

    def check(self, item: Item, output):
        rcs, weights, escaping, transfer = output
        if rcs != (0, 0):
            raise CheckFailed(f"spectrum/region exited {rcs}")
        with open(item.extra["spectrum"], encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.grid ** 2:
            raise CheckFailed(f"spectrum has {rows} rows, expected {self.grid ** 2}")
        with open(item.extra["region"], encoding="utf-8") as fh:
            json.load(fh)
        if not all(0.0 <= w <= 1.0 for w in weights):
            raise CheckFailed(f"trapped weight outside [0, 1]: {weights}")
        if escaping is not None and not escaping < 1e-12:
            raise CheckFailed(f"escaping state has trapped weight {escaping!r}")
        states = item.extra["states"]
        direct = walk.simulate(item.coin, walk.initial_state(states[0]), self.steps).p_origin
        shortcut = np.sum(np.abs(transfer @ states[0]) ** 2, axis=1)
        if not np.max(np.abs(direct - shortcut)) <= 1e-12:
            raise CheckFailed("transfer matrix disagrees with walk.simulate")
        # the long-time average only approaches the trapped weight, so the
        # gap is recorded, not checked
        for v, w in zip(states, weights):
            average = float(np.mean(np.sum(np.abs(transfer[1:] @ v) ** 2, axis=1)))
            self.worst_gap = max(self.worst_gap, abs(average - w))


WORKLOADS = {"classify_sweep": ClassifySweep, "walk_long": WalkLong, "coin_report": CoinReport}
