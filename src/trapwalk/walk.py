"""Exact amplitude-level simulation of the walk on rotated light-cone blocks.

One step applies the coin at every occupied site and then displaces each
component by its step in ``coins.DISPLACEMENTS``.  In the rotated
coordinates u = x + y, v = x - y every step moves both u and v by one, so
after t steps from a single site the occupied sites are the (t+1)^2 points
u0 - t + 2i, v0 - t + 2j (0 <= i, j <= t): a square block in (u, v), where
the dense (2t+3)^2 window of (x, y) would be three quarters zeros.
Amplitudes are kept on such blocks and only the occupied sites are
computed; the dense window is built for snapshots and inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coins import DISPLACEMENTS, AmplitudeCell
from .linalg import require_unitary
from .spectral import SpreadRegion, region_contains

__all__ = [
    "WalkState",
    "Snapshot",
    "Trajectory",
    "initial_state",
    "state_from_cell",
    "step",
    "simulate",
    "origin_time_average",
    "coverage_fraction",
    "check_floor",
    "write_distribution_csv",
    "write_trajectory_csv",
]

# Where each displaced component lands in the next block, whose corner is
# (u0 - 1, v0 - 1): a step (dx, dy) moves (u, v) by (dx + dy, dx - dy), each
# +-1, and the block indices run in steps of two along u and v.
_SHIFTS = tuple(((dx + dy + 1) // 2, (dx - dy + 1) // 2) for dx, dy in DISPLACEMENTS)


@dataclass(frozen=True)
class WalkState:
    """Amplitudes at one time step, stored on rotated light-cone blocks.

    Each block ``(u0, v0, amps)`` holds component ``c`` of the site with
    u = x + y = u0 + 2i and v = x - y = v0 + 2j at ``amps[c, i, j]``;
    every site on no block has exactly zero amplitude.  A walk from one
    site keeps one block; a 2x2 cell needs two, one for each parity of
    x + y.  Site indexing of the dense views (``field``, ``probability``)
    is that of the window [-t-1, t+1]^2: site (x, y) sits at
    ``[x + t + 1, y + t + 1]``.
    """

    t: int
    blocks: tuple[tuple[int, int, np.ndarray], ...]

    @property
    def offset(self) -> int:
        return self.t + 1

    def _window_index(self, u0: int, v0: int, amps: np.ndarray):
        """Dense-window indices (rows, columns) of a block's sites."""
        _, a, b = amps.shape
        i = np.arange(a)[:, None]
        j = np.arange(b)[None, :]
        return ((u0 + v0) // 2 + self.offset + i + j,
                (u0 - v0) // 2 + self.offset + i - j)

    @property
    def field(self) -> np.ndarray:
        """Dense amplitudes, shape (4, 2t+3, 2t+3), built on each access."""
        n = 2 * self.t + 3
        field = np.zeros((4, n, n), dtype=np.complex128)
        for u0, v0, amps in self.blocks:
            rows, cols = self._window_index(u0, v0, amps)
            field[:, rows, cols] += amps
        return field

    def amplitude(self, x: int, y: int) -> np.ndarray:
        """Coin state at site (x, y); exact zeros off the occupied sites."""
        out = np.zeros(4, dtype=np.complex128)
        for u0, v0, amps in self.blocks:
            i, odd_u = divmod(x + y - u0, 2)
            j, odd_v = divmod(x - y - v0, 2)
            if not (odd_u or odd_v) and 0 <= i < amps.shape[1] and 0 <= j < amps.shape[2]:
                out += amps[:, i, j]
        return out

    def probability(self) -> np.ndarray:
        """Site probabilities on the dense window, indexed like ``field[c]``."""
        n = 2 * self.t + 3
        prob = np.zeros((n, n))
        for u0, v0, amps in self.blocks:
            prob[self._window_index(u0, v0, amps)] += np.sum(np.abs(amps) ** 2, axis=0)
        return prob

    def origin_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitude(0, 0)) ** 2))

    def total_probability(self) -> float:
        return float(sum(np.vdot(amps, amps).real for _, _, amps in self.blocks))


def initial_state(coin_state) -> WalkState:
    """Point-localized walker at the origin with the given coin state.

    The coin state must be normalized already; nothing is silently rescaled.
    """
    psi = np.array(coin_state, dtype=np.complex128).reshape(4, 1, 1)
    nrm = float(np.linalg.norm(psi))
    if not (abs(nrm - 1.0) <= 1e-12):
        raise ValueError(f"initial coin state must have unit norm, got {nrm!r}")
    return WalkState(t=0, blocks=((0, 0, psi),))


def state_from_cell(cell: AmplitudeCell) -> WalkState:
    """Normalized stationary state of a cell, as a walk state.

    The cell occupies sites (0,0) through (1,1), at time t = 1 so that the
    light-cone bound holds.  Sites (0,0) and (1,1) (u = 0, 2 at v = 0) form
    one block, sites (0,1) and (1,0) (v = -1, 1 at u = 1) the other.
    """
    xi = cell.local_states() / cell.norm
    even = np.stack([xi[0, 0], xi[1, 1]], axis=1)[:, :, None]
    odd = np.stack([xi[0, 1], xi[1, 0]], axis=1)[:, None, :]
    return WalkState(t=1, blocks=((0, 0, even), (1, -1, odd)))


def _step_block(c: np.ndarray, u0: int, v0: int, amps: np.ndarray):
    _, a, b = amps.shape
    mixed = (c @ amps.reshape(4, -1)).reshape(4, a, b)
    out = np.empty((4, a + 1, b + 1), dtype=np.complex128)
    for k, (di, dj) in enumerate(_SHIFTS):
        out[k, di:di + a, dj:dj + b] = mixed[k]
        out[k, (1 - di) * a, :] = 0.0  # the row and the column this
        out[k, :, (1 - dj) * b] = 0.0  # component does not reach
    return u0 - 1, v0 - 1, out


def _advance(state: WalkState, c: np.ndarray) -> WalkState:
    return WalkState(t=state.t + 1,
                     blocks=tuple(_step_block(c, *block) for block in state.blocks))


def step(state: WalkState, coin) -> WalkState:
    """One walk step: coin everywhere, then the conditional displacement."""
    return _advance(state, require_unitary(coin))


@dataclass(frozen=True)
class Snapshot:
    """Site probability distribution at one time; same indexing as WalkState."""

    t: int
    prob: np.ndarray

    @property
    def offset(self) -> int:
        return self.t + 1

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid arrays of the x and y coordinates of ``prob``."""
        n = self.prob.shape[0]
        axis = np.arange(n) - self.offset
        return np.meshgrid(axis, axis, indexing="ij")


@dataclass(frozen=True)
class Trajectory:
    """Per-step origin probabilities plus full snapshots at requested times."""

    steps: int
    p_origin: np.ndarray
    snapshots: dict[int, Snapshot]


def simulate(coin, initial: WalkState, steps: int,
             snapshot_times=()) -> Trajectory:
    """Run the walk for ``steps`` steps from the given state.

    Records P(0, 0, t) for every step and keeps full distributions at the
    requested snapshot times, which must lie in [initial.t, initial.t + steps]
    (time 0 snapshots refer to the initial state).
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    c = require_unitary(coin)
    wanted = set(int(t) for t in snapshot_times)
    outside = [t for t in sorted(wanted) if not initial.t <= t <= initial.t + steps]
    if outside:
        raise ValueError(f"snapshot times {outside} lie outside "
                         f"[{initial.t}, {initial.t + steps}]")
    state = initial
    p_origin = np.zeros(steps + 1)
    p_origin[0] = state.origin_probability()
    snapshots: dict[int, Snapshot] = {}
    if state.t in wanted:
        snapshots[state.t] = Snapshot(t=state.t, prob=state.probability())
    for _ in range(steps):
        state = _advance(state, c)
        p_origin[state.t - initial.t] = state.origin_probability()
        if state.t in wanted:
            snapshots[state.t] = Snapshot(t=state.t, prob=state.probability())
    return Trajectory(steps=steps, p_origin=p_origin, snapshots=snapshots)


def origin_time_average(traj: Trajectory) -> float:
    """Mean of P(0, 0, t) over t = 1 .. T (the start time is excluded)."""
    if traj.p_origin.size < 2:
        raise ValueError("trajectory has no evolved steps")
    return float(np.mean(traj.p_origin[1:]))


def coverage_fraction(snapshot: Snapshot, region: SpreadRegion,
                      inflation: float = 1.0, floor: float = 1e-5) -> float:
    """Probability mass escaping the rescaled spreading region.

    Sums P over sites that carry more than ``floor`` probability, lie
    outside the region scaled by t and inflated by ``inflation``, and are
    not within the 5x5 block around the origin (which holds the trapped
    peak: the localized eigenstates occupy 2x2 cells in four overlapping
    placements, so the block covers all of them plus round-off halo).
    """
    check_floor(floor)
    if not 1.0 <= inflation < math.inf:
        raise ValueError(f"inflation must be finite and at least 1, got {inflation}")
    if snapshot.t < 1:
        raise ValueError("coverage needs an evolved snapshot (t >= 1)")
    xs, ys = snapshot.coordinates()
    scale = float(snapshot.t)
    inside = region_contains(region, xs / scale, ys / scale, inflation)
    central = (np.abs(xs) <= 2) & (np.abs(ys) <= 2)
    counted = (snapshot.prob > floor) & ~inside & ~central
    return float(np.sum(snapshot.prob[counted]))


def _write_csv(path, header: str, chunks) -> None:
    """Write a header line and chunks of ready-made lines.

    Lines end in CRLF and carry ints and float reprs with no quoting, so
    the file is byte for byte what ``csv.writer`` gives for the same rows.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        fh.writelines(chunks)


def check_floor(floor: float) -> None:
    """A distribution CSV floor must be a finite probability >= 0."""
    if not 0.0 <= floor < math.inf:
        raise ValueError(f"floor must be a finite probability >= 0, got {floor}")


def write_distribution_csv(path, snapshot: Snapshot, floor: float = 0.0):
    """Write columns x, y, P; rows below ``floor`` are skipped."""
    check_floor(floor)
    axis = (np.arange(snapshot.prob.shape[0]) - snapshot.offset).tolist()
    keep_all = floor == 0
    # one chunk per grid row keeps the formatted text small
    _write_csv(path, "x,y,P", (
        "".join(f"{x},{y},{p!r}\r\n" for y, p in zip(axis, row.tolist())
                if keep_all or p >= floor)
        for x, row in zip(axis, snapshot.prob)))


def write_trajectory_csv(path, traj: Trajectory):
    """Write columns t, P_origin."""
    _write_csv(path, "t,P_origin",
               ["".join(f"{t},{p!r}\r\n" for t, p in enumerate(traj.p_origin.tolist()))])
