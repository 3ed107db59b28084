"""Exact amplitude-level simulation of the walk on a light-cone window.

One step applies the coin at every occupied site and then displaces the
components: L moves (-1, 0), D (0, -1), U (0, +1), R (+1, 0).  Amplitudes
are kept on a dense square window [-t-1, t+1]^2; everything beyond
Chebyshev distance t from the start site is exactly zero, so the window
grows by one ring per step.  At five hundred steps this is about four
million complex numbers, fine at desk scale and cache friendly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .coins import AmplitudeCell
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
    "write_distribution_csv",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class WalkState:
    """Amplitude field at one time step.

    ``field`` has shape (4, n, n) with n = 2 t + 3; component ``c`` at
    lattice site (x, y) sits at ``field[c, x + t + 1, y + t + 1]``.
    """

    t: int
    field: np.ndarray

    @property
    def offset(self) -> int:
        return self.t + 1

    def amplitude(self, x: int, y: int) -> np.ndarray:
        return self.field[:, x + self.offset, y + self.offset]

    def probability(self) -> np.ndarray:
        """Site probabilities, indexed like the field without the coin axis."""
        return np.sum(np.abs(self.field) ** 2, axis=0)

    def origin_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitude(0, 0)) ** 2))

    def total_probability(self) -> float:
        return float(np.sum(np.abs(self.field) ** 2))


def initial_state(coin_state) -> WalkState:
    """Point-localized walker at the origin with the given coin state.

    The coin state must be normalized already; nothing is silently rescaled.
    """
    psi = np.asarray(coin_state, dtype=np.complex128).reshape(4)
    nrm = float(np.linalg.norm(psi))
    if not (abs(nrm - 1.0) <= 1e-12):
        raise ValueError(f"initial coin state must have unit norm, got {nrm!r}")
    field = np.zeros((4, 3, 3), dtype=np.complex128)
    field[:, 1, 1] = psi
    return WalkState(t=0, field=field)


def state_from_cell(cell: AmplitudeCell) -> WalkState:
    """Normalized stationary state of a cell, as a walk state.

    The cell occupies sites (0,0) through (1,1); the window is the t = 1
    window so the light-cone bound holds.
    """
    field = np.zeros((4, 5, 5), dtype=np.complex128)
    xi = cell.local_states() / cell.norm
    for dx in (0, 1):
        for dy in (0, 1):
            field[:, dx + 2, dy + 2] = xi[dx, dy]
    return WalkState(t=1, field=field)


def step(state: WalkState, coin) -> WalkState:
    """One walk step: coin everywhere, then the conditional displacement."""
    c = require_unitary(coin)
    mixed = np.tensordot(c, state.field, axes=([1], [0]))
    n = state.field.shape[1]
    out = np.zeros((4, n + 2, n + 2), dtype=np.complex128)
    out[0, 0:n, 1:n + 1] = mixed[0]          # L: x - 1
    out[1, 1:n + 1, 0:n] = mixed[1]          # D: y - 1
    out[2, 1:n + 1, 2:n + 2] = mixed[2]      # U: y + 1
    out[3, 2:n + 2, 1:n + 1] = mixed[3]      # R: x + 1
    return WalkState(t=state.t + 1, field=out)


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
        state = step(state, c)
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
    if inflation < 1.0:
        raise ValueError("inflation must be at least 1")
    if snapshot.t < 1:
        raise ValueError("coverage needs an evolved snapshot (t >= 1)")
    xs, ys = snapshot.coordinates()
    scale = float(snapshot.t)
    inside = region_contains(region, xs / scale, ys / scale, inflation)
    central = (np.abs(xs) <= 2) & (np.abs(ys) <= 2)
    counted = (snapshot.prob > floor) & ~inside & ~central
    return float(np.sum(snapshot.prob[counted]))


def write_distribution_csv(path, snapshot: Snapshot, floor: float = 0.0):
    """Write columns x, y, P; rows below ``floor`` are skipped."""
    xs, ys = snapshot.coordinates()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "P"])
        mask = snapshot.prob >= floor if floor > 0 else np.ones_like(snapshot.prob, bool)
        for x, y, p in zip(xs[mask], ys[mask], snapshot.prob[mask]):
            writer.writerow([int(x), int(y), repr(float(p))])


def write_trajectory_csv(path, traj: Trajectory):
    """Write columns t, P_origin."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "P_origin"])
        for t, p in enumerate(traj.p_origin):
            writer.writerow([t, repr(float(p))])
