"""Exact amplitude-level simulation of the walk on rotated light-cone blocks.

One step applies the coin at every occupied site and then displaces each
component by its step in ``coins.DISPLACEMENTS``.  In the rotated
coordinates u = x + y, v = x - y every step moves both u and v by one, so
after t steps from a single site the occupied sites are the (t+1)^2 points
u0 - t + 2i, v0 - t + 2j (0 <= i, j <= t): a square block in (u, v), where
the dense (2t+3)^2 window of (x, y) would be three quarters zeros.
Amplitudes are kept on such blocks and only the occupied sites are
computed; the dense window is built for snapshots and inspection.

One kernel, ``_sweep_block``, steps every block of every coin.  A sweep
of ``depth`` steps is one pass over the block's rows that takes each
window of rows, about ``_CHUNK_SITES`` sites, through the steps one after
another, since row i of a step needs only rows i - 1 and i of the step
before.  ``step`` is a sweep of one step into a fresh array, so the states
it returns share no memory.  ``simulate``, whose intermediate states never
leave it, sweeps up to ``_SWEEP_STEPS`` (24) steps at a time, ending a
sweep at every snapshot time and at the last step.  A sweep reads the
block from one of two buffers sized for the last step and writes it into
the other, so the multi-MB blocks of a long walk cross L3 once per sweep
rather than once per step; the steps between live in two small strips, one
window of rows each, which they take in turn, and the strips are freed
before a snapshot's distribution is built.  A walk from one site holds
about 2 x 64 (t+1)^2 bytes of buffers (32 MB at t = 500) and, while it
steps, 2 x 64 (w + 2 t) bytes of strips for windows of w sites (1.2 MB at
t = 500).

The dense views (``WalkState.probability`` and ``.field``, hence every
snapshot) cost their window plus O(``_CHUNK_SITES``) temporaries: a block's
sites are one strided view of the window (``WalkState._dense``), filled a
chunk of rows at a time.  ``coverage_fraction`` builds its mask of a
snapshot the same way, a chunk of rows at a time.

The coin product is one BLAS call per window of a step, and one call of
four sites more for a complex call's tail (below).  A coin whose imaginary
parts are all zero, such as Grover and the fig2 and fig6 coins, is
multiplied by its real part: the complex128 amplitudes are read as
interleaved float64 re, im pairs, so one real ``dgemm`` forms the complex
product.  That choice, and the conversion of the given state's blocks to
C-contiguous complex128, is made once per ``step`` or ``simulate`` call.
The first step of a sweep scatters its product to the shifted places; past
it, a sweep's rows carry zero columns up to the last step's width, so a
window's product places its own output: the L, D pair is one 2-row
product written with a row stride of one component plus one site, and the
U, R pair the same one row further on.  So a product's sites fall at any
column of a BLAS call.  ``dgemm`` gives the same bits at every column, and
OpenBLAS's ``zgemm`` rounds only the last n % 4 columns of a call of n its
own way, so ``_product`` forms those again in a call of four.  Every site
is then rounded as inside one long product, whatever the window, the
depth or the offset, and ``step`` and ``simulate`` agree bit for bit for
every coin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _text
from .coins import DISPLACEMENTS, AmplitudeCell
from .linalg import _coin_product, _integer, _unit_state, require_unitary
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
# +-1, and the block indices run in steps of two along u and v.  Component
# k = 2 p + q lands p rows and q columns on, the layout that ``_scatter``
# and ``_Rows.place`` write as strides.
_SHIFTS = tuple(((dx + dy + 1) // 2, (dx - dy + 1) // 2) for dx, dy in DISPLACEMENTS)

# Sites per window of a sweep: 8192 sites are 512 KB of complex128
# amplitudes, which stay in L2 until they are scattered or read by the next
# step.
_CHUNK_SITES = 8192
# Steps simulate advances per sweep over a block's rows (_sweep_block), so
# that the full buffers cross L3 once per sweep.  In an interleaved scan of
# 500-step walks, 24 took 0.86x the time of 8 (Grover) and 0.95x (fig4 coin,
# and the simulate CLI with its CSVs); 32 and 48 gained no more than noise.
_SWEEP_STEPS = 24


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

    def _dense(self, components: tuple, dtype, value) -> np.ndarray:
        """The dense window, shape components + (2t+3, 2t+3), that holds
        ``value(amps[:, rows])`` at the sites of each block's ``rows``.

        Site (i, j) of a block at (u0, v0) lies at row (u0 + v0) / 2 + t + 1
        + i + j and column (u0 - v0) / 2 + t + 1 + i - j, so the block's
        sites are a strided view of the window: one row and one column on
        along i, one row on and one column back along j.  The view is filled
        a chunk of at most ``_CHUNK_SITES`` sites' rows at a time, so the
        window costs its own bytes plus a chunk's temporaries.
        """
        n = 2 * self.t + 3
        window = np.zeros(components + (n, n), dtype=dtype)
        rows, cols = window.strides[-2:]
        for u0, v0, amps in self.blocks:
            _, a, b = amps.shape
            r0, c0 = (u0 + v0) // 2 + self.offset, (u0 - v0) // 2 + self.offset
            if min(r0, c0 - b + 1) < 0 or max(r0 + a + b - 2, c0 + a - 1) >= n:
                raise ValueError(f"block at ({u0}, {v0}) leaves the window of time {self.t}")
            grid = np.lib.stride_tricks.as_strided(window[..., r0, c0:], components + (a, b),
                                                   window.strides[:-2] + (rows + cols, rows - cols))
            chunk = max(1, _CHUNK_SITES // b)
            for i in range(0, a, chunk):
                grid[..., i:i + chunk, :] += value(amps[:, i:i + chunk])
        return window

    @property
    def field(self) -> np.ndarray:
        """Dense amplitudes, shape (4, 2t+3, 2t+3), built on each access."""
        return self._dense((4,), np.complex128, lambda amps: amps)

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
        return self._dense((), np.float64, lambda amps: np.sum(np.abs(amps) ** 2, axis=0))

    def origin_probability(self) -> float:
        return float(np.sum(np.abs(self.amplitude(0, 0)) ** 2))

    def total_probability(self) -> float:
        return float(sum(np.vdot(amps, amps).real for _, _, amps in self.blocks))


def initial_state(coin_state) -> WalkState:
    """Point-localized walker at the origin with the given coin state.

    The coin state must be a (4,) vector normalized already; nothing is
    silently reshaped or rescaled.
    """
    return WalkState(t=0, blocks=((0, 0, _unit_state(coin_state).reshape(4, 1, 1)),))


def state_from_cell(cell: AmplitudeCell) -> WalkState:
    """Normalized stationary state of a cell, as a walk state.

    The cell occupies sites (0,0) through (1,1), at time t = 1 so that the
    light-cone bound holds.  Sites (0,0) and (1,1) (u = 0, 2 at v = 0) form
    one block, sites (0,1) and (1,0) (v = -1, 1 at u = 1) the other.
    A cell that fails ``AmplitudeCell.validate`` (its amplitudes disagree
    with its recorded norm, say, or it is zero) raises ValueError.
    """
    cell.validate()
    xi = cell.local_states() / cell.norm
    even = np.stack([xi[0, 0], xi[1, 1]], axis=1)[:, :, None]
    odd = np.stack([xi[0, 1], xi[1, 0]], axis=1)[:, None, :]
    return WalkState(t=1, blocks=((0, 0, even), (1, -1, odd)))


def _product(c: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``c @ x`` into ``out``, every column rounded as inside one long product.

    ``c`` is the matrix ``_product_matrix`` gives, or rows of it, and ``x``
    holds the sites as columns of ``c``'s dtype.  OpenBLAS's ``zgemm`` rounds
    the last n % 4 columns of a call of n columns its own way, at any offset,
    and ``dgemm`` over re, im pairs never does; so a complex call's last
    columns are formed again in a call of four, padded with zero sites when
    n < 4.  Products of any piece of a block then agree bit for bit.
    """
    out = np.matmul(c, x, out=out)
    n = x.shape[1]
    if n % 4 and c.dtype.kind == "c":
        if n > 4:
            np.matmul(c, x[:, -4:], out=out[:, -4:])
        else:
            last = np.zeros((4, 4), dtype=np.complex128)
            last[:, 4 - n:] = x
            out[:] = (c @ last)[:, 4 - n:]
    return out


def _scatter(mixed: np.ndarray, grid: np.ndarray, row: int) -> None:
    """Write the coin product ``mixed`` (4, n, b) of block rows row, row + 1, ...
    to their shifted places in ``grid`` (4, rows, pitch), in one copy.

    Component k = 2 p + q lands p rows and q columns on (``_SHIFTS``), so
    its place starts p (2 S + pitch) + q (S + 1) sites into the grid, S
    sites per component: one strided view holds all four.
    """
    _, n, b = mixed.shape
    component, pitch, site = grid.strides
    shifted = np.ndarray((2, 2, n, b), grid.dtype, grid, row * pitch,
                         (2 * component + pitch, component + site, pitch, site))
    shifted[...] = mixed.reshape(2, 2, n, b)


class _Rows:
    """Four components of ``rows`` rows of ``pitch`` sites in a flat complex128
    buffer: component k, row i, column j at ``flat[k S + i pitch + j]``, where
    S = rows * pitch.  Given the dtype of a coin product, a level that places
    products also views its sites as that product's columns (``sites``) and
    the two 2-row outputs of ``place``; its buffer then holds
    ``_Rows.entries(rows, pitch)`` entries, the rows and the tail that ``ur``
    views past them.
    """

    @staticmethod
    def entries(rows: int, pitch: int) -> int:
        return 4 * rows * pitch + pitch + 2

    def __init__(self, flat: np.ndarray, rows: int, pitch: int, dtype=None):
        size = rows * pitch
        self.grid = flat[:4 * size].reshape(4, rows, pitch)
        if dtype is None:
            return
        cols = flat.view(dtype)
        w = self.w = 16 // cols.itemsize   # columns per complex128 site
        self.pitch = pitch
        self.sites = cols[:4 * w * size].reshape(4, w * size)
        # The product of row i lands on row i of L, row i of D one site on,
        # row i + 1 of U and row i + 1 of R one site on (``_SHIFTS``), so the
        # L, D pair and the U, R pair are each one 2-row product written with
        # a row stride of S + 1 sites.
        self.ld = cols[:w * (2 * size + 2)].reshape(2, w * (size + 1))
        self.ur = cols[w * (2 * size + pitch):][:w * (2 * size + 2)].reshape(2, w * (size + 1))

    def place(self, c: np.ndarray, x: np.ndarray, row: int, n: int) -> None:
        """Write the coin product of the ``n`` rows ``x`` (``sites`` of the
        level before, rows ``pitch`` sites apart) to rows row, row + 1, ...;
        the columns of each row past its block must be zero in ``x``."""
        cols = slice(self.w * row * self.pitch, self.w * (row + n) * self.pitch)
        _product(c[:2], x, self.ld[:, cols])
        _product(c[2:], x, self.ur[:, cols])


def _window_rows(a: int, b: int, depth: int) -> int:
    """Rows per window of ``_sweep_block`` over a block (4, a, b), ``depth`` steps."""
    return max(1, min(_CHUNK_SITES // (b + depth), a + depth - 1))


def _strip_entries(a: int, b: int, depth: int) -> int:
    """Entries of each strip ``_sweep_block`` takes over a block (4, a, b),
    ``depth`` steps: one window of rows and the two after it."""
    return _Rows.entries(_window_rows(a, b, depth) + 2, b + depth)


def _sweep_block(c: np.ndarray, depth: int, u0: int, v0: int, amps: np.ndarray,
                 out: np.ndarray, strips=(), origin=None):
    """``depth`` steps of the block ``amps`` (4, a, b) in one pass over its rows.

    ``c`` is the matrix ``_product_matrix`` gives and ``amps`` is
    C-contiguous complex128.  Row i of a step needs rows i - 1 and i of the
    step before, so level k, the block k + 1 steps on, takes the rows of the
    level before it as soon as they are complete: each turn of the loop
    takes the next window of about ``_CHUNK_SITES`` sites' rows through
    every level.  Level 0 reads ``amps`` and the last level writes the flat
    buffer ``out``: the new block is its first 4 (a + depth) (b + depth)
    entries, and ``out`` holds ``_Rows.entries`` of them when ``depth`` > 1.
    The levels between take turns in the two ``strips``, which hold one
    window of rows and the two after it: a level's window leaves the row
    after it half written, and that row, kept aside, is row 0 of the
    level's next window.  Strips and ``out`` share the pitch b + depth, the
    last level's width, so the rows of every level before the last end in
    zero columns and each level after level 0 places its own product
    (``_Rows.place``); level 0, whose input rows are b sites apart, scatters
    it.  Given ``origin`` (depth, 4), level k's amplitudes at the origin are
    added to ``origin[k]``.  Every entry of the new block is written,
    whatever ``out`` held before.
    """
    _, a, b = amps.shape
    pitch = b + depth
    rows = _window_rows(a, b, depth)
    places = c.dtype if depth > 1 else None   # only then do levels place
    pair = [_Rows(strip, rows + 2, pitch, places) for strip in strips[:depth - 1]]
    # levels 0 .. depth - 2 alternate between the strips
    levels = (pair * depth)[:depth - 1] + [_Rows(out, a + depth, pitch, places)]
    for level in levels[1:]:
        level.grid[3, 1, 0] = 0.0   # the one site of R that no placed product writes
    # no row above reaches U and R in row 0 of ``out``, whose windows go to
    # rows of their own; row 0 of each strip's window is carried from its last
    # window, zero at first
    levels[-1].grid[:, 0] = 0.0
    carried = np.zeros((depth - 1, 4, pitch), dtype=np.complex128) if depth > 1 else None
    spots = [None] * depth
    for k in range(depth if origin is not None else 0):
        i, odd_u = divmod(k + 1 - u0, 2)
        j, odd_v = divmod(k + 1 - v0, 2)
        if not (odd_u or odd_v) and 0 <= i <= a + k and 0 <= j <= b + k:
            spots[k] = i, j
    sites = amps.reshape(4, -1).view(c.dtype)
    w = 16 // c.itemsize   # columns per complex128 site
    product = np.empty((4, w * min(rows, a) * b), dtype=c.dtype)   # level 0's, per window
    for start in range(0, a + depth - 1, rows):
        for k, level in enumerate(levels):
            last = k == depth - 1
            row = start if last else 0
            if not last:
                level.grid[:, 0] = carried[k]
            n = min(rows, a + k - start)   # level k reads a + k rows
            if n <= 0:
                continue
            if k:
                level.place(c, levels[k - 1].sites[:, :w * n * pitch], row, n)
            else:
                # the columns the scatter leaves: past the block, and D and R's first
                level.grid[:, row + 1:row + n + 1, b:] = 0.0
                level.grid[1::2, row + 1:row + n + 1, 0] = 0.0
                mixed = _product(c, sites[:, w * start * b:w * (start + n) * b],
                                 product[:, :w * n * b])
                _scatter(mixed.view(np.complex128).reshape(4, n, b), level.grid, row)
            # L and D of the next row: the next window writes them, or they stay zero
            level.grid[:2, row + n] = 0.0
            if not last:
                carried[k] = level.grid[:, rows]
            # rows [start, start + n) are complete, and the last row after the last window
            if spots[k] and start <= spots[k][0] < start + n + (start + n == a + k):
                i, j = spots[k]
                origin[k] += level.grid[:, row + i - start, j]
    return u0 - depth, v0 - depth, levels[-1].grid


def _product_matrix(coin) -> np.ndarray:
    """The checked coin as ``_sweep_block`` multiplies by it, read-only and
    remembered per coin (``linalg._coin_product``).

    A coin whose imaginary parts are all zero (Grover, the fig2 and fig6
    coins) gives its real part: one real product over the interleaved re, im
    pairs is the complex product, at well under half the cost.  Any other
    coin is multiplied as it is.
    """
    return _coin_product(require_unitary(coin).tobytes())


def step(state: WalkState, coin) -> WalkState:
    """One walk step: coin everywhere, then the conditional displacement.

    Each block takes a sweep of one step (``_sweep_block``) into a freshly
    allocated array, of the block's own size, so the new state shares no
    memory with ``state`` or with any other state.
    """
    c = _product_matrix(coin)
    return WalkState(t=state.t + 1, blocks=tuple(
        _sweep_block(c, 1, u0, v0, np.ascontiguousarray(amps, dtype=np.complex128),
                     np.empty(4 * (amps.shape[1] + 1) * (amps.shape[2] + 1), dtype=np.complex128))
        for u0, v0, amps in state.blocks))


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
    requested snapshot times, which must be integers in [initial.t,
    initial.t + steps] (time 0 snapshots refer to the initial state).
    Every coin advances each block up to ``_SWEEP_STEPS`` steps per sweep,
    ending a sweep at every snapshot time.  Each sweep writes a block into
    one of two buffers sized for its last step, in turn (module docstring).
    """
    steps = _integer(steps, "steps", 1)
    c = _product_matrix(coin)
    wanted = {_integer(t, "snapshot time") for t in snapshot_times}
    outside = [t for t in sorted(wanted) if not initial.t <= t <= initial.t + steps]
    if outside:
        raise ValueError(f"snapshot times {outside} lie outside "
                         f"[{initial.t}, {initial.t + steps}]")
    state = WalkState(t=initial.t, blocks=tuple(
        (u0, v0, np.ascontiguousarray(amps, dtype=np.complex128))
        for u0, v0, amps in initial.blocks))
    p_origin = np.zeros(steps + 1)
    p_origin[0] = state.origin_probability()
    snapshots: dict[int, Snapshot] = {}
    if state.t in wanted:
        snapshots[state.t] = Snapshot(t=state.t, prob=state.probability())
    shapes = [amps.shape[1:] for _, _, amps in state.blocks]
    # Each block's sweeps write into its two buffers in turn, each sized for
    # the block's last step.
    buffers = [[np.empty(_Rows.entries(a + steps, b + steps), dtype=np.complex128)
                for _ in range(2)] for a, b in shapes]
    sweeps = []   # (start time, depth)
    t, end = state.t, state.t + steps
    while t < end:
        stop = min([w for w in wanted if w > t] + [end])
        sweeps.append((t, min(_SWEEP_STEPS, stop - t)))
        t += sweeps[-1][1]
    strip_size = max((_strip_entries(a + t - initial.t, b + t - initial.t, depth)
                      for t, depth in sweeps if depth > 1 for a, b in shapes), default=0)
    strips: list[np.ndarray] = []
    for t, depth in sweeps:
        strips += [np.empty(strip_size, dtype=np.complex128)
                   for _ in range(min(depth - 1, 2) - len(strips))]
        origin = np.zeros((depth, 4), dtype=np.complex128)
        state = WalkState(t=t + depth, blocks=tuple(
            _sweep_block(c, depth, *block, pair[0], strips, origin)
            for block, pair in zip(state.blocks, buffers)))
        for pair in buffers:
            pair.reverse()
        first = t + 1 - initial.t
        # the sum WalkState.origin_probability takes, bit for bit
        p_origin[first:first + depth] = [float(np.sum(np.abs(z) ** 2)) for z in origin]
        if state.t in wanted:
            strips = []   # freed before the snapshot's arrays are made
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
    prob, scale = snapshot.prob, float(snapshot.t)
    axis = np.arange(len(prob)) - snapshot.offset
    counted = np.empty(prob.shape, dtype=bool)
    chunk = max(1, _CHUNK_SITES // len(prob))
    for i in range(0, len(prob), chunk):
        xs, ys = axis[i:i + chunk, None], axis
        inside = region_contains(region, xs / scale, ys / scale, inflation)
        central = (np.abs(xs) <= 2) & (np.abs(ys) <= 2)
        counted[i:i + chunk] = (prob[i:i + chunk] > floor) & ~inside & ~central
    return float(np.sum(prob[counted]))


def check_floor(floor: float) -> None:
    """A distribution CSV floor must be a finite probability >= 0."""
    if not 0.0 <= floor < math.inf:
        raise ValueError(f"floor must be a finite probability >= 0, got {floor}")


def write_distribution_csv(path, snapshot: Snapshot, floor: float = 0.0):
    """Write columns x, y, P in CRLF lines; rows below ``floor`` are skipped."""
    check_floor(floor)
    prob = snapshot.prob
    axis = np.arange(len(prob)) - snapshot.offset
    _text.write(path, _text.csv_lines("x,y,P", (axis, axis), [prob], "\r\n",
                                      prob >= floor if floor > 0 else None))


def write_trajectory_csv(path, traj: Trajectory):
    """Write columns t, P_origin in CRLF lines."""
    p = traj.p_origin
    _text.write(path, _text.csv_lines("t,P_origin", (np.arange(len(p)),), [p], "\r\n"))
