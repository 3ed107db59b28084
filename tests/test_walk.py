import csv

import numpy as np
import pytest

from trapwalk import coins, spectral, walk
from trapwalk.linalg import require_unitary

from conftest import DRAWERS, random_unitary

QUARTER = np.pi / 4
FIG2_INITIAL = np.array([0.5, 0.5j, 0.5j, 0.5])


# --------------------------------------------------------------- initial states

def test_initial_state_point_mass():
    state = walk.initial_state(np.array([1, 0, 0, 0], dtype=complex))
    assert state.t == 0
    assert state.origin_probability() == pytest.approx(1.0)
    assert state.total_probability() == pytest.approx(1.0)


def test_initial_state_reference_superposition():
    state = walk.initial_state(FIG2_INITIAL)
    assert state.total_probability() == pytest.approx(1.0, abs=1e-12)


def test_initial_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        walk.initial_state(np.array([1, 1, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        walk.initial_state(np.zeros(4, dtype=complex))


# ------------------------------------------------------------------------ steps

def test_initial_state_rejects_nan():
    with pytest.raises(ValueError):
        walk.initial_state(np.array([np.nan, 0, 0, 0], dtype=complex))


def test_single_step_places_coin_column():
    c = coins.grover_coin()
    state = walk.step(walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)), c)
    # one application of the rule: column L of the coin, displaced by direction
    assert state.amplitude(-1, 0)[0] == pytest.approx(c[0, 0])
    assert state.amplitude(0, -1)[1] == pytest.approx(c[1, 0])
    assert state.amplitude(0, 1)[2] == pytest.approx(c[2, 0])
    assert state.amplitude(1, 0)[3] == pytest.approx(c[3, 0])
    assert state.origin_probability() == pytest.approx(0.0)


def test_four_cycle_exact_return():
    c = coins.coin_type_i(coins.TypeIParams(np.pi / 2, 0.0))
    state = walk.initial_state(np.array([1, 0, 0, 0], dtype=complex))
    visited = []
    for _ in range(4):
        state = walk.step(state, c)
        visited.append(state.origin_probability())
    assert max(visited[:3]) < 1e-30
    assert abs(visited[3] - 1.0) < 1e-12
    assert abs(state.amplitude(0, 0)[0] - 1.0) < 1e-12


def test_eigenstate_fidelity_all_families(rng):
    for drawer in DRAWERS.values():
        for _ in range(8):
            params = drawer(rng)
            coin = coins.coin_for(params)
            for cell in coins.stationary_cell(params):
                state = walk.state_from_cell(cell)
                stepped = walk.step(state, coin)
                target = np.zeros_like(stepped.field)
                target[:, 1:-1, 1:-1] = complex(cell.eigenphase) * state.field
                assert np.max(np.abs(stepped.field - target)) < 1e-12


def test_norm_conserved_and_light_cone(rng):
    params = DRAWERS["TypeI"](rng)
    coin = coins.coin_for(params)
    state = walk.initial_state(FIG2_INITIAL)
    for _ in range(40):
        state = walk.step(state, coin)
        assert abs(state.total_probability() - 1.0) < 1e-12
    n = state.field.shape[1]
    coords = np.arange(n) - state.offset
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    outside = np.maximum(np.abs(xs), np.abs(ys)) > state.t
    assert np.max(np.abs(state.field[:, outside])) < 1e-15


def test_identity_coin_moves_ballistically():
    state = walk.initial_state(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
    for _ in range(7):
        state = walk.step(state, np.eye(4))
    assert state.amplitude(-7, 0)[0] == pytest.approx(0.5)
    assert state.amplitude(0, -7)[1] == pytest.approx(0.5)
    assert state.amplitude(0, 7)[2] == pytest.approx(0.5)
    assert state.amplitude(7, 0)[3] == pytest.approx(0.5)
    assert state.total_probability() == pytest.approx(1.0)


def reference_step(field, c):
    """The dense-window step that the block layout replaced, kept as reference.

    ``field`` is the (4, n, n) window with site (x, y) at index
    (x + t + 1, y + t + 1); the result is the (4, n + 2, n + 2) window.
    """
    mixed = np.tensordot(c, field, axes=([1], [0]))
    n = field.shape[1]
    out = np.zeros((4, n + 2, n + 2), dtype=np.complex128)
    out[0, 0:n, 1:n + 1] = mixed[0]          # L: x - 1
    out[1, 1:n + 1, 0:n] = mixed[1]          # D: y - 1
    out[2, 1:n + 1, 2:n + 2] = mixed[2]      # U: y + 1
    out[3, 2:n + 2, 1:n + 1] = mixed[3]      # R: x + 1
    return out


def _unit(rng, n=4):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _dense_starts(rng, params):
    """(state, dense reference field, is a point start) for one coin."""
    psi = _unit(rng)
    point = np.zeros((4, 3, 3), dtype=np.complex128)
    point[:, 1, 1] = psi
    starts = [(walk.initial_state(psi), point, True)]
    cells = [coins.AmplitudeCell(*_unit(rng, 8), norm=1.0)]
    if params is not None:
        cells.extend(coins.stationary_cell(params))
    for cell in cells:
        field = np.zeros((4, 5, 5), dtype=np.complex128)
        xi = cell.local_states() / cell.norm
        for dx in (0, 1):
            for dy in (0, 1):
                field[:, dx + 2, dy + 2] = xi[dx, dy]
        starts.append((walk.state_from_cell(cell), field, False))
    return starts


def test_step_matches_dense_reference(rng):
    cases = [(params, coins.coin_for(params))
             for drawer in DRAWERS.values() for params in (drawer(rng), drawer(rng))]
    cases += [(None, random_unitary(rng)) for _ in range(3)]
    for params, coin in cases:
        for state, field, point in _dense_starts(rng, params):
            assert np.array_equal(state.field, field)
            for _ in range(int(rng.integers(1, 41))):
                state = walk.step(state, coin)
                field = reference_step(field, coin)
                assert state.field.shape == field.shape
                assert np.max(np.abs(state.field - field)) <= 1e-14
            if point:
                coords = np.arange(field.shape[1]) - state.offset
                xs, ys = np.meshgrid(coords, coords, indexing="ij")
                off = ((xs + ys - state.t) % 2 != 0) | (np.abs(xs) + np.abs(ys) > state.t)
                assert not np.any(state.field[:, off])


def test_amplitude_is_zero_off_the_occupied_sites():
    state = walk.initial_state(FIG2_INITIAL)
    # off the (2t+3)^2 window, where a negative dense index would wrap round
    assert not np.any(state.amplitude(-3, 0))
    moved = walk.step(walk.initial_state(FIG2_INITIAL), np.eye(4))
    assert not np.any(moved.amplitude(-6, 0))
    cell, _ = coins.stationary_cell(coins.TypeIParams(np.pi / 3, QUARTER))
    for start in (state, walk.state_from_cell(cell)):
        for s in range(3):
            field, t, off = start.field, start.t, start.offset
            for x in range(-t - 5, t + 6):
                for y in range(-t - 5, t + 6):
                    inside = max(abs(x), abs(y)) <= t + 1
                    expected = field[:, x + off, y + off] if inside else np.zeros(4)
                    assert np.array_equal(start.amplitude(x, y), expected), (s, x, y)
            for x, y in [(10**6, 0), (-10**6, 3), (7, -10**9)]:
                assert not np.any(start.amplitude(x, y))
            start = walk.step(start, coins.grover_coin())


# --------------------------------------------------------------------- simulate

def test_simulate_trajectory_and_snapshots():
    traj = walk.simulate(coins.grover_coin(),
                         walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)),
                         12, snapshot_times=(6, 12))
    assert traj.p_origin.shape == (13,)
    assert traj.p_origin[0] == pytest.approx(1.0)
    assert traj.p_origin[1] == pytest.approx(0.0)
    assert set(traj.snapshots) == {6, 12}
    assert traj.snapshots[6].prob.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("times", [(2, 9), (-1,)])
def test_simulate_rejects_snapshot_times_outside_run(times):
    with pytest.raises(ValueError):
        walk.simulate(coins.grover_coin(),
                      walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)), 3,
                      snapshot_times=times)


def test_simulate_requires_steps():
    with pytest.raises(ValueError):
        walk.simulate(coins.grover_coin(),
                      walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)), 0)


def test_origin_average_of_stationary_state():
    params = coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi)
    cell, _ = coins.stationary_cell(params)
    state = walk.state_from_cell(cell)
    traj = walk.simulate(coins.grover_coin(), state, 30)
    expected = state.origin_probability()
    assert np.allclose(traj.p_origin, expected, atol=1e-12)
    assert walk.origin_time_average(traj) == pytest.approx(expected, abs=1e-12)


def test_escaping_state_origin_average_decays():
    esc = np.array([1, -1, -1, 1], dtype=complex) / 2
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(esc), 400)
    avg200 = float(np.mean(traj.p_origin[1:201]))
    avg400 = float(np.mean(traj.p_origin[1:401]))
    # the t = 2 revival is exactly 1/4, so the 200-step average sits near
    # 1.5e-3 and keeps shrinking roughly like 1/T
    assert traj.p_origin[2] == pytest.approx(0.25, abs=1e-12)
    assert avg200 < 2e-3
    assert avg400 < 1e-3


def test_reference_distribution_mirror_symmetric():
    # the balanced initial superposition keeps the distribution symmetric
    # under both axis mirrors (and hence the point reflection)
    params = coins.TypeIParams(np.pi / 3, QUARTER)
    traj = walk.simulate(coins.coin_for(params), walk.initial_state(FIG2_INITIAL),
                         30, snapshot_times=(30,))
    prob = traj.snapshots[30].prob
    assert np.max(np.abs(prob - prob[::-1, :])) < 1e-14
    assert np.max(np.abs(prob - prob[:, ::-1])) < 1e-14
    assert traj.snapshots[30].prob[31, 31] > 0.05  # central peak (origin index)


def test_escaping_state_leaves_no_central_peak():
    esc = np.array([1, -1, -1, 1], dtype=complex) / 2
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(esc), 50,
                         snapshot_times=(50,))
    snap = traj.snapshots[50]
    centre = snap.prob[snap.offset - 2:snap.offset + 3,
                       snap.offset - 2:snap.offset + 3].sum()
    assert centre < 5e-3
    trapped = walk.simulate(coins.grover_coin(),
                            walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)),
                            50, snapshot_times=(50,))
    snap_t = trapped.snapshots[50]
    centre_t = snap_t.prob[snap_t.offset - 2:snap_t.offset + 3,
                           snap_t.offset - 2:snap_t.offset + 3].sum()
    assert centre_t > 0.4  # the generic state keeps its trapping peak


def test_grover_interior_state_keeps_central_peak():
    traj = walk.simulate(coins.grover_coin(),
                         walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)), 60)
    # the origin is reachable only at even times; the even-time tail stays up
    tail = traj.p_origin[40:]
    assert np.min(tail[::2]) > 0.25
    assert float(np.mean(tail)) > 0.1


# ------------------------------------------------------------- coverage checks

def test_coverage_fraction_fig2_values():
    params = coins.TypeIParams(np.pi / 3, QUARTER)
    traj = walk.simulate(coins.coin_for(params), walk.initial_state(FIG2_INITIAL),
                         50, snapshot_times=(50,))
    region = spectral.spread_region(spectral.dispersion_spec(params))
    snap = traj.snapshots[50]
    # the ballistic front carries a finite-time tail just beyond the caustic
    assert walk.coverage_fraction(snap, region, inflation=1.05) < 2e-2
    assert walk.coverage_fraction(snap, region, inflation=1.2) == 0.0
    # everything counted lives inside once the floor passes the tail scale
    assert walk.coverage_fraction(snap, region, inflation=1.05, floor=1e-3) == 0.0


def test_coverage_fraction_excludes_trapped_peak():
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=np.pi / 2))
    traj = walk.simulate(c, walk.initial_state(FIG2_INITIAL), 20, snapshot_times=(20,))
    region = spectral.SpreadRegion(0, 0, 0, 0, 0, 0, 0, 0)
    # fully trapped: all mass stays within one site of the start, inside the
    # excluded central block, so nothing counts as escaping for any region
    assert walk.coverage_fraction(traj.snapshots[20], region) == 0.0


def test_coverage_validates_arguments():
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(FIG2_INITIAL), 2,
                         snapshot_times=(2,))
    region = spectral.SpreadRegion(1, 1, 1, 1, 1, np.pi, 0, np.pi)
    with pytest.raises(ValueError):
        walk.coverage_fraction(traj.snapshots[2], region, inflation=0.5)


@pytest.mark.parametrize("kwargs", [
    {"floor": np.nan}, {"floor": np.inf}, {"floor": -np.inf}, {"floor": -1e-3},
    {"inflation": np.nan}, {"inflation": np.inf}, {"inflation": 0.99},
])
def test_coverage_rejects_non_finite_floor_and_inflation(kwargs):
    # a NaN or infinite floor used to count no escaping mass at all
    params = coins.TypeIParams(np.pi / 3, QUARTER)
    traj = walk.simulate(coins.coin_for(params), walk.initial_state(FIG2_INITIAL), 20,
                         snapshot_times=(20,))
    region = spectral.spread_region(spectral.dispersion_spec(params))
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        walk.coverage_fraction(traj.snapshots[20], region, **kwargs)


def test_quasi_1d_strip_confinement():
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=QUARTER))
    state = walk.initial_state(np.array([0.5, 0.5, 0.5, 0.5j]))
    for _ in range(60):
        state = walk.step(state, c)
        ys = np.arange(state.field.shape[2]) - state.offset
        assert np.max(np.abs(state.field[:, :, np.abs(ys) >= 2])) < 1e-14


# ------------------------------------------------------------------ CSV output

def test_distribution_csv(tmp_path):
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(FIG2_INITIAL), 5,
                         snapshot_times=(5,))
    path = tmp_path / "dist_t5.csv"
    walk.write_distribution_csv(path, traj.snapshots[5], floor=1e-12)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "P"]
    total = sum(float(r[2]) for r in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-9)
    xs = [int(r[0]) for r in rows[1:]]
    assert max(abs(x) for x in xs) <= 5


def test_trajectory_csv(tmp_path):
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(FIG2_INITIAL), 4)
    path = tmp_path / "trajectory.csv"
    walk.write_trajectory_csv(path, traj)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "P_origin"]
    assert len(rows) == 6
    assert rows[1][0] == "0"
    assert float(rows[1][1]) == pytest.approx(1.0)


def reference_distribution_csv(path, snapshot, floor=0.0):
    """The csv.writer version of write_distribution_csv, kept as reference."""
    xs, ys = snapshot.coordinates()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "P"])
        mask = snapshot.prob >= floor if floor > 0 else np.ones_like(snapshot.prob, bool)
        for x, y, p in zip(xs[mask], ys[mask], snapshot.prob[mask]):
            writer.writerow([int(x), int(y), repr(float(p))])


def reference_trajectory_csv(path, traj):
    """The csv.writer version of write_trajectory_csv, kept as reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "P_origin"])
        for t, p in enumerate(traj.p_origin):
            writer.writerow([t, repr(float(p))])


@pytest.mark.parametrize("floor", [0.0, 1e-320, 0.3])
def test_distribution_csv_matches_csv_writer(tmp_path, floor):
    values = [0.0, 5e-324, 1e-310, 1.0, 0.1, 1 / 3, 2.0 ** -60, 0.7, 0.3]
    grid = walk.Snapshot(t=1, prob=np.resize(np.array(values), (5, 5)))
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(FIG2_INITIAL), 7,
                         snapshot_times=(7,))
    files = []
    for snap in (grid, traj.snapshots[7]):
        walk.write_distribution_csv(tmp_path / "new.csv", snap, floor=floor)
        reference_distribution_csv(tmp_path / "ref.csv", snap, floor=floor)
        files.append((tmp_path / "new.csv").read_bytes())
        assert files[-1] == (tmp_path / "ref.csv").read_bytes()
    # the grid starts at (-2, -2) with 0.0 and the subnormal 5e-324
    assert files[0].startswith(b"x,y,P\r\n-2,-2,0.0\r\n-2,-1,5e-324\r\n") == (floor == 0)
    assert (b"1e-310" in files[0]) == (floor < 1e-310)


@pytest.mark.parametrize("floor", [float("nan"), -1.0, float("inf")])
def test_distribution_csv_rejects_bad_floor(tmp_path, floor):
    snap = walk.Snapshot(t=0, prob=np.ones((3, 3)) / 9)
    path = tmp_path / "dist.csv"
    with pytest.raises(ValueError, match="floor"):
        walk.write_distribution_csv(path, snap, floor=floor)
    assert not path.exists()


def test_block_shifts_match_hand_written_table():
    # L, D, U, R land at these (u, v) block offsets
    assert walk._SHIFTS == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_simulate_checks_the_coin_once(monkeypatch):
    calls = []

    def counting(coin, *args, **kwargs):
        calls.append(1)
        return require_unitary(coin, *args, **kwargs)

    monkeypatch.setattr(walk, "require_unitary", counting)
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(FIG2_INITIAL), 20)
    assert len(calls) == 1
    assert traj.p_origin.shape == (21,)


def test_trajectory_csv_matches_csv_writer(tmp_path):
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(FIG2_INITIAL), 9)
    synthetic = walk.Trajectory(steps=3, p_origin=np.array([1.0, 0.0, 5e-324, 1 / 3]),
                                snapshots={})
    for tr in (traj, synthetic):
        walk.write_trajectory_csv(tmp_path / "new.csv", tr)
        reference_trajectory_csv(tmp_path / "ref.csv", tr)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
