import csv

import numpy as np
import pytest

from trapwalk import coins, spectral, walk

from conftest import DRAWERS

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
