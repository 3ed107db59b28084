import csv
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from trapwalk import _text, classify, coins, laurent, spectral, walk
from trapwalk.linalg import require_unitary

from conftest import DRAWERS, hadamard_tensor_coin, random_unitary, short_decimals

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


def test_state_from_cell_rejects_a_cell_that_fails_validation():
    # eight unit amplitudes under the recorded norm 2 would walk with total probability 2
    for cell, message in [(coins.AmplitudeCell(*[1.0] * 8, norm=2.0), "recorded norm"),
                          (coins.AmplitudeCell(*[0.0] * 8), "zero cell")]:
        with pytest.raises(ValueError, match=message):
            walk.state_from_cell(cell)
    grover = coins.grover_coin()
    params = coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi)
    cells = list(coins.stationary_cell(params))
    cells += [cell for lam, _ in classify.detect_point_spectrum(grover)
              for cell in laurent.localized_cells(grover, lam)]
    for cell in cells:
        assert walk.state_from_cell(cell).total_probability() == pytest.approx(1.0, abs=1e-12)


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
    # any eight unit amplitudes, which state_from_cell rejects as no stationary
    # cell, laid out on the two blocks where it lays out a cell
    xi = coins.AmplitudeCell(*_unit(rng, 8), norm=1.0).local_states()
    blocks = ((0, 0, np.stack([xi[0, 0], xi[1, 1]], axis=1)[:, :, None]),
              (1, -1, np.stack([xi[0, 1], xi[1, 0]], axis=1)[:, None, :]))
    starts.append((walk.WalkState(t=1, blocks=blocks), _cell_field(xi), False))
    for cell in coins.stationary_cell(params) if params is not None else ():
        xi = cell.local_states() / cell.norm
        starts.append((walk.state_from_cell(cell), _cell_field(xi), False))
    return starts


def _cell_field(xi):
    """The dense t = 1 window holding the local states ``xi[dx, dy]`` at (dx, dy)."""
    field = np.zeros((4, 5, 5), dtype=np.complex128)
    field[:, 2:4, 2:4] = xi.transpose(2, 0, 1)
    return field


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
    # numpy integers are integers too
    traj = walk.simulate(coins.grover_coin(),
                         walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)),
                         np.int64(12), snapshot_times=(np.int64(6), 12))
    assert traj.p_origin.shape == (13,)
    assert traj.p_origin[0] == pytest.approx(1.0)
    assert traj.p_origin[1] == pytest.approx(0.0)
    assert set(traj.snapshots) == {6, 12}
    assert traj.snapshots[6].prob.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("times", [(2, 9), (-1,), (2.5,), (True,)])
def test_simulate_rejects_snapshot_times_outside_run(times):
    # the error names the bad time, the last one of each case
    with pytest.raises(ValueError, match=re.escape(repr(times[-1]))):
        walk.simulate(coins.grover_coin(),
                      walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)), 3,
                      snapshot_times=times)


def test_simulate_requires_steps():
    for steps in (0, -1, 2.5, True, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match=re.escape(repr(steps))):
            walk.simulate(coins.grover_coin(),
                          walk.initial_state(np.array([1, 0, 0, 0], dtype=complex)), steps)


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


@pytest.mark.parametrize("params, block", [
    (coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi), None),   # Grover
    (coins.TypeIIaParams(np.pi / 6, QUARTER, QUARTER, np.pi), None),  # fig4
    (coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi), 7),
], ids=["grover", "fig4", "grover-blocks-of-7"])
def test_distribution_csv_matches_csv_writer_across_row_blocks(tmp_path, monkeypatch,
                                                                params, block):
    if block:
        monkeypatch.setattr(_text, "_BLOCK_VALUES", block)
    # grids of 123 and 263 rows are no multiple of the rows of one block
    traj = walk.simulate(coins.coin_for(params), walk.initial_state(FIG2_INITIAL), 130,
                         snapshot_times=(60, 130))
    for snap in traj.snapshots.values():
        assert snap.prob.size > _text._BLOCK_VALUES
        for floor in (0.0, 1e-12):
            walk.write_distribution_csv(tmp_path / "new.csv", snap, floor=floor)
            reference_distribution_csv(tmp_path / "ref.csv", snap, floor=floor)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _edge_floats() -> np.ndarray:
    """Powers of 2 and 10 over the whole range with their neighbours, the
    ends of the subnormal and normal ranges, both sides of repr's switches
    to exponent form, integers at 2^53 and where Ryu's exact branches act,
    and a few familiar fractions; both signs."""
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]])
    named = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-4, 1e16,
             2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1.7976931348623157e308,
             1.0, 100.0, 1e22, 1e23, 0.1, 0.3, 1 / 3]
    values = np.concatenate([powers, named])
    largest = np.finfo(np.float64).max
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, largest)])
    return np.concatenate([values, -values])


def test_float_texts_match_repr_on_edge_values():
    values = _edge_floats()
    assert _text._float_texts(values) == list(map(repr, values.tolist()))


def test_float_texts_match_repr_on_random_bit_patterns():
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    # every sign, exponent (NaN and infinities too) and mantissa; plus subnormals
    subnormal = rng.integers(0, 2 ** 52, 20_000, dtype=np.uint64) | (rng.integers(
        0, 2, 20_000, dtype=np.uint64) << np.uint64(63))
    values = np.concatenate([bits, subnormal]).view(np.float64)
    assert _text._float_texts(values) == list(map(repr, values.tolist()))


def test_float_texts_match_repr_on_short_decimals():
    # uniform bit patterns almost all have 16- or 17-digit reprs; these drop
    # many digits or round up, subnormals and both signs included
    values = short_decimals(np.random.default_rng(33), 21_000)
    assert _text._float_texts(values) == list(map(repr, values.tolist()))


def test_product_matrix_is_one_read_only_array_per_coin():
    for params in (coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi),        # real
                   coins.TypeIIaParams(np.pi / 6, QUARTER, QUARTER, np.pi)):     # complex
        coin = coins.coin_for(params)
        product = walk._product_matrix(coin)
        assert not product.flags.writeable
        assert walk._product_matrix(coin.copy()) is product
        expected = coin if np.count_nonzero(coin.imag) else coin.real
        assert product.dtype == expected.dtype and np.array_equal(product, expected)


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


KERNEL_PARAMS = {
    "grover": coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi),
    "fig2": coins.TypeIParams(np.pi / 3, QUARTER),
    "fig6": coins.TypeIIbParams(variant=1, delta=QUARTER),
}


# The real kernel coins, drawn complex coins of each family, and H (x) H
_DRAWN = np.random.default_rng(24)
SIMULATE_COINS = {name: (coins.coin_for(params), params) for name, params in KERNEL_PARAMS.items()}
SIMULATE_COINS.update((f"drawn {family}", (coins.coin_for(params), params))
                      for family, params in ((f, draw(_DRAWN)) for f, draw in DRAWERS.items()))
SIMULATE_COINS["H(x)H"] = (hadamard_tensor_coin(), None)


@pytest.mark.parametrize("name", sorted(SIMULATE_COINS))
def test_simulate_matches_a_loop_of_steps_bit_for_bit(monkeypatch, name):
    # Small chunks make a walk of 43 steps sweep over many windows of rows.
    # Snapshots end sweeps of depth 1 and 3 and an unbroken sweep of
    # _SWEEP_STEPS; 43 and 130 steps end in sweeps short of it.  Every coin,
    # real or complex, also sweeps 130 steps at the module's chunk size,
    # where the blocks outgrow one window.
    # simulate's reused buffers and strips must give what fresh states give.
    coin, params = SIMULATE_COINS[name]
    starts = [walk.initial_state(FIG2_INITIAL)]
    if params is not None:   # and the two-block starts of both stationary cells
        starts += [walk.state_from_cell(cell) for cell in coins.stationary_cell(params)]
    runs = [(37, 43), (300, 43), (walk._CHUNK_SITES, 130)]
    assert all(steps % walk._SWEEP_STEPS for _, steps in runs) and walk._SWEEP_STEPS == 24
    for (chunk, steps), start in itertools.product(runs, starts):
        monkeypatch.setattr(walk, "_CHUNK_SITES", chunk)
        times = (start.t + 1, start.t + 4, start.t + 28, start.t + steps)
        traj = walk.simulate(coin, start, steps, snapshot_times=times)
        state, p_origin = start, [start.origin_probability()]
        for _ in range(steps):
            state = walk.step(state, coin)
            p_origin.append(state.origin_probability())
            if state.t in times:
                assert traj.snapshots[state.t].prob.tobytes() == state.probability().tobytes()
        assert traj.p_origin.tobytes() == np.array(p_origin).tobytes()


def _dense_reference(state):
    """The dense window filled site by site from ``WalkState.amplitude``."""
    n = 2 * state.t + 3
    field = np.zeros((4, n, n), dtype=complex)
    for x, y in itertools.product(range(n), repeat=2):
        field[:, x, y] += state.amplitude(x - state.offset, y - state.offset)
    return field


@pytest.mark.parametrize("name", ["fig2", "drawn TypeIIa"])   # a real and a complex coin
@pytest.mark.parametrize("chunk", [7, 37])
def test_dense_views_match_site_by_site_references(monkeypatch, name, chunk):
    # The views place blocks a chunk of rows at a time; chunks of 7 and 37
    # sites end inside blocks and windows of every width up to t = 12.
    monkeypatch.setattr(walk, "_CHUNK_SITES", chunk)
    coin, params = SIMULATE_COINS[name]
    region = spectral.spread_region(spectral.dispersion_spec(params))
    counted = 0.0
    for state in (walk.initial_state(FIG2_INITIAL),
                  walk.state_from_cell(coins.stationary_cell(params)[0])):
        for _ in range(12):
            state = walk.step(state, coin)
            field = _dense_reference(state)
            prob = np.sum(np.abs(field) ** 2, axis=0)
            assert state.field.tobytes() == field.tobytes()
            assert state.probability().tobytes() == prob.tobytes()
            snap = walk.Snapshot(t=state.t, prob=prob)
            xs, ys = snap.coordinates()
            central = (np.abs(xs) <= 2) & (np.abs(ys) <= 2)
            for inflation, floor in ((1.0, 0.0), (1.05, 1e-5)):
                inside = spectral.region_contains(region, xs / state.t, ys / state.t, inflation)
                expected = float(np.sum(prob[(prob > floor) & ~inside & ~central]))
                assert walk.coverage_fraction(snap, region, inflation, floor) == expected
                counted += expected
    assert counted > 0.0


def test_dense_views_cost_their_output_plus_a_chunk():
    # numpy reports its buffers to tracemalloc, so the traced peak does not
    # depend on where the allocator places them
    state = walk.initial_state(FIG2_INITIAL)
    for _ in range(300):
        state = walk.step(state, coins.grover_coin())
    snap = walk.Snapshot(t=state.t, prob=state.probability())
    region = spectral.spread_region(spectral.dispersion_spec(KERNEL_PARAMS["grover"]))
    assert walk.coverage_fraction(snap, region) > 0.0
    for view in (state.probability, lambda: state.field,
                 lambda: walk.coverage_fraction(snap, region)):
        tracemalloc.start()
        try:
            out = view()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # of order _CHUNK_SITES x 64 bytes: a chunk's temporaries, not the window's
        assert peak - np.asarray(out).nbytes < walk._CHUNK_SITES * 128, view


@pytest.mark.parametrize("u0, v0", [(-3, -3), (1, 1), (-4, 0), (2, -2)])
def test_dense_views_reject_a_block_outside_the_window(u0, v0):
    # a 2x2 block at t = 1 past each edge of the 5x5 window: rows -1..1,
    # rows 3..5, columns -1..1, columns 3..5; strided views would write past it
    state = walk.WalkState(t=1, blocks=((u0, v0, np.ones((4, 2, 2), dtype=complex)),))
    for view in (state.probability, lambda: state.field):
        with pytest.raises(ValueError, match="leaves the window"):
            view()


def _one_product_step(state, c):
    """The step with the coin product formed over each whole block at once.

    A real ``c`` (float64) multiplies the re, im pairs of the amplitudes as
    one real product, as the kernel does for a coin with no imaginary part.
    The product runs over zero sites up to a multiple of four, so that no
    site falls in the last n % 4 columns, which OpenBLAS's ``zgemm`` rounds
    its own way (``walk._product``).
    """
    blocks = []
    for u0, v0, amps in state.blocks:
        _, a, b = amps.shape
        sites = np.pad(amps.reshape(4, -1), ((0, 0), (0, -a * b % 4)))
        mixed = (c @ sites.view(c.dtype)).view(np.complex128)[:, :a * b].reshape(4, a, b)
        out = np.zeros((4, a + 1, b + 1), dtype=np.complex128)
        for k, (di, dj) in enumerate(walk._SHIFTS):
            out[k, di:di + a, dj:dj + b] = mixed[k]
        blocks.append((u0 - 1, v0 - 1, out))
    return walk.WalkState(t=state.t + 1, blocks=tuple(blocks))


@pytest.mark.parametrize("name", ["Haar", "grover"])
def test_a_product_of_any_piece_rounds_as_one_long_product(rng, name):
    # OpenBLAS's zgemm rounds the last n % 4 columns of a call its own way;
    # walk._product forms them again, so every call length and offset, and
    # the 2-row products a sweep places at a row stride, give each site the
    # bits of one long product (48 sites, with no such tail)
    coin = random_unitary(rng) if name == "Haar" else coins.grover_coin()
    c = walk._product_matrix(coin)
    assert c.dtype == (np.complex128 if name == "Haar" else np.float64)
    sites = rng.normal(size=(4, 48)) + 1j * rng.normal(size=(4, 48))
    x = sites.view(c.dtype)
    w = x.shape[1] // 48   # columns per site
    for rows in (c, c[:2], c[2:]):
        long = rows @ x
        for n, offset in itertools.product(range(1, 41), range(8)):
            cols = slice(w * offset, w * (offset + n))
            out = np.full((len(rows), w * (n + 3)), np.nan, dtype=c.dtype)[:, w:w * (n + 1)]
            walk._product(rows, x[:, cols], out)
            assert out.tobytes() == long[:, cols].tobytes(), (len(rows), n, offset)


def _momentum_oracle(coin, psi, t):
    """P(x, y, t) of the walk from the origin with coin state ``psi``, from
    the momentum-space operator alone.

    After t steps the amplitudes are a trigonometric polynomial of degree t
    in kx and ky, so on n = 2t + 3 momenta k = 2 pi m / n the inverse DFT of
    U(k)^t psi gives every site of the dense window, with no aliasing:
    ``fftshift(fft2(U^t psi)) / n^2``.  U^t is formed by repeated squaring.
    """
    n = 2 * t + 3
    k = 2 * np.pi * np.arange(n) / n
    u = spectral.momentum_operator(coin, k[:, None], k[None, :])
    power = np.broadcast_to(np.eye(4), u.shape)
    while t:
        if t & 1:
            power = power @ u
        u, t = u @ u, t >> 1
    field = np.fft.fftshift(np.fft.fft2(power @ psi, axes=(0, 1)), axes=(0, 1)) / n ** 2
    return np.sum(np.abs(field) ** 2, axis=-1)


FIG4 = coins.TypeIIaParams(np.pi / 6, QUARTER, QUARTER, np.pi)


@pytest.mark.parametrize("coin, psi", [
    (coins.grover_coin(), FIG2_INITIAL),
    (coins.coin_for(FIG4), coins.escaping_state(FIG4)),   # the fig4 escaping state
    (SIMULATE_COINS["drawn TypeI"][0], FIG2_INITIAL),
], ids=["grover", "fig4", "drawn TypeI"])
def test_simulate_matches_the_momentum_space_oracle(coin, psi):
    # the oracle shares no code with the walk, and checks its complex
    # products (the fig4 and drawn coins) as well as its real ones; 51
    # steps end in a sweep short of _SWEEP_STEPS
    traj = walk.simulate(coin, walk.initial_state(psi), 51, snapshot_times=(26, 51))
    for t in (26, 51):
        assert np.max(np.abs(traj.snapshots[t].prob - _momentum_oracle(coin, psi, t))) <= 1e-14


def _signed_permutation():
    p = np.zeros((4, 4), dtype=complex)
    p[[2, 0, 3, 1], [0, 1, 2, 3]] = [1.0, -1.0, -1.0, 1.0]
    return p


# Coins with no imaginary part, which step through the real product
REAL_COINS = {
    "grover": (coins.grover_coin(), KERNEL_PARAMS["grover"]),
    "fig2": (coins.coin_for(KERNEL_PARAMS["fig2"]), KERNEL_PARAMS["fig2"]),
    "fig6": (coins.coin_for(KERNEL_PARAMS["fig6"]), KERNEL_PARAMS["fig6"]),
    "H(x)H": (hadamard_tensor_coin(), None),
    "signed permutation": (_signed_permutation(), None),
}


@pytest.mark.parametrize("chunk, steps", [(37, 24), (walk._CHUNK_SITES, 130)])
def test_chunked_coin_product_matches_one_product(monkeypatch, rng, chunk, steps):
    # chunks of 37 sites end at every offset of zgemm's 4-column unroll, so
    # a chunk's last sites would move unless walk._product formed them again
    monkeypatch.setattr(walk, "_CHUNK_SITES", chunk)
    cases = [(coins.coin_for(params), params)
             for params in (drawer(rng) for drawer in DRAWERS.values())]
    cases += list(REAL_COINS.values())
    for coin, params in cases:
        c = walk._product_matrix(coin)
        assert c.dtype == (np.complex128 if np.any(coin.imag) else np.float64)
        starts = [walk.initial_state(_unit(rng))]
        if params is not None:
            starts += [walk.state_from_cell(cell) for cell in coins.stationary_cell(params)]
        for start in starts:
            state = reference = start
            for _ in range(steps):
                state = walk.step(state, coin)
                reference = _one_product_step(reference, c)
            for (u0, v0, amps), (r0, s0, ref) in zip(state.blocks, reference.blocks):
                assert (u0, v0) == (r0, s0) and amps.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(REAL_COINS))
def test_real_product_matches_the_complex_product(rng, name):
    # the real and the complex BLAS kernels may round a site differently;
    # P after 200 steps from this state differs by 1.4e-16 at most
    coin = REAL_COINS[name][0]
    start = walk.initial_state(_unit(rng))
    traj = walk.simulate(coin, start, 200, snapshot_times=(200,))
    reference = start
    for _ in range(200):
        reference = _one_product_step(reference, coin)
    assert np.max(np.abs(traj.snapshots[200].prob - reference.probability())) <= 1e-15


def test_coin_with_a_tiny_imaginary_part_takes_the_complex_product(rng):
    coin = coins.grover_coin()
    coin[1, 2] += 1e-300j
    assert walk._product_matrix(coin).dtype == np.complex128
    start = walk.initial_state(_unit(rng))
    state, reference = start, start
    for _ in range(100):
        state = walk.step(state, coin)
        reference = _one_product_step(reference, coin)
    assert all(amps.tobytes() == ref.tobytes()
               for (_, _, amps), (_, _, ref) in zip(state.blocks, reference.blocks))
    traj = walk.simulate(coin, start, 100, snapshot_times=(100,))
    assert traj.snapshots[100].prob.tobytes() == reference.probability().tobytes()


@pytest.mark.parametrize("name", ["grover", "fig2"])
def test_step_reads_any_block_layout(monkeypatch, rng, name):
    # a user-built state may hold float64 or strided blocks, which the real
    # product's float64 view would misread; they step to the values of the
    # same amplitudes as C-contiguous complex128
    amps = rng.normal(size=(4, 90, 110))
    amps /= np.linalg.norm(amps)
    wide = np.zeros((4, 180, 330), dtype=np.complex128)
    wide[:, ::2, ::3] = amps
    plain = walk.WalkState(t=110, blocks=((-89, -109, amps.astype(np.complex128)),))
    odd = [walk.WalkState(t=110, blocks=((-89, -109, layout),))
           for layout in (amps, wide[:, ::2, ::3], np.asfortranarray(plain.blocks[0][2]))]
    real_coin = REAL_COINS[name][0]
    for chunk in (walk._CHUNK_SITES, 10 ** 6):  # 9900 sites: chunked, then one product
        monkeypatch.setattr(walk, "_CHUNK_SITES", chunk)
        for coin in (real_coin, real_coin * np.exp(0.3j)):
            expected = walk.step(plain, coin).blocks[0][2]
            complex_product = _one_product_step(plain, coin).blocks[0][2]
            assert np.max(np.abs(expected - complex_product)) <= 1e-16
            prob = walk.simulate(coin, plain, 3, snapshot_times=(113,)).snapshots[113].prob
            for state in odd:
                assert walk.step(state, coin).blocks[0][2].tobytes() == expected.tobytes()
                traj = walk.simulate(coin, state, 3, snapshot_times=(113,))
                assert traj.snapshots[113].prob.tobytes() == prob.tobytes()


def test_step_returns_fresh_states():
    coin = coins.grover_coin()
    states = [walk.initial_state(FIG2_INITIAL)]
    for _ in range(6):
        states.append(walk.step(states[-1], coin))
    kept = [amps.copy() for _, _, amps in states[1].blocks]
    for _ in range(4):
        states.append(walk.step(states[-1], coin))
    assert all(np.array_equal(amps, copy) for (_, _, amps), copy in zip(states[1].blocks, kept))
    arrays = [amps for state in states for _, _, amps in state.blocks]
    for i, x in enumerate(arrays):
        assert not any(np.shares_memory(x, y) for y in arrays[i + 1:])


def test_trajectory_csv_matches_csv_writer(tmp_path, monkeypatch):
    traj = walk.simulate(coins.grover_coin(), walk.initial_state(FIG2_INITIAL), 9)
    long = walk.simulate(coins.grover_coin(), walk.initial_state(FIG2_INITIAL), 300)
    synthetic = walk.Trajectory(steps=3, p_origin=np.array([1.0, 0.0, 5e-324, 1 / 3]),
                                snapshots={})
    # one block of rows, then blocks of 7 rows (the 301 rows of the long walk in 43)
    for block in (_text._BLOCK_VALUES, 7):
        monkeypatch.setattr(_text, "_BLOCK_VALUES", block)
        for tr in (traj, long, synthetic):
            walk.write_trajectory_csv(tmp_path / "new.csv", tr)
            reference_trajectory_csv(tmp_path / "ref.csv", tr)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
