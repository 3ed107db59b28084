import numpy as np
import pytest
from scipy.integrate import quad

from trapwalk import classify, coins, spectral
from trapwalk.linalg import unitarity_defect

from conftest import DRAWERS, draw_type_i

QUARTER = np.pi / 4
FIG2_PARAMS = coins.TypeIParams(np.pi / 3, QUARTER)


def ellipse_intersection_area(a1, b1, a2, b2):
    """Quadrature oracle: integrate the lower envelope of the two ellipses."""
    def height(x):
        y1 = b1 * np.sqrt(max(1 - (x / a1) ** 2, 0.0)) if abs(x) <= a1 else 0.0
        y2 = b2 * np.sqrt(max(1 - (x / a2) ** 2, 0.0)) if abs(x) <= a2 else 0.0
        return min(y1, y2)

    lim = min(a1, a2)
    if lim == 0.0:
        return 0.0
    # locate the envelope switch, if there is one, to help the quadrature
    num = b1 * b1 - b2 * b2
    den = (b1 / a1) ** 2 - (b2 / a2) ** 2
    points = []
    if abs(den) > 1e-14 and 0.0 < num / den < lim * lim:
        points = [np.sqrt(num / den)]
    value, _ = quad(height, 0.0, lim, points=points, limit=200)
    return 4.0 * value


# ------------------------------------------------------------ momentum operator

def test_momentum_operator_at_zero_is_coin(rng):
    c = coins.coin_type_i(draw_type_i(rng))
    assert np.array_equal(spectral.momentum_operator(c, 0.0, 0.0), c)


def test_momentum_operator_grover_eigenvalues():
    op = spectral.momentum_operator(coins.grover_coin(), 0.0, 0.0)
    vals = np.sort(np.linalg.eigvals(op).real)
    assert np.allclose(vals, [-1, -1, -1, 1], atol=1e-12)


def test_momentum_operator_unitary(rng):
    c = coins.coin_type_i(draw_type_i(rng))
    for _ in range(5):
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        assert unitarity_defect(spectral.momentum_operator(c, kx, ky)) < 1e-14


def test_momentum_operator_matches_hand_written_phases(rng):
    # diag(e^{-ikx}, e^{-iky}, e^{iky}, e^{ikx}) C, the shift as once spelled out
    c = coins.coin_type_i(draw_type_i(rng))
    kx = np.concatenate([[0.0, -0.0, 0.0, np.pi], rng.uniform(-np.pi, np.pi, 20)])
    ky = np.concatenate([[0.0, 0.0, -0.0, -np.pi], rng.uniform(-np.pi, np.pi, 20)])
    reference = np.exp(1j * np.stack([-kx, -ky, ky, kx], axis=-1))[:, :, None] * c
    assert spectral.momentum_operator(c, kx, ky).tobytes() == reference.tobytes()
    for a, b, ref in zip(kx, ky, reference):
        assert spectral.momentum_operator(c, a, b).tobytes() == ref.tobytes()


def test_momentum_operator_broadcasts_like_scalar_calls(rng):
    c = coins.coin_type_i(draw_type_i(rng))
    kx = rng.uniform(-np.pi, np.pi, (3, 5))
    ky = rng.uniform(-np.pi, np.pi, (3, 5))
    ops = spectral.momentum_operator(c, kx, ky)
    assert ops.shape == (3, 5, 4, 4)
    scalar = np.array([[spectral.momentum_operator(c, float(a), float(b))
                        for a, b in zip(row_x, row_y)] for row_x, row_y in zip(kx, ky)])
    assert np.array_equal(ops, scalar)
    # a scalar broadcasts against an array
    row = spectral.momentum_operator(c, 0.0, ky[0])
    assert np.array_equal(row, [spectral.momentum_operator(c, 0.0, float(b)) for b in ky[0]])


# -------------------------------------------------------------- dispersion spec

def test_dispersion_values_full_rank():
    spec = spectral.dispersion_spec(FIG2_PARAMS)
    assert spec.beta == 0.0
    assert spec.rho_x == pytest.approx(np.sqrt(2) / 4)
    assert spec.rho_y == pytest.approx(np.sqrt(6) / 4)


def test_dispersion_values_grover():
    spec = spectral.dispersion_spec(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi))
    assert spec.rho_x == pytest.approx(0.5)
    assert spec.rho_y == pytest.approx(0.5)
    assert spec.beta == pytest.approx(0.0)


def test_dispersion_quasi_1d_when_angle_degenerates():
    spec = spectral.dispersion_spec(coins.TypeIParams(0.0, 0.7))
    assert spec.rho_y == 0.0 and spec.rho_x == pytest.approx(np.cos(0.7))


def test_dispersion_negative_eta_folds_sign(rng):
    p = coins.TypeIIaParams(0.7, 0.5, 1.2, -2.3, 0.3, 1.1, 2.2, 0.7, 1.9)
    spec = spectral.dispersion_spec(p)
    assert spec.rho_x >= 0 and spec.rho_y >= 0


def test_omega_values():
    grover = spectral.dispersion_spec(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi))
    assert spectral.omega(grover, 0.0, 0.0) == pytest.approx(-np.pi)
    fig2 = spectral.dispersion_spec(FIG2_PARAMS)
    assert spectral.omega(fig2, np.pi / 2, np.pi / 2) == pytest.approx(-np.pi / 2)
    expected = -np.arccos((np.sqrt(2) + np.sqrt(6)) / 4)
    assert spectral.omega(fig2, np.pi, np.pi) == pytest.approx(expected)


def test_omega_range(rng):
    spec = spectral.dispersion_spec(draw_type_i(rng))
    ks = rng.uniform(-np.pi, np.pi, (50, 2))
    values = spectral.omega(spec, ks[:, 0], ks[:, 1])
    assert np.all(values <= 0) and np.all(values >= -np.pi)


# -------------------------------------------------- group velocity and Hessian

def test_group_velocity_at_band_center():
    spec = spectral.dispersion_spec(FIG2_PARAMS)
    vx, vy = spectral.group_velocity(spec, 0.0, 0.0)
    assert vx == pytest.approx(0.0) and vy == pytest.approx(0.0)


def test_group_velocity_caustic_values():
    spec = spectral.dispersion_spec(FIG2_PARAMS)
    vx, vy = spectral.group_velocity(spec, np.pi / 2, np.pi / 2)
    assert vx == pytest.approx(np.sqrt(2) / 4)
    assert vy == pytest.approx(np.sqrt(6) / 4)
    assert spectral.hessian_det(spec, np.pi / 2, np.pi / 2) == pytest.approx(0.0, abs=1e-14)


def test_group_velocity_singular_at_band_edge():
    grover = spectral.dispersion_spec(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi))
    vx, vy = spectral.group_velocity(grover, 0.0, 0.0)
    assert np.isnan(vx) and np.isnan(vy)
    assert np.isnan(spectral.hessian_det(grover, 0.0, 0.0))


def test_derivatives_broadcast_like_scalar_calls(rng):
    grover = spectral.dispersion_spec(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi))
    ks = np.vstack([[0.0, 0.0], rng.uniform(-np.pi, np.pi, (40, 2))])
    for spec in (grover, spectral.dispersion_spec(FIG2_PARAMS)):
        vx, vy = spectral.group_velocity(spec, ks[:, 0], ks[:, 1])
        det_h = spectral.hessian_det(spec, ks[:, 0], ks[:, 1])
        assert vx.shape == vy.shape == det_h.shape == (len(ks),)
        for i, (kx, ky) in enumerate(ks):
            sx, sy = spectral.group_velocity(spec, kx, ky)
            np.testing.assert_array_equal([vx[i], vy[i], det_h[i]],
                                          [sx, sy, spectral.hessian_det(spec, kx, ky)])
    vx, vy = spectral.group_velocity(grover, ks[:, 0], ks[:, 1])
    det_h = spectral.hessian_det(grover, ks[:, 0], ks[:, 1])
    # only k = (0, 0) sits on the Grover band edge
    assert np.isnan(vx[0]) and np.isnan(vy[0]) and np.isnan(det_h[0])
    assert np.isfinite(vx[1:]).all() and np.isfinite(det_h[1:]).all()


def _fd_gradient(spec, kx, ky, h=1e-4):
    do_x = (spectral.omega(spec, kx + h, ky) - spectral.omega(spec, kx - h, ky)) / (2 * h)
    do_y = (spectral.omega(spec, kx, ky + h) - spectral.omega(spec, kx, ky - h)) / (2 * h)
    return float(do_x), float(do_y)


def _fd_hessian_det(spec, kx, ky, h=1e-4):
    om = lambda dx, dy: float(spectral.omega(spec, kx + dx, ky + dy))
    centre = om(0, 0)
    dxx = (om(h, 0) - 2 * centre + om(-h, 0)) / h**2
    dyy = (om(0, h) - 2 * centre + om(0, -h)) / h**2
    dxy = (om(h, h) - om(h, -h) - om(-h, h) + om(-h, -h)) / (4 * h**2)
    return dxx * dyy - dxy * dxy


def test_derivatives_match_finite_differences(rng):
    # checked away from band edges where the central difference is accurate
    for params in (draw_type_i(rng), coins.TypeIIaParams(0.7, 0.5, 1.2, 1.8, 0.3, 1.1, 2.2, 0.7, 1.9)):
        spec = spectral.dispersion_spec(params)
        count = 0
        while count < 120:
            kx, ky = rng.uniform(-np.pi, np.pi, 2)
            u = spec.rho_x * np.cos(kx + spec.phi_x) + spec.rho_y * np.cos(ky + spec.phi_y)
            if abs(u) > 0.9:
                continue
            count += 1
            vx, vy = spectral.group_velocity(spec, kx, ky)
            fx, fy = _fd_gradient(spec, kx, ky)
            assert abs(vx - fx) < 1e-6 and abs(vy - fy) < 1e-6
            assert abs(spectral.hessian_det(spec, kx, ky) - _fd_hessian_det(spec, kx, ky)) < 1e-6


# ---------------------------------------------------------------- spread region

def test_region_reference_geometry():
    region = spectral.spread_region(spectral.dispersion_spec(FIG2_PARAMS))
    assert region.a1 == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert region.b1 == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert region.a2 == pytest.approx(0.5, abs=1e-12)
    assert region.b2 == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert region.vx_int == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)
    assert region.theta1 == pytest.approx(np.pi / 3, abs=1e-12)
    assert region.theta2 == pytest.approx(np.pi / 2, abs=1e-12)
    assert region.area == pytest.approx(np.pi / 6 + np.sqrt(3) * np.pi / 8, abs=1e-12)


def test_region_matches_quadrature(rng):
    for _ in range(25):
        region = spectral.spread_region(spectral.dispersion_spec(draw_type_i(rng)))
        oracle = ellipse_intersection_area(region.a1, region.b1, region.a2, region.b2)
        assert region.area == pytest.approx(oracle, rel=1e-6)


def test_region_coincident_circles():
    region = spectral.spread_region(
        spectral.dispersion_spec(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi)))
    r = 1 / np.sqrt(2)
    for value in (region.a1, region.b1, region.a2, region.b2):
        assert value == pytest.approx(r, abs=1e-12)
    assert region.area == pytest.approx(np.pi / 2, abs=1e-12)


def test_region_coincident_general_angle():
    p = coins.TypeIIaParams(np.pi / 6, QUARTER, QUARTER, np.pi)
    region = spectral.spread_region(spectral.dispersion_spec(p))
    assert region.a1 == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert region.b1 == pytest.approx(0.5, abs=1e-12)
    assert region.a2 == pytest.approx(region.a1, abs=1e-12)
    assert region.area == pytest.approx(np.pi * region.a1 * region.b1, abs=1e-12)


@pytest.mark.parametrize("ulps", [-4, -1, 1, 4])
def test_region_on_boundary_ignores_rounding(ulps):
    # rho_x + rho_y = 1 (Grover): a few ulp off the boundary in the amplitudes,
    # as recovered parameters give, must not move the region by ~sqrt(eps)
    rho = 0.5 + ulps * np.finfo(float).eps
    region = spectral.spread_region(spectral.DispersionSpec("2d", 0.0, 0.5, rho))
    r = 1 / np.sqrt(2)
    for value in (region.a1, region.b1, region.a2, region.b2):
        assert value == pytest.approx(r, abs=1e-12)
    assert region.area == pytest.approx(np.pi / 2, abs=1e-12)


def test_region_segment_for_quasi_1d():
    p = coins.TypeIIbParams(variant=1, delta=0.6)
    region = spectral.spread_region(spectral.dispersion_spec(p))
    assert region.a1 == pytest.approx(np.cos(0.6))
    assert region.a2 == pytest.approx(np.cos(0.6))
    assert region.b1 == 0.0 and region.b2 == 0.0 and region.area == 0.0
    p2 = coins.TypeIIbParams(variant=2, delta=0.6)
    region2 = spectral.spread_region(spectral.dispersion_spec(p2))
    assert region2.b1 == pytest.approx(np.cos(0.6)) and region2.a1 == 0.0


@pytest.mark.parametrize("field", ["beta", "rho_x", "rho_y", "phi_x", "phi_y"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dispersion_spec_rejects_non_finite(field, value):
    kwargs = {"kind": "2d", "beta": 0.1, "rho_x": 0.3, "rho_y": 0.2, "phi_x": 0.4, "phi_y": 0.5}
    with pytest.raises(ValueError, match="finite"):
        spectral.DispersionSpec(**(kwargs | {field: value}))


def test_region_fully_trapped_degenerate():
    spec = spectral.DispersionSpec(kind="2d", beta=0.0, rho_x=0.0, rho_y=0.0)
    region = spectral.spread_region(spec)
    assert region.area == 0.0 and region.a1 == 0.0 and region.vx_int == 0.0


def test_velocities_stay_inside_region(rng):
    spec = spectral.dispersion_spec(coins.TypeIParams(np.pi / 3, np.pi / 8))
    region = spectral.spread_region(spec)
    count = 0
    while count < 3000:
        kx, ky = rng.uniform(-np.pi, np.pi, 2)
        vx, vy = spectral.group_velocity(spec, kx, ky)
        if np.isnan(vx):
            continue
        count += 1
        m1 = (vx / region.a1) ** 2 + (vy / region.b1) ** 2
        m2 = (vx / region.a2) ** 2 + (vy / region.b2) ** 2
        assert max(m1, m2) <= 1 + 1e-9


def test_caustic_images_on_both_boundaries():
    spec = spectral.dispersion_spec(FIG2_PARAMS)
    region = spectral.spread_region(spec)
    vy_int = region.b1 * np.sqrt(1 - (region.vx_int / region.a1) ** 2)
    for sx in (1, -1):
        for sy in (1, -1):
            vx, vy = sx * region.vx_int, sy * vy_int
            m1 = (vx / region.a1) ** 2 + (vy / region.b1) ** 2
            m2 = (vx / region.a2) ** 2 + (vy / region.b2) ** 2
            assert abs(m1 - 1) < 1e-9 and abs(m2 - 1) < 1e-9


# ------------------------------------------------------------------- area sweep

def test_area_sweep_properties():
    grid, table = spectral.area_sweep(50)
    assert np.all(np.isnan(np.diag(table)))
    assert np.nanmax(np.abs(table - table.T)) < 1e-12
    i, j = np.unravel_index(np.nanargmax(table), table.shape)
    assert abs(grid[i] - QUARTER) < 0.1 and abs(grid[j] - QUARTER) < 0.1
    # quasi-one-dimensional edge rows: tiny covered area
    assert np.nanmax(table[0, :]) < 0.05
    assert np.nanmax(table[-1, :]) < 0.05
    # the exactly degenerate line has no spreading area at all
    degenerate = spectral.dispersion_spec(coins.TypeIParams(0.0, 0.7))
    assert spectral.spread_region(degenerate).area == 0.0


def test_area_symmetric_under_angle_swap(rng):
    for _ in range(10):
        d1, d2 = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
        if abs(d1 - d2) < 1e-6:
            continue
        a = spectral.spread_region(spectral.dispersion_spec(coins.TypeIParams(d1, d2))).area
        b = spectral.spread_region(spectral.dispersion_spec(coins.TypeIParams(d2, d1))).area
        assert a == pytest.approx(b, abs=1e-12)


# ----------------------------------------------------------- band consistency

def _match_multisets(got, expect):
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(got[:, None] - np.asarray(expect)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_band_structure_matches_eigenvalues(rng):
    for family, drawer in DRAWERS.items():
        params = drawer(rng)
        coin = coins.coin_for(params)
        spec = spectral.dispersion_spec(params)
        points = [l for l, _ in classify.detect_point_spectrum(coin)]
        assert len(points) == 2
        worst = 0.0
        for _ in range(60):
            kx, ky = rng.uniform(-np.pi, np.pi, 2)
            om = float(spectral.omega(spec, kx, ky))
            expected = points + [np.exp(1j * (spec.beta + om)), np.exp(1j * (spec.beta - om))]
            got = np.linalg.eigvals(spectral.momentum_operator(coin, kx, ky))
            worst = max(worst, _match_multisets(got, expected))
        assert worst < 1e-9, f"{family}: band mismatch {worst}"
