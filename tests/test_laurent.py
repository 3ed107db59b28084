import dataclasses

import numpy as np
import pytest

from trapwalk import classify, coins, laurent
from trapwalk.errors import DegenerateMinorError, NotTrappingError
from trapwalk.laurent import LaurentPoly

from conftest import DEGENERATE_COINS, DRAWERS, hadamard_tensor_coin, random_unitary

QUARTER = np.pi / 4
GROVER_PARAMS = coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi)


# ------------------------------------------------------------------ arithmetic

def test_monomial_product():
    p = LaurentPoly.monomial(1, 0) + LaurentPoly.monomial(0, -1)  # x + 1/y
    q = p * LaurentPoly.monomial(-1, 0)  # times 1/x
    assert q.coeffs == {(0, 0): 1.0, (-1, -1): 1.0}


def test_cancellation_prunes():
    p = LaurentPoly.monomial(1, 0) - LaurentPoly.monomial(1, 0)
    assert p.is_identically_zero()
    assert p.coeffs == {}
    assert p.evaluate(0.3 + 0.1j, -2.0) == 0.0


def test_window_combination():
    p = LaurentPoly.monomial(1, 2)
    q = LaurentPoly.monomial(-1, -1)
    assert (p * q).degree_window == (0, 0, 1, 1)
    assert (p + q).degree_window == (-1, 1, -1, 2)


def test_window_must_contain_support():
    with pytest.raises(ValueError):
        LaurentPoly({(2, 0): 1.0}, window=(0, 1, 0, 1))


def test_evaluate_zero_with_negative_exponent():
    p = LaurentPoly.monomial(-1, 0)
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0.0, 1.0)
    assert p.evaluate(2.0, 0.0) == 0.5


def test_evaluate_matches_direct_sum(rng):
    p = LaurentPoly({(1, 1): 2.0, (-1, 0): 1j, (0, -2): -0.5})
    for _ in range(5):
        x, y = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        direct = 2.0 * x * y + 1j / x - 0.5 / y**2
        assert abs(p.evaluate(x, y) - direct) < 1e-14


def test_kernel_matrix_at_unit_point_is_coin_minus_identity():
    g = coins.grover_coin()
    d = laurent.kernel_matrix(g)
    assert np.max(np.abs(d.evaluate(1.0, 1.0) - (g - np.eye(4)))) < 1e-15


def test_kernel_matrix_identity_coin_diagonal():
    d = laurent.kernel_matrix(np.eye(4))
    expected = [(1, 0), (0, 1), (0, -1), (-1, 0)]
    for i in range(4):
        for j in range(4):
            if i == j:
                assert d[i, j].coeffs == {(0, 0): 1.0, expected[i]: -1.0}
            else:
                assert d[i, j].coeffs == {}


# ------------------------------------------------------------ identity-zero test

def test_zero_poly_is_zero():
    assert LaurentPoly.zero().is_identically_zero()


def test_x_minus_y_not_zero():
    p = LaurentPoly.monomial(1, 0) - LaurentPoly.monomial(0, 1)
    assert not p.is_identically_zero()


def test_grover_determinant_vanishes():
    det = laurent.kernel_matrix(coins.grover_coin()).det()
    assert det.is_identically_zero()
    # a loose declared window does not change the coefficients tested
    padded = LaurentPoly(det.coeffs, window=(-2, 2, -2, 2))
    assert padded.is_identically_zero()


def test_hadamard_tensor_determinant_does_not_vanish():
    det = laurent.kernel_matrix(hadamard_tensor_coin()).det()
    assert not det.is_identically_zero()


def test_poly_is_unhashable():
    with pytest.raises(TypeError):
        hash(LaurentPoly.zero())


def random_poly(rng, window):
    """Random complex coefficients on every exponent of ``window``."""
    x0, x1, y0, y1 = window
    return LaurentPoly({(i, j): complex(*rng.normal(size=2))
                        for i in range(x0, x1 + 1) for j in range(y0, y1 + 1)})


def test_det_matches_numeric_det_off_grid(rng):
    # mixed, high-degree entries (numbers become constants): the interpolation
    # grid must cover the product window, far beyond the [-1, 1]^2 of kernel_matrix
    x, y = LaurentPoly.monomial(1, 0), LaurentPoly.monomial(0, 1)
    mats = [
        laurent.LaurentMatrix([[x * x * LaurentPoly.monomial(0, -1) + 0.3, y * y * y],
                               [1.0 - 2j * x, LaurentPoly.monomial(-2, 1)]]),
        laurent.LaurentMatrix([[x * x * LaurentPoly.monomial(0, -1) + 0.7j, y * y * y, 2.0],
                               [LaurentPoly.monomial(-3, 0), x * y - 1.0, 0.0],
                               [0.5, LaurentPoly.monomial(2, -2), x + y * y]]),
        laurent.LaurentMatrix([[random_poly(rng, (-2, 1, 0, 3)) for _ in range(3)]
                               for _ in range(3)]),
    ]
    mats += [laurent.kernel_matrix(random_unitary(rng)) for _ in range(5)]
    for mat in mats:
        det = mat.det()
        for _ in range(5):
            px, py = rng.uniform(0.5, 1.5, 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            expected = np.linalg.det(mat.evaluate(px, py))
            assert abs(det.evaluate(px, py) - expected) < 1e-10 * max(1.0, abs(expected))


# ------------------------------------------------------------ adjugate vectors

def residual_vector(dmat, w):
    return [p for p in dmat.matvec(w)]


def test_adjugate_kernel_vector_grover():
    dmat = laurent.kernel_matrix(coins.grover_coin())
    w = laurent.adjugate_kernel_vector(dmat, 3)
    assert all(p.is_identically_zero() for p in residual_vector(dmat, w))
    minor_det = dmat.minor(3, 3).det()
    assert not w[3].is_identically_zero()
    assert (w[3] + minor_det).is_identically_zero()


def test_adjugate_proportionality_grover():
    dmat = laurent.kernel_matrix(coins.grover_coin())
    w3 = laurent.adjugate_kernel_vector(dmat, 2)
    w4 = laurent.adjugate_kernel_vector(dmat, 3)
    for j in range(4):
        for k in range(4):
            assert (w3[j] * w4[k] - w3[k] * w4[j]).is_identically_zero()


def test_adjugate_degree_bounds(rng):
    # last-index vector: x-exponents in [0, 1], y-exponents in [-1, 1];
    # mirrored for the third index
    for family, drawer in DRAWERS.items():
        if family == "TypeIIb":
            continue  # minors vanish identically for direct sums
        for _ in range(6):
            dmat = laurent.kernel_matrix(coins.coin_for(drawer(rng)))
            for index, (wx, wy) in ((3, ((0, 1), (-1, 1))), (2, ((-1, 1), (0, 1)))):
                w = laurent.adjugate_kernel_vector(dmat, index)
                for comp in w:
                    xmin, xmax, ymin, ymax = comp.support_window()
                    if comp.coeffs:
                        assert wx[0] <= xmin <= xmax <= wx[1]
                        assert wy[0] <= ymin <= ymax <= wy[1]
                assert all(p.is_identically_zero() for p in residual_vector(dmat, w))


def test_adjugate_rejects_non_trapping():
    # the identity coin has no constant eigenvalue: det(D) is nonzero
    dmat = laurent.kernel_matrix(np.eye(4))
    with pytest.raises(NotTrappingError):
        laurent.adjugate_kernel_vector(dmat, 3)


def test_adjugate_degenerate_minor_for_direct_sum():
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=0.6, gamma=0.9))
    dmat = laurent.kernel_matrix(c)
    with pytest.raises(DegenerateMinorError):
        laurent.adjugate_kernel_vector(dmat, 3)


# ------------------------------------------------------- localized eigenstates

def test_grover_localized_cell():
    cell = laurent.localized_eigenstate(coins.grover_coin(), 1.0)
    assert np.allclose(cell.amplitudes, 0.5, atol=1e-10)
    assert cell.norm == pytest.approx(np.sqrt(2))


def test_grover_chiral_cell():
    cell = laurent.localized_eigenstate(coins.grover_coin(), -1.0)
    signs = np.array([1, 1, -1, -1, -1, -1, 1, 1])
    assert np.allclose(cell.amplitudes, 0.5 * signs, atol=1e-10)


def test_quasi_1d_degenerate_branch():
    gamma = 1.3
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=0.4, gamma=gamma))
    cell = laurent.localized_eigenstate(c, 1.0)
    assert cell.b == pytest.approx(1.0)
    assert cell.d == pytest.approx(np.exp(1j * gamma))
    assert all(z == 0 for z in (cell.a, cell.c, cell.e, cell.f, cell.g, cell.h))
    chiral = laurent.localized_eigenstate(c, -1.0)
    assert chiral.d == pytest.approx(-np.exp(1j * gamma))


def test_localized_cells_match_constructed(rng):
    for family, drawer in DRAWERS.items():
        for _ in range(8):
            params = drawer(rng)
            coin = coins.coin_for(params)
            cell = laurent.localized_eigenstate(coin, 1.0)
            cell.validate(tol=1e-10)
            expected, _ = coins.stationary_cell(params)
            # same ray: Cauchy-Schwarz equality up to round-off
            overlap = abs(np.vdot(expected.amplitudes, cell.amplitudes))
            assert abs(overlap - expected.norm * cell.norm) < 1e-8
            assert laurent.verification_residual(coin, cell) < 1e-9


@pytest.mark.parametrize("variant", [1, 2])
def test_quasi_1d_localized_cell_equals_stationary_cell(variant):
    params = coins.TypeIIbParams(variant=variant, delta=0.4, phi=0.3, alpha=1.0, beta=2.0,
                                 gamma=0.7, phi_f=1.9)
    coin = coins.coin_for(params)
    cell = laurent.localized_cells(coin, 1.0)[0]
    expected, _ = coins.stationary_cell(params)
    for field in dataclasses.fields(expected):
        assert getattr(cell, field.name) == getattr(expected, field.name), field.name
    assert laurent.verification_residual(coin, cell) < 1e-14


def test_localized_rejects_non_constant_eigenphase():
    with pytest.raises(NotTrappingError):
        laurent.localized_eigenstate(coins.grover_coin(), 1j)
    with pytest.raises(NotTrappingError):
        laurent.localized_eigenstate(hadamard_tensor_coin(), 1.0)


def test_direct_sum_multiplicity_block_assertion():
    # both sectors trapping with coinciding eigenvalues: two independent cells
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=np.pi / 2,
                                                phi=np.pi / 2, gamma=0.2))
    cells = laurent.localized_cells(c, 1.0)
    assert len(cells) == 2
    assert cells[0].b != 0 and cells[1].a != 0


def test_degenerate_rank3_second_eigenphase():
    eta = 2.1
    params = coins.TypeIIaParams(0.8, 0.0, 0.0, eta, 0.3, 1.1, 2.2, 0.7, 1.9)
    c = coins.coin_type_iia(params)
    lam = np.exp(1j * eta / 2)
    cell = laurent.localized_eigenstate(c, lam)
    cell.validate(tol=1e-9)
    assert cell.eigenphase == pytest.approx(lam)
    # those extra states live on the upper-right half of the cell
    assert abs(cell.a) < 1e-10 and abs(cell.b) < 1e-10
    assert abs(cell.c) > 0.1 and abs(cell.g) > 0.1


@pytest.mark.parametrize("lam", [complex("nan"), complex("nan+1j")])
def test_localized_rejects_nan_eigenphase(lam):
    with pytest.raises(ValueError, match="unit modulus"):
        laurent.localized_cells(coins.grover_coin(), lam)


# ------------------------------------------------------ exact coefficient system

def test_shift_exponents_match_hand_written_table():
    # D = C - diag(x, y, 1/y, 1/x): the exponents of the inverse momentum shift
    assert laurent._SHIFT_EXPONENTS == ((1, 0), (0, 1), (0, -1), (-1, 0))


def test_coefficient_system_structure():
    coin_terms, shift_terms = laurent._coefficient_system()
    uses_coin = coin_terms.any(axis=(0, 2))
    unknowns = np.count_nonzero(shift_terms, axis=1)
    assert np.count_nonzero(~uses_coin & (unknowns == 0)) == 40
    pinned = ~uses_coin & (unknowns == 1)
    assert np.count_nonzero(pinned) == 8
    assert np.count_nonzero(uses_coin) == 16
    assert np.all(uses_coin | (unknowns <= 1))
    # the eight single-unknown equations pin exactly the cell's structural zeros
    pinned_slots = np.count_nonzero(shift_terms[pinned], axis=0).reshape(2, 2, 4)
    assert np.array_equal(pinned_slots, (~coins._CELL_SUPPORT).astype(int))
    assert laurent._LIVE_COIN_TERMS.shape == (16, 16, 8)
    assert laurent._LIVE_SHIFT_TERMS.shape == (16, 8)


def test_coefficient_system_expands_d_psi(rng):
    coin_terms, shift_terms = laurent._coefficient_system()
    powers = np.arange(4) - 1
    for _ in range(5):
        coin = random_unitary(rng)
        xi = rng.normal(size=16) + 1j * rng.normal(size=16)
        coeffs = ((np.tensordot(coin.ravel(), coin_terms, 1) - shift_terms) @ xi).reshape(4, 4, 4)
        x, y = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        psi = np.einsum("abj,a,b->j", xi.reshape(2, 2, 4), [1, x], [1, y])
        d_psi = laurent.kernel_matrix(coin).evaluate(x, y) @ psi
        monomials = np.outer(x ** powers, y ** powers)
        assert np.max(np.abs(d_psi - np.einsum("ipq,pq->i", coeffs, monomials))) < 1e-13


def reference_stacked_kernel(adjusted, grid_n=6):
    """The former grid solve: ``D psi = 0`` sampled on a rotated node grid.

    Unknown blocks are xi(0,0), xi(1,0), xi(0,1), xi(1,1); each node (x, y)
    contributes the rows ``[D | xD | yD | xyD]``.  Returns the kernel basis
    as columns in the layout xi[dx, dy, direction], shape (16, k).
    """
    x = np.repeat(np.exp(1j * (2 * np.pi * np.arange(grid_n) / grid_n + 0.37)), grid_n)
    y = np.tile(np.exp(1j * (2 * np.pi * np.arange(grid_n) / grid_n + 0.61)), grid_n)
    d = adjusted - np.stack([x, y, 1 / y, 1 / x], axis=1)[:, :, None] * np.eye(4)
    blocks = np.concatenate(
        [d, x[:, None, None] * d, y[:, None, None] * d, (x * y)[:, None, None] * d], axis=2)
    _, s, vh = np.linalg.svd(blocks.reshape(-1, 16), full_matrices=False)
    kernel = vh.conj().T[:, s < laurent.KERNEL_REL_TOL * s[0]]
    return kernel.reshape(2, 2, 4, -1).transpose(1, 0, 2, 3).reshape(16, -1)


def coefficient_kernel(adjusted):
    """The coefficient-system kernel placed in the layout xi[dx, dy, direction]."""
    amps = laurent._cell_kernel(adjusted)
    xi = np.zeros((2, 2, 4, amps.shape[1]), dtype=np.complex128)
    xi[coins._CELL_SUPPORT] = amps
    return xi.reshape(16, -1)


def test_coefficient_kernel_matches_stacked_grid_solve(rng):
    sample = [coins.coin_for(drawer(rng)) for drawer in DRAWERS.values() for _ in range(10)]
    sample += DEGENERATE_COINS
    cases = [(coin, lam) for coin in sample
             for lam, _ in classify._point_spectrum(coin, 8, classify._DEFAULT_SEED,
                                                    classify.CLUSTER_TOL)[0]]
    cases += [(coins.grover_coin(), 1.0), (coins.grover_coin(), -1.0)]
    # the rank-3 second eigenphase of test_degenerate_rank3_second_eigenphase
    eta = 2.1
    cases.append((coins.coin_type_iia(
        coins.TypeIIaParams(0.8, 0.0, 0.0, eta, 0.3, 1.1, 2.2, 0.7, 1.9)), np.exp(1j * eta / 2)))
    dims = set()
    for coin, lam in cases:
        adjusted = np.conj(lam) * coin
        got, ref = coefficient_kernel(adjusted), reference_stacked_kernel(adjusted)
        assert got.shape[1] == ref.shape[1] >= 1
        dims.add(got.shape[1])
        assert np.max(np.abs(got @ got.conj().T - ref @ ref.conj().T)) < 1e-12
    assert min(dims) == 1 and max(dims) > 1  # the direct sums reach the multi-cell branch


def test_haar_coins_fail_the_determinant_test(rng):
    for _ in range(10):
        coin = random_unitary(rng)
        for lam in (1.0, -1.0, 1j, np.exp(0.7j)):
            with pytest.raises(NotTrappingError):
                laurent.localized_cells(coin, lam)
