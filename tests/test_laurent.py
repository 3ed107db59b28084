import dataclasses

import numpy as np
import pytest

from trapwalk import coins, laurent
from trapwalk.errors import DegenerateMinorError, NotTrappingError
from trapwalk.laurent import LaurentPoly

from conftest import DRAWERS, hadamard_tensor_coin

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
    # a loose declared window only enlarges the evaluation grid
    padded = LaurentPoly(det.coeffs, window=(-2, 2, -2, 2))
    assert padded.is_identically_zero()


def test_hadamard_tensor_determinant_does_not_vanish():
    det = laurent.kernel_matrix(hadamard_tensor_coin()).det()
    assert not det.is_identically_zero()


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
