import numpy as np
import pytest

from trapwalk import linalg
from trapwalk.coins import balance_matrices, grover_coin, stationary_cell

from conftest import draw_type_i, draw_type_iib, random_unitary


def test_unitarity_defect_identity():
    assert linalg.unitarity_defect(np.eye(4)) == 0.0


def test_unitarity_defect_grover():
    # direct multiplication: (2|s><s| - I)^2 = I
    assert linalg.unitarity_defect(grover_coin()) < 1e-15


def test_unitarity_defect_all_ones():
    # J^dag J = 4 J, so the largest entry of J^dag J - I is the off-diagonal 4
    assert linalg.unitarity_defect(np.ones((4, 4))) == pytest.approx(4.0)


def test_unitarity_defect_rejects_nonfinite():
    bad = np.eye(4, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        linalg.unitarity_defect(bad)


def _amplitude_matrix(params):
    return balance_matrices(stationary_cell(params)[0]).a


def test_rank_full_for_strong_trapping_cell(rng):
    rank, kernel = linalg.numerical_rank(_amplitude_matrix(draw_type_i(rng)))
    assert rank == 4
    assert kernel.shape == (4, 0)


def test_rank_three_for_grover_cell():
    from trapwalk.coins import TypeIIaParams

    quarter = np.pi / 4
    a = _amplitude_matrix(TypeIIaParams(quarter, quarter, quarter, np.pi))
    rank, kernel = linalg.numerical_rank(a)
    assert rank == 3
    assert kernel.shape == (4, 1)
    assert np.linalg.norm(a.conj().T @ kernel[:, 0]) < 1e-10


def test_rank_two_for_quasi_1d_cell(rng):
    rank, kernel = linalg.numerical_rank(_amplitude_matrix(draw_type_iib(rng)))
    assert rank == 2
    assert kernel.shape == (4, 2)


def test_rank_invariant_under_unitaries(rng):
    m = np.zeros((4, 4), dtype=complex)
    m[:, :2] = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    for tol in (1e-10, 1e-8, 1e-6):
        base, _ = linalg.numerical_rank(m, tol)
        rot, _ = linalg.numerical_rank(random_unitary(rng) @ m @ random_unitary(rng), tol)
        assert rot == base == 2


def test_rank_requires_positive_tol():
    with pytest.raises(ValueError):
        linalg.numerical_rank(np.eye(4), tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 1.0])
def test_rank_rejects_tol_outside_unit_interval(tol):
    with pytest.raises(ValueError):
        linalg.numerical_rank(np.eye(4), tol=tol)
