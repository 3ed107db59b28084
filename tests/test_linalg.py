import re

import numpy as np
import pytest

from trapwalk import classify, laurent, linalg, spectral, walk
from trapwalk.coins import balance_matrices, grover_coin, stationary_cell
from trapwalk.errors import NotUnitaryError

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


def test_require_unitary_returns_the_checked_coin():
    c = linalg.require_unitary(grover_coin().tolist())
    assert c.dtype == np.complex128 and np.array_equal(c, grover_coin())
    with pytest.raises(NotUnitaryError, match="unitarity defect 1.250e[+]00"):
        linalg.require_unitary(1.5 * grover_coin())


def test_a_coin_changed_in_place_is_checked_again():
    coin = grover_coin()
    state = walk.step(walk.initial_state([1.0, 0.0, 0.0, 0.0]), coin)
    walk.step(state, coin)
    coin[0, 0] *= 1.5
    with pytest.raises(NotUnitaryError):
        walk.step(state, coin)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coins_are_never_remembered(bad):
    coin = grover_coin()
    coin[2, 1] = bad
    for tol in (linalg.UNITARITY_TOL, np.inf, linalg.UNITARITY_TOL):
        with pytest.raises(ValueError, match="non-finite"):
            linalg.require_unitary(coin, tol=tol)
    state = walk.initial_state([1.0, 0.0, 0.0, 0.0])
    for _ in range(2):
        with pytest.raises(ValueError, match="non-finite"):
            walk.step(state, coin)


def test_a_non_default_tol_always_checks():
    # defect ~4e-13: within the default tolerance, not within 1e-14, whichever
    # tolerance the coin was first checked at
    defect = linalg.unitarity_defect(grover_coin() * (1 + 2e-13))
    assert 1e-14 < defect <= linalg.UNITARITY_TOL
    message = f"unitarity defect {defect:.3e} exceeds tolerance 1.0e-14"
    for tols in ((linalg.UNITARITY_TOL, 1e-14), (1e-14, linalg.UNITARITY_TOL)):
        coin = grover_coin() * (1 + 2e-13)
        for tol in tols + tols:
            if tol == 1e-14:
                with pytest.raises(NotUnitaryError, match=message):
                    linalg.require_unitary(coin, tol=tol)
            else:
                assert linalg.require_unitary(coin, tol=tol) is coin
    # nor does a pass at a looser tol vouch for the default one
    loose = grover_coin() * (1 + 1e-9)
    for _ in range(2):
        linalg.require_unitary(loose, tol=1e-6)
        with pytest.raises(NotUnitaryError):
            linalg.require_unitary(loose)


def test_remembered_coins_stay_bounded(rng):
    # walk remembers the products of the last 16 coins it stepped with
    state = walk.initial_state([1.0, 0.0, 0.0, 0.0])
    drawn = [random_unitary(rng) for _ in range(3 * 16)]
    for coin in drawn + drawn:
        walk.step(state, coin)
        assert linalg.require_unitary(coin) is coin
        assert linalg.require_unitary(coin.tolist()).tobytes() == coin.tobytes()
        with pytest.raises(NotUnitaryError):
            linalg.require_unitary(1.5 * coin)
        with pytest.raises(NotUnitaryError):
            walk.step(state, 1.5 * coin)
        assert 0 < len(walk._products) <= 16
    assert walk._products[0][0] == (drawn[-1].tobytes(), (4, 4))


def test_a_remembered_coin_of_another_shape_is_checked():
    # the walk's memo keys on shape as well as bytes
    state = walk.initial_state([1.0, 0.0, 0.0, 0.0])
    coin = grover_coin()
    walk.step(state, coin)
    for shape in ((16,), (2, 8)):
        with pytest.raises(ValueError, match=re.escape(f"expected shape (4, 4), got {shape}")):
            walk.step(state, coin.reshape(shape))


# Every public entry that takes a coin checks its shape before using it.
_STATE = walk.initial_state([1.0, 0.0, 0.0, 0.0])
_CELL = stationary_cell(draw_type_i(np.random.default_rng(3)))[0]
COIN_ENTRIES = {
    "linalg.require_unitary": linalg.require_unitary,
    "walk.step": lambda c: walk.step(_STATE, c),
    "walk.simulate": lambda c: walk.simulate(c, _STATE, 2),
    "classify.classify_coin": classify.classify_coin,
    "classify.detect_point_spectrum": classify.detect_point_spectrum,
    "classify.escaping_subspace": classify.escaping_subspace,
    "classify.trapped_weight_operator": classify.trapped_weight_operator,
    "classify.trapped_weight": lambda c: classify.trapped_weight(c, [1.0, 0.0, 0.0, 0.0]),
    "spectral.momentum_operator": lambda c: spectral.momentum_operator(c, 0.1, 0.2),
    "laurent.kernel_matrix": laurent.kernel_matrix,
    "laurent.localized_cells": lambda c: laurent.localized_cells(c, 1.0),
    "laurent.localized_eigenstate": lambda c: laurent.localized_eigenstate(c, 1.0),
    "laurent.verification_residual": lambda c: laurent.verification_residual(c, _CELL),
}
BAD_SHAPES = {
    "0-d": 1.0,
    "1-D": np.full(16, 0.5),
    "1x1": [[1.0]],
    "2x2": np.eye(2),
    "4x3": np.eye(4)[:, :3],
}


@pytest.mark.parametrize("shape", sorted(BAD_SHAPES))
@pytest.mark.parametrize("entry", sorted(COIN_ENTRIES))
def test_coin_entries_reject_other_shapes(entry, shape):
    with pytest.raises(ValueError, match=r"expected shape \(4, 4\), got \(") as info:
        COIN_ENTRIES[entry](BAD_SHAPES[shape])
    assert type(info.value) is ValueError


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


def test_zero_inputs_of_rank_and_phase():
    zero = np.zeros(4, dtype=np.complex128)
    assert linalg.fix_vector_phase(zero) is zero
    rank, kernel = linalg.numerical_rank(np.zeros((4, 4)))
    # every vector is in the kernel of the zero matrix's adjoint
    assert rank == 0 and np.allclose(kernel.conj().T @ kernel, np.eye(4))
