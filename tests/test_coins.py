import json

import numpy as np
import pytest

from trapwalk import coins
from trapwalk.errors import ParameterDomainError
from trapwalk.linalg import unitarity_defect

from conftest import DRAWERS, draw_type_i, draw_type_iia, draw_type_iib

QUARTER = np.pi / 4


def all_params(rng, count):
    for drawer in DRAWERS.values():
        for _ in range(count):
            yield drawer(rng)


# ---------------------------------------------------------------- parameters

def test_type_i_rejects_equal_angles():
    with pytest.raises(ParameterDomainError):
        coins.TypeIParams(0.5, 0.5)


def test_type_i_accepts_boundary_angles():
    coins.TypeIParams(0.0, np.pi / 2)
    coins.TypeIParams(np.pi / 2, 0.0, phi_d=1.0, phi_e=2.0)


def test_type_iia_rejects_boundary_delta1():
    with pytest.raises(ParameterDomainError):
        coins.TypeIIaParams(0.0, 0.3, 0.3, np.pi)
    with pytest.raises(ParameterDomainError):
        coins.TypeIIaParams(np.pi / 2, 0.3, 0.3, np.pi)


def test_type_iia_rejects_zero_eta():
    with pytest.raises(ParameterDomainError):
        coins.TypeIIaParams(0.4, 0.3, 0.3, 0.0)
    # eta wraps into (-pi, pi]; a full turn is the excluded zero
    with pytest.raises(ParameterDomainError):
        coins.TypeIIaParams(0.4, 0.3, 0.3, 2 * np.pi)


def test_type_iib_rejects_bad_variant():
    with pytest.raises(ParameterDomainError):
        coins.TypeIIbParams(variant=3, delta=0.3)


@pytest.mark.parametrize("variant", [True, 1.0, np.float64(2.0), "1", None])
def test_type_iib_rejects_non_integer_variant(variant):
    with pytest.raises(ParameterDomainError, match="variant"):
        coins.TypeIIbParams(variant=variant, delta=0.3)


@pytest.mark.parametrize("variant", [2, np.int64(2), np.int32(2)])
def test_type_iib_integer_variant_round_trips_through_json(variant):
    params = coins.TypeIIbParams(variant=variant, delta=0.3, phi_f=0.4)
    assert type(params.variant) is int
    text = coins.coin_to_json(coins.coin_for(params), family="TypeIIb", params=params)
    echoed = json.loads(text)["params"]
    assert type(echoed["variant"]) is int and echoed["variant"] == 2
    assert coins.params_from_dict(echoed) == params


def test_type_iib_phi_fold_preserves_coin():
    # folding phi into [0, pi) shifts alpha and beta so the coin is unchanged
    folded = coins.TypeIIbParams(variant=1, delta=0.6, phi=4.0, alpha=0.3, beta=0.7)
    plain = coins.TypeIIbParams(variant=1, delta=0.6, phi=4.0 - np.pi,
                                alpha=0.3 + np.pi, beta=0.7 + np.pi)
    assert 0.0 <= folded.phi < np.pi
    assert np.max(np.abs(coins.coin_type_iib(folded) - coins.coin_type_iib(plain))) < 1e-15


def test_angle_range_validation():
    with pytest.raises(ParameterDomainError):
        coins.TypeIParams(-0.1, 0.3)
    with pytest.raises(ParameterDomainError):
        coins.TypeIIaParams(0.4, 2.0, 0.3, 1.0)


# -------------------------------------------------------------- constructors

def test_type_i_first_row_values():
    c = coins.coin_type_i(coins.TypeIParams(np.pi / 3, QUARTER))
    expected = np.array([-np.sqrt(2) / 4, np.sqrt(6) / 4, np.sqrt(2) / 4, np.sqrt(6) / 4])
    assert np.allclose(c[0], expected, atol=1e-15)


def test_type_i_degenerate_permutation():
    phi_d, phi_e, phi_h = 0.7, 1.9, 0.4
    c = coins.coin_type_i(coins.TypeIParams(np.pi / 2, 0.0, phi_d=phi_d, phi_e=phi_e, phi_h=phi_h))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = np.exp(-1j * phi_e)
    expected[1, 3] = np.exp(1j * (phi_e - phi_h))
    expected[2, 0] = np.exp(1j * phi_d)
    expected[3, 2] = np.exp(1j * (phi_h - phi_d))
    assert np.allclose(c, expected, atol=1e-15)


def test_constructors_unitary(rng):
    for params in all_params(rng, 40):
        assert unitarity_defect(coins.coin_for(params)) < 1e-12


def test_grover_from_rank3_family():
    c = coins.coin_type_iia(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi))
    assert np.max(np.abs(c - coins.grover_coin())) < 1e-15


def test_rank3_swap_family_row_norms(rng):
    # delta2 = delta3 = pi/4, eta = pi: one-parameter family interpolating
    # through the Grover coin, entries controlled by p = cos^2(delta1)
    for d1 in rng.uniform(0.1, np.pi / 2 - 0.1, 5):
        c = coins.coin_type_iia(coins.TypeIIaParams(d1, QUARTER, QUARTER, np.pi))
        p = np.cos(d1) ** 2
        assert np.allclose(np.sum(np.abs(c) ** 2, axis=1), 1.0, atol=1e-12)
        assert abs(abs(c[0, 0]) - p) < 1e-12
        assert abs(abs(c[0, 3]) - (1 - p)) < 1e-12


def test_type_iia_degenerate_matrix():
    d1, eta = 0.8, 2.1
    pd, pe, pf, pg, ph = 0.3, 1.1, 2.2, 0.7, 1.9
    c = coins.coin_type_iia(coins.TypeIIaParams(d1, 0.0, 0.0, eta, pd, pe, pf, pg, ph))
    s1, c1 = np.sin(d1), np.cos(d1)
    x = np.exp(1j * eta) - 1
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = -np.exp(1j * (ph - pf - pg)) * x * c1 * s1
    expected[0, 3] = np.exp(-1j * pf) * (1 + x * c1**2)
    expected[1, 2] = np.exp(1j * (pe - pg)) * (1 + x * s1**2)
    expected[1, 3] = -np.exp(1j * (pe - ph)) * x * c1 * s1
    expected[2, 1] = np.exp(1j * (pg - pe))
    expected[3, 0] = np.exp(1j * pf)
    assert np.allclose(c, expected, atol=1e-14)


def test_type_iia_structured_form(rng):
    for _ in range(30):
        params = draw_type_iia(rng)
        direct = coins.coin_type_iia(params)
        assert np.max(np.abs(direct - coins.type_iia_structured(params))) < 1e-12


def test_type_iib_variant1_values():
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=QUARTER))
    r = np.sqrt(2) / 2
    expected = np.array([
        [r, 0, 0, r],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-r, 0, 0, r],
    ], dtype=complex)
    assert np.allclose(c, expected, atol=1e-15)


def test_type_iib_variant2_values():
    # variant 2: unitary {D, U} block, L/R swap with phases exp(+-i phi_f);
    # gamma belongs to variant 1 and must not appear
    phi_f = 0.3
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=2, delta=QUARTER, gamma=1.0,
                                                phi_f=phi_f))
    r = np.sqrt(2) / 2
    expected = np.array([
        [0, 0, 0, np.exp(-1j * phi_f)],
        [0, r, r, 0],
        [0, -r, r, 0],
        [np.exp(1j * phi_f), 0, 0, 0],
    ], dtype=complex)
    assert np.allclose(c, expected, atol=1e-15)


def test_type_iib_block_structure(rng):
    for _ in range(20):
        c = coins.coin_type_iib(draw_type_iib(rng))
        mixing = [c[0, 1], c[0, 2], c[3, 1], c[3, 2], c[1, 0], c[2, 0], c[1, 3], c[2, 3]]
        assert max(abs(z) for z in mixing) == 0.0


def test_type_iib_fully_trapped_antidiagonal():
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=np.pi / 2, beta=0.3))
    assert abs(c[0, 0]) < 1e-16 and abs(c[3, 3]) < 1e-16
    assert abs(abs(c[0, 3]) - 1.0) < 1e-15


def test_type_iib_embeds_in_rank3_family(rng):
    # with phi = 0 the variant-1 coin is the rank-3 formula continued to
    # delta1 = 0, at eta = pi, delta2 = delta3 = pi/4 - delta/2 (the swap
    # phases land at alpha = beta = pi)
    for delta in rng.uniform(0.1, np.pi / 2 - 0.1, 4):
        via_iia = coins._type_iia_matrix(0.0, QUARTER - delta / 2, QUARTER - delta / 2,
                                         np.pi, 0, 0, 0, 0, 0)
        direct = coins.coin_type_iib(coins.TypeIIbParams(
            variant=1, delta=float(delta), phi=0.0, alpha=np.pi, beta=np.pi, gamma=0.0))
        assert np.max(np.abs(via_iia - direct)) < 1e-14


# ------------------------------------------------------------ stationary cells

def test_grover_cell_amplitudes():
    cell, partner = coins.stationary_cell(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi))
    assert np.allclose(cell.amplitudes, 0.5, atol=1e-15)
    assert cell.norm == pytest.approx(np.sqrt(2))
    signs = np.array([1, 1, -1, -1, -1, -1, 1, 1])
    assert np.allclose(partner.amplitudes, 0.5 * signs, atol=1e-15)
    assert partner.eigenphase == -1


def test_cell_constraints_all_families(rng):
    for params in all_params(rng, 25):
        cell, partner = coins.stationary_cell(params)
        cell.validate(tol=1e-12)
        partner.validate(tol=1e-12)


def test_case_split_matches_family(rng):
    for _ in range(15):
        cell, _ = coins.stationary_cell(draw_type_i(rng))
        assert cell.is_full_rank_case() and not cell.is_rank_deficient_case()
        assert abs(cell.balance_det()) > 1e-8
    for drawer in (draw_type_iia, draw_type_iib):
        for _ in range(15):
            cell, _ = coins.stationary_cell(drawer(rng))
            assert cell.is_rank_deficient_case()
            assert abs(cell.balance_det()) < 1e-12


def test_type_i_site_probabilities_uniform(rng):
    for _ in range(10):
        cell, _ = coins.stationary_cell(draw_type_i(rng))
        assert np.allclose(coins.site_probabilities(cell), 0.25, atol=1e-12)


def test_rank3_site_probability_formulas(rng):
    for _ in range(10):
        p = draw_type_iia(rng)
        cell, _ = coins.stationary_cell(p)
        s1sq, c1sq = np.sin(p.delta1) ** 2, np.cos(p.delta1) ** 2
        s2sq, c2sq = np.sin(p.delta2) ** 2, np.cos(p.delta2) ** 2
        s3sq, c3sq = np.sin(p.delta3) ** 2, np.cos(p.delta3) ** 2
        expected = np.array([
            [c1sq * s2sq + s1sq * s3sq, c1sq * s2sq + s1sq * c3sq],
            [c1sq * c2sq + s1sq * s3sq, c1sq * c2sq + s1sq * c3sq],
        ]) / 2.0
        assert np.allclose(coins.site_probabilities(cell), expected, atol=1e-12)


def test_grover_cell_probabilities_quarter():
    cell, _ = coins.stationary_cell(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi))
    assert np.allclose(coins.site_probabilities(cell), 0.25, atol=1e-15)


def test_quasi_1d_cells():
    gamma = 0.9
    cell, partner = coins.stationary_cell(coins.TypeIIbParams(variant=1, delta=0.5, gamma=gamma))
    assert cell.a == 0 and cell.b == 1
    assert cell.d == pytest.approx(np.exp(1j * gamma))
    assert partner.d == pytest.approx(-np.exp(1j * gamma))
    cell2, _ = coins.stationary_cell(coins.TypeIIbParams(variant=2, delta=0.5, phi_f=0.3))
    assert cell2.a == 1 and cell2.f == pytest.approx(np.exp(0.3j))


# ------------------------------------------------------------ balance matrices

def test_balance_sparsity_and_grover_values():
    cell, _ = coins.stationary_cell(coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi))
    bal = coins.balance_matrices(cell)
    zero_pattern = np.array([
        [False, False, True, True],
        [False, True, False, True],
        [True, False, True, False],
        [True, True, False, False],
    ])
    assert np.all((bal.a == 0) == zero_pattern)
    assert np.allclose(bal.a[~zero_pattern], 0.5)
    assert np.count_nonzero(bal.b) == 8


def test_detailed_balance_all_families(rng):
    for params in all_params(rng, 30):
        coin = coins.coin_for(params)
        for cell in coins.stationary_cell(params):
            bal = coins.balance_matrices(cell)
            residual = np.max(np.abs(coin @ bal.a - complex(cell.eigenphase) * bal.b))
            assert residual < 1e-12
            gram_gap = np.max(np.abs(bal.a.conj().T @ bal.a - bal.b.conj().T @ bal.b))
            assert gram_gap < 1e-12


# The step convention as the modules used to spell it out by hand: the tables
# derived from coins.DISPLACEMENTS must reproduce these bit for bit.

def reference_balance_matrices(cell):
    a, b, c, d, e, f, g, h = cell.amplitudes
    mat_a = np.array([
        [a, c, 0, 0],
        [b, 0, e, 0],
        [0, d, 0, g],
        [0, 0, f, h],
    ], dtype=np.complex128)
    mat_b = np.array([
        [0, 0, a, c],
        [0, b, 0, e],
        [d, 0, g, 0],
        [f, h, 0, 0],
    ], dtype=np.complex128)
    return mat_a, mat_b


def test_displacements_are_the_four_unit_steps():
    steps = np.array(coins.DISPLACEMENTS)
    assert steps.shape == (4, 2) and np.all(np.abs(steps).sum(axis=1) == 1)
    # L and R, D and U are opposite steps
    assert np.array_equal(steps, -steps[::-1])


def test_cell_support_matches_hand_set_mask():
    L, D, U, R = range(4)
    mask = np.zeros((2, 2, 4), dtype=bool)
    mask[0, 0, [L, D]] = mask[0, 1, [L, U]] = True
    mask[1, 0, [D, R]] = mask[1, 1, [U, R]] = True
    assert np.array_equal(coins._CELL_SUPPORT, mask)


def test_balance_matrices_match_hand_written_literals(rng):
    for params in all_params(rng, 10):
        for cell in coins.stationary_cell(params):
            mat_a, mat_b = reference_balance_matrices(cell)
            bal = coins.balance_matrices(cell)
            assert bal.a.tobytes() == mat_a.tobytes()
            assert bal.b.tobytes() == mat_b.tobytes()
            assert coins._cell_matrix(cell).tobytes() == mat_a.tobytes()


def test_zero_cell_rejected():
    zero = coins.AmplitudeCell(0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        coins.balance_matrices(zero)


def test_cell_validation_rejects_constraint_violation():
    bad = coins.AmplitudeCell(1.0, 1.0, 0.9, 1.0, 1.0, 1.0, 1.0, 0.5, norm=np.sqrt(7.06))
    with pytest.raises(ValueError):
        bad.validate()


# ------------------------------------------------------------------- coin JSON

def test_coin_json_roundtrip_bit_exact(rng):
    params = draw_type_i(rng)
    coin = coins.coin_type_i(params)
    text = coins.coin_to_json(coin, family="TypeI", params=params)
    back = coins.coin_from_json(text)
    assert np.array_equal(coin, back)
    doc = json.loads(text)
    assert doc["basis"] == ["L", "D", "U", "R"]
    assert doc["params"]["family"] == "TypeI"
    restored = coins.params_from_dict(doc["params"])
    assert restored == params


def test_coin_json_rejects_foreign_basis():
    text = json.dumps({"basis": ["R", "U", "D", "L"], "matrix": [[[1, 0]] * 4] * 4})
    with pytest.raises(ValueError):
        coins.coin_from_json(text)
