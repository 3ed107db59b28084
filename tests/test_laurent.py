import collections
import dataclasses
import itertools

import numpy as np
import pytest

from trapwalk import classify, coins, laurent, linalg
from trapwalk.errors import DegenerateMinorError, NotTrappingError
from trapwalk.laurent import LaurentPoly

from conftest import DEGENERATE_COINS, DRAWERS, hadamard_tensor_coin, perturbed, random_unitary

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


def _scan_coins(seed):
    """(base, index) and coin of a seeded near-trapping scan, in order.

    The bases are Grover, then five Type IIa and three Type I draws; each is
    perturbed 150 times by expm(i eps H), eps log-uniform in [1e-11, 3e-8].
    """
    rng = np.random.default_rng(seed)
    bases = [coins.grover_coin()] + [coins.coin_for(DRAWERS[family](rng))
                                     for family in ["TypeIIa"] * 5 + ["TypeI"] * 3]
    for b, k in itertools.product(range(len(bases)), range(150)):
        eps = float(np.exp(rng.uniform(np.log(1e-11), np.log(3e-8))))
        yield (b, k), perturbed(bases[b], eps, rng)


def _scan_coin(seed, base, index):
    """Coin ``index`` of base ``base`` in the near-trapping scan of ``seed``."""
    return next(coin for key, coin in _scan_coins(seed) if key == (base, index))


# Scan coins whose seed member fails its kernel solve or cell check while its
# partner passes: the pair counts as flat, and the classification is marginal.
SEED_FAILS = [(0, 1, 14, "TypeIIa"), (0, 5, 93, "TypeIIa"), (2, 4, 145, "TypeIIa"),
              (2, 6, 146, "TypeI"), (2, 7, 127, "TypeI")]


# Scan coins whose kernel solve or cell check fails within KERNEL_REL_TOL of
# the seed, though both pass at the seed itself.
NEAR_SEED_FAILS = [(0, 0, 39, "TypeIIa"), (0, 1, 43, "TypeIIa"), (0, 5, 142, "TypeIIa"),
                   (2, 6, 120, "TypeI")]


@pytest.mark.parametrize("seed, base, index, family",
                         [(2, 5, 148, "TypeIIa"), (2, 8, 23, "TypeI")]
                         + NEAR_SEED_FAILS + SEED_FAILS)
def test_localized_cells_at_every_reported_eigenphase(seed, base, index, family):
    # Near-trapping scan coins.  The partner's cells are the chiral partners of
    # the seed's, also where the partner lies too far from the seed's antipode
    # for a kernel solve there, as for (2, 5, 148) and (2, 8, 23).  For
    # SEED_FAILS it is the other way round: the seed's cells are the chiral
    # partners of those solved at the partner.
    # All are marginal: (2, 5, 148) and (2, 8, 23) by their root residuals,
    # 2.35e-9 and 3.97e-9, within a factor ten below coins._FLAT_TOL.
    coin = _scan_coin(seed, base, index)
    result = classify.classify_coin(coin)
    assert result.family == family
    assert result.marginal
    seed_cells = {lam: cells for lam, cells, _ in laurent._flat_bands(coin.tobytes())[2]}
    for lam, _ in result.eigenphases:
        cells = laurent.localized_cells(coin, lam)
        if lam not in seed_cells:
            seed = next(s for s in seed_cells if abs(s + lam) < 1e-8)
            expected = [cell.chiral_partner() for cell in seed_cells[seed]]
            assert [cell.eigenphase for cell in cells] == [p.eigenphase for p in expected]
            for cell, partner in zip(cells, expected):
                assert np.max(np.abs(cell.amplitudes - partner.amplitudes)) < 1e-14
        # within KERNEL_REL_TOL of lam the cells are solved there, or are these
        # when that solve or its cell check fails
        for delta in (1e-12, 1e-10, 5e-10, 9e-10, -1e-12, -1e-10, -5e-10, -9e-10):
            near = laurent.localized_cells(coin, lam * np.exp(1j * delta))
            assert near
            for cell in near:
                cell.validate()


def test_cell_norm_follows_the_rank_of_its_balance_matrix():
    # a Type I coin 1e-6 from the rank-3 boundary delta1 = delta2: A keeps
    # full rank at linalg.RANK_TOL, so its cell takes the full-rank norm
    coin = coins.coin_for(coins.TypeIParams(0.7, 0.7 + 1e-6, 0.3, 1.1, 2.0, 0.4, 5.0))
    result = classify.classify_coin(coin)
    assert (result.family, result.rank_a) == ("TypeI", 4) and result.params is not None
    for lam, _ in result.eigenphases:
        for cell in laurent.localized_cells(coin, lam):
            assert cell.norm == coins.NORM_FULL_RANK
    # the near-trapping scan: every cell at a reported eigenphase takes norm 2
    # exactly when classify reports rank 4, one rank rule for both; the coins
    # whose first reported eigenphase is a partner are those of SEED_FAILS
    ranks, partner_first = collections.Counter(), []
    for seed in (0, 2):
        for key, coin in _scan_coins(seed):
            result = classify.classify_coin(coin)
            ranks[result.rank_a] += 1
            for lam, _ in result.eigenphases:
                for cell in laurent.localized_cells(coin, lam):
                    assert (cell.norm == coins.NORM_FULL_RANK) == (result.rank_a == 4), (seed, key)
            spectrum, _, solved = laurent._flat_bands(coin.tobytes())
            if spectrum and spectrum[0][0] not in [lam for lam, _, _ in solved]:
                partner_first.append((seed, *key))
    assert ranks[4] and ranks[3]
    assert partner_first == [(seed, base, index) for seed, base, index, _ in SEED_FAILS]


@pytest.mark.parametrize("seed, base, index, family", SEED_FAILS)
def test_a_partner_takes_the_rank_decision_of_its_member(seed, base, index, family):
    # the first reported eigenphase of these coins is the partner of the member
    # solved.  The partner's A is phase A diag(1, -1, -1, 1), so the rank, margin
    # and escaping subspace its member's decision gives are those of a decision
    # made afresh on the partner cell's A
    coin = _scan_coin(seed, base, index)
    spectrum, _, solved = laurent._flat_bands(coin.tobytes())
    first = spectrum[0][0]
    assert first not in [lam for lam, _, _ in solved]
    _, (rank, kernel, margin) = laurent._band_cells(solved, first)
    assert not kernel.flags.writeable
    a = coins._balance_pair(laurent.localized_cells(coin, first)[0].amplitudes)[0]
    fresh_rank, fresh_kernel, fresh_margin = linalg._rank_decision(a, linalg.RANK_TOL)
    assert (rank, margin) == (fresh_rank, fresh_margin)
    result = classify.classify_coin(coin)
    assert (result.family, result.rank_a, result.escaping_dim) == (family, fresh_rank,
                                                                   fresh_kernel.shape[1])
    assert result.marginal
    escaping = classify.escaping_subspace(coin)
    assert escaping.shape == fresh_kernel.shape
    projector = escaping @ escaping.conj().T
    assert np.abs(projector - fresh_kernel @ fresh_kernel.conj().T).max() <= 1e-15
    # the escaping subspace handed out is the caller's own copy of the kept kernel
    escaping[...] = 0.0
    assert classify.escaping_subspace(coin).tobytes() == kernel.tobytes()


def test_partner_cells_match_a_solve_at_the_partner(rng):
    # the partner cells, gauge-fixed again, agree with a kernel solve at the
    # partner eigenphase, also where the chiral flip would negate a cell
    # with a = b = 0
    sample = DEGENERATE_COINS + [coins.coin_for(draw(rng)) for draw in DRAWERS.values()]
    for coin in sample:
        spectrum, _, solved_cells = laurent._flat_bands(coin.tobytes())
        for lam in (z for z, _ in spectrum if z not in [s for s, _, _ in solved_cells]):
            cells = laurent.localized_cells(coin, lam)
            solved, _ = laurent._localized_cells(coin, lam)
            assert len(cells) == len(solved)
            for cell, ref in zip(cells, solved):
                assert np.max(np.abs(cell.amplitudes - ref.amplitudes)) < 1e-13


def test_localized_cells_at_a_seed_reuse_its_solve(monkeypatch, rng):
    # at a seed eigenphase the cells are the seed's own solve in _flat_bands:
    # bit for bit a second solve there, with no second solve made, neither
    # there nor at any other reported eigenphase (the decision is memoized)
    sample = DEGENERATE_COINS + [coins.grover_coin()]
    sample += [coins.coin_for(draw(rng)) for draw in DRAWERS.values() for _ in range(2)]
    solve = laurent._localized_cells
    solves = []
    monkeypatch.setattr(laurent, "_localized_cells",
                        lambda c, lam: solves.append(lam) or solve(c, lam))
    for coin in sample:
        spectrum, _, seed_cells = laurent._flat_bands(coin.tobytes())
        del solves[:]
        for lam, _ in spectrum:
            laurent.localized_cells(coin, lam)
        assert solves == []
        for seed, _, _ in seed_cells:
            cells = laurent.localized_cells(coin, seed)
            assert solves == []
            solved, _ = solve(coin, seed)
            assert len(cells) == len(solved) >= 1
            for cell, ref in zip(cells, solved):
                assert cell.amplitudes.tobytes() == ref.amplitudes.tobytes()
                assert (cell.eigenphase, cell.norm) == (ref.eigenphase, ref.norm)


def test_localized_rejects_non_constant_eigenphase(rng):
    with pytest.raises(NotTrappingError):
        laurent.localized_eigenstate(coins.grover_coin(), 1j)
    with pytest.raises(NotTrappingError):
        laurent.localized_eigenstate(hadamard_tensor_coin(), 1.0)
    # an eigenphase is matched to the flat spectrum within KERNEL_REL_TOL;
    # farther off it is rejected before the kernel solve can fail
    sample = [coins.grover_coin()] + [coins.coin_for(draw(rng)) for draw in DRAWERS.values()]
    for coin in sample:
        for lam, _ in classify.detect_point_spectrum(coin):
            for delta in (1e-10, 1e-9):
                assert laurent.localized_cells(coin, lam * np.exp(1j * delta))
            for delta in (2e-9, 1e-8, 1e-7):
                with pytest.raises(NotTrappingError):
                    laurent.localized_cells(coin, lam * np.exp(1j * delta))


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


def test_unit_balance_pairs_expand_d_psi(rng):
    # D(x, y) psi(x, y) of a cell ansatz is (C A - B)(1, y, x, xy)^T, A and B
    # the amplitude-weighted sums of the unit pairs the kernel system reads
    for _ in range(20):
        coin = random_unitary(rng)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        mat_a, mat_b = np.tensordot(amps, coins._UNIT_BALANCE, axes=(0, 1))
        x, y = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        psi = coins._ansatz_vectors(coins.AmplitudeCell(*amps), np.array([x]), np.array([y]))[0]
        d_psi = laurent.kernel_matrix(coin).evaluate(x, y) @ psi
        expected = (coin @ mat_a - mat_b) @ np.array([1, y, x, x * y])
        assert np.max(np.abs(d_psi - expected)) < 1e-13


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
             for lam, _ in classify.detect_point_spectrum(coin)]
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


def test_charpoly_tensor_is_the_characteristic_polynomial(rng):
    # Structural zeros: the center holds z^0, z^2, z^4; each edge z^1, z^3;
    # each corner z^2 alone.
    center, edge, corner = [0, 2, 4], [1, 3], [2]
    support = np.zeros((3, 3, 5), dtype=bool)
    for i, j in np.ndindex(3, 3):
        powers = {0: center, 1: edge, 2: corner}[abs(i - 1) + abs(j - 1)]
        support[i, j, powers] = True
    sample = [coins.coin_for(drawer(rng)) for drawer in DRAWERS.values() for _ in range(5)]
    sample += [random_unitary(rng) for _ in range(10)] + DEGENERATE_COINS
    for coin in sample:
        tensor = laurent._charpoly(coin)
        assert tensor.shape == (3, 3, 5)
        assert np.all(tensor[~support] == 0)
        assert tensor[1, 1, 4] == 1 and abs(tensor[1, 1, 0] - np.linalg.det(coin)) < 1e-14
        for _ in range(3):
            x, y = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            z = complex(rng.normal(), rng.normal())
            inverse_shift = np.array([x ** -dx * y ** -dy for dx, dy in coins.DISPLACEMENTS])
            direct = np.linalg.det(z * np.diag(inverse_shift) - coin)
            powers = np.arange(-1, 2)
            value = np.einsum("ijn,i,j,n->", tensor, x ** powers, y ** powers,
                              z ** np.arange(5))
            assert abs(value - direct) <= 1e-13 * max(1.0, abs(z)) ** 4
