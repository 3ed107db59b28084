import dataclasses
import json
import re

import numpy as np
import pytest

from trapwalk import classify, cli, coins, laurent, linalg, spectral, walk
from trapwalk.errors import NotTrappingError
from trapwalk.linalg import require_unitary

from conftest import (DEGENERATE_COINS, DRAWERS, draw_type_i, draw_type_iia, draw_type_iib,
                      hadamard_tensor_coin, perturbed, random_unitary)

QUARTER = np.pi / 4
GROVER_PARAMS = coins.TypeIIaParams(QUARTER, QUARTER, QUARTER, np.pi)


def _phases(spectrum):
    return sorted((complex(l) for l, _ in spectrum), key=lambda z: np.angle(z) % (2 * np.pi))


# -------------------------------------------------------------- point spectrum

def test_grover_point_spectrum():
    spectrum = classify.detect_point_spectrum(coins.grover_coin())
    assert len(spectrum) == 2
    assert all(m == 1 for _, m in spectrum)
    lams = _phases(spectrum)
    assert abs(lams[0] - 1) < 1e-10 and abs(lams[1] + 1) < 1e-10


def test_degenerate_full_rank_point_spectrum():
    c = coins.coin_type_i(coins.TypeIParams(np.pi / 2, 0.0))
    spectrum = classify.detect_point_spectrum(c)
    lams = _phases(spectrum)
    assert len(lams) == 4
    expected = [1, 1j, -1, -1j]
    assert all(abs(l - e) < 1e-10 for l, e in zip(lams, expected))


def test_non_trapping_empty_spectrum():
    assert classify.detect_point_spectrum(hadamard_tensor_coin()) == []


def test_marginal_flag():
    # comfortably decided coins are not flagged
    result = classify.classify_coin(coins.grover_coin())
    assert not result.marginal and "marginal" not in classify.classification_to_json(result)
    # mixed 2x2 minors of 1.5e-8 (a 3e-8 rotation of Grover between L and D)
    # lie within ten times their threshold: no flat band, flagged
    eps = 3e-8
    rotation = np.eye(4, dtype=complex)
    rotation[:2, :2] = [[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]]
    near = coins.grover_coin() @ rotation
    corners = np.abs(laurent._charpoly(near)[::2, ::2, 2]).max()
    assert coins._FLAT_TOL <= corners < 10 * coins._FLAT_TOL
    result = classify.classify_coin(near)
    assert result.family == "NotTrapping" and result.marginal
    assert json.loads(classify.classification_to_json(result))["marginal"] is True
    # at eta = 1e-7 the edge polynomials are 2.5e-8 in size: one flat pair, flagged
    coin = coins.coin_type_iia(coins.TypeIIaParams(0.7, 0.5, 0.9, 1e-7, 0.3, 1.1, 2.2, 0.7, 1.9))
    edges = np.abs(laurent._charpoly(coin)[laurent._EDGES]).max()
    assert coins._FLAT_TOL <= edges < 10 * coins._FLAT_TOL
    result = classify.classify_coin(coin)
    assert result.family == "TypeIIa" and result.marginal
    # a Type IIa coin times expm(i 2e-9 H): its root residual of 3.2e-9 is decided
    # zero, but within ten times below its threshold; the seed solves and checks,
    # so only the decision value flags it
    base = coins.coin_type_iia(coins.TypeIIaParams(0.7, 0.5, 0.9, 2.0, 0.3, 1.1, 2.2, 0.7, 1.9))
    coin = perturbed(base, 2e-9, np.random.default_rng(204))
    residual = laurent._flat_roots(laurent._charpoly(coin))[1][-1][0]
    assert coins._FLAT_TOL / 10 <= residual < coins._FLAT_TOL
    spectrum, _, solved = laurent._flat_bands(coin.tobytes())
    assert spectrum[0][0] in [lam for lam, _, _ in solved]
    result = classify.classify_coin(coin)
    assert result.family == "TypeIIa" and result.marginal


RANK_MARGINS = [(1e-5, "TypeI", 4, False), (1e-7, "TypeI", 4, True), (1e-8, "TypeIIa", 3, True)]


@pytest.mark.parametrize("gap, family, rank, marginal", RANK_MARGINS,
                         ids=[f"{gap}-{marginal}" for gap, *_, marginal in RANK_MARGINS])
def test_rank_decision_states_its_margin(gap, family, rank, marginal):
    # Type I coins near the rank-3 boundary delta1 = delta2: the least singular
    # value of A over the largest is gap / 2.  Within a factor ten of
    # linalg.RANK_TOL, kept above it (1e-7) or dropped below it (1e-8), the
    # rank is marginal; a dropped one makes the coin Type IIa, with no params.
    coin = coins.coin_for(coins.TypeIParams(0.7, 0.7 + gap, 0.3, 1.1, 2.0, 0.4, 5.0))
    _, _, seed_cells = laurent._flat_bands(coin.tobytes())
    cell = seed_cells[0][1][0]
    ratios = np.linalg.svd(coins.balance_matrices(cell).a, compute_uv=False)
    assert ratios[-1] / ratios[0] == pytest.approx(gap / 2, rel=1e-3)
    result = classify.classify_coin(coin)
    assert (result.family, result.rank_a, result.marginal) == (family, rank, marginal)
    assert (result.params is not None) == (family == "TypeI")


# Grover times cos(eps) I + sin(eps) G on two directions, G^2 = -I
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
NEAR_TRAPPING = [
    pytest.param(eps, (0, 1), ROTATION, "TypeIIa" if eps <= 1e-9 else "NotTrapping", id=str(eps))
    for eps in [1e-10, 1e-9, 2e-9, 3e-9, 5e-9, 1e-8, 2e-8, 3e-8]
] + [
    pytest.param(-1e-11, (0, 1), np.array([[0, 1j], [1j, 0]]), "TypeIIa",
                 id="i_sigma_x_LD_-1e-11"),
    pytest.param(3e-9, (0, 2), ROTATION, "NotTrapping", id="rotation_LU_3e-09"),
]


@pytest.mark.parametrize("eps, pair, generator, family", NEAR_TRAPPING)
def test_near_trapping_band_has_an_answer(eps, pair, generator, family, tmp_path, capsys):
    # Grover rotated between L and D by eps: from 2e-9 on, the flat pair the
    # closed form finds fails the kernel solve (5e-9, 1e-8) or the cell check
    # (2e-9, 3e-9), or the mixed minors (2e-8 on); all are marginal NotTrapping.
    # The last two polish a pair at +-1 to members that are not exactly
    # antipodal, which must still give the pair one seed, not none or two.
    rotation = np.eye(4, dtype=complex)
    rotation[np.ix_(pair, pair)] = np.cos(eps) * np.eye(2) + np.sin(eps) * generator
    coin = coins.grover_coin() @ rotation
    result = classify.classify_coin(coin)
    assert result.family == family and result.marginal == (family == "NotTrapping")
    # every public entry reads the same decision
    spectrum = classify.detect_point_spectrum(coin)
    assert spectrum == list(result.eigenphases) and bool(spectrum) == result.trapping
    for lam, _ in spectrum:
        assert laurent.localized_cells(coin, lam)
    psi = np.array([1, 0, 0, 0])
    if result.trapping:
        assert classify.escaping_subspace(coin).shape == (4, result.escaping_dim)
        weight = classify.trapped_weight(coin, psi, grid_n=64)
        assert abs(weight - classify.trapped_weight(coins.grover_coin(), psi, grid_n=64)) < 1e-6
    else:
        with pytest.raises(NotTrappingError):
            classify.escaping_subspace(coin)
        with pytest.raises(NotTrappingError):
            classify.trapped_weight(coin, psi)
    path = tmp_path / "coin.json"
    coins.write_coin_json(path, coin)
    assert cli.main(["classify", "-i", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["family"] == result.family
    for command in ("escape", "region"):
        # a JSON document, or the one-line JSON error and a nonzero exit
        status = cli.main([command, "-i", str(path)])
        out, err = capsys.readouterr()
        if status == 0:
            json.loads(out)
        else:
            assert err.count("\n") == 1 and set(json.loads(err)) == {"error", "message"}
        assert (status == 0) == result.trapping


def test_chiral_pairing(rng):
    for drawer in DRAWERS.values():
        for _ in range(5):
            spectrum = classify.detect_point_spectrum(coins.coin_for(drawer(rng)))
            lams = [l for l, _ in spectrum]
            for lam in lams:
                assert any(abs(lam + other) < 1e-8 for other in lams)


def reference_point_spectrum(coin, n_samples=8, seed=20210507, tol=1e-8):
    """The momentum sampler the closed form replaced, kept as its parity oracle.

    U(k) is sampled at k = 0 and ``n_samples`` seeded momenta, and the k = 0
    eigenvalues are clustered to ``tol``; a cluster recurring at every
    sample is flat.  A cluster of several k = 0 eigenvalues is centered on
    its first member that recurs within tol / 100 at every other sample
    (else its first member).  Returns the spectrum and the smallest distance
    from a center to an eigenvalue outside its cluster (marginal below 10 tol).
    """
    rng = np.random.default_rng(seed)
    ks = [(0.0, 0.0)]
    ks.extend((float(kx), float(ky)) for kx, ky in rng.uniform(-np.pi, np.pi, (n_samples, 2)))
    samples = [np.linalg.eigvals(spectral.momentum_operator(coin, kx, ky)) for kx, ky in ks]
    candidates = []
    for lam in samples[0]:
        for group in candidates:
            if abs(lam - group[0]) < tol:
                group.append(lam)
                break
        else:
            candidates.append([lam])
    results = []
    margin = np.inf
    for group in candidates:
        units = [lam / abs(lam) for lam in group]
        center = units[0]
        if len(units) > 1:
            for u in units:
                if all(np.min(np.abs(ev - u)) < tol / 100 for ev in samples[1:]):
                    center = u
                    break
        mult = len(group)
        alive = True
        for ev in samples[1:]:
            count = int(np.sum(np.abs(ev - center) < tol))
            if count == 0:
                alive = False
                break
            mult = min(mult, count)
        if not alive:
            continue
        for ev in samples:
            dist = np.abs(ev - center)
            outside = dist[dist >= tol]
            if outside.size:
                margin = min(margin, float(outside.min()))
        results.append((complex(center), mult))

    def canonical_angle(lam):
        ang = float(np.angle(lam)) % (2 * np.pi)
        return 0.0 if ang > 2 * np.pi - 1e-9 else ang

    results.sort(key=lambda item: canonical_angle(item[0]))
    return results, margin


def test_point_spectrum_matches_per_momentum_loop(rng):
    cases = [coins.coin_for(drawer(rng)) for drawer in DRAWERS.values() for _ in range(20)]
    cases += [random_unitary(rng) for _ in range(20)]
    cases += DEGENERATE_COINS + [coins.grover_coin(), hadamard_tensor_coin()]
    for coin in cases:
        got = classify.detect_point_spectrum(coin)
        expected, margin = reference_point_spectrum(coin)
        assert margin >= 1e-7
        assert [m for _, m in got] == [m for _, m in expected]
        assert all(abs(a - b) <= 1e-14 for (a, _), (b, _) in zip(got, expected))


def test_flat_eigenphases_are_the_coins_own_eigenvalues(rng):
    # the closed form locates each flat eigenvalue; its digits are those of
    # the nearest eigenvalue of U(0) = C, so no root formula leaks into JSON
    for drawer in DRAWERS.values():
        for _ in range(10):
            coin = coins.coin_for(drawer(rng))
            own = np.linalg.eigvals(coin)
            for lam, _ in classify.detect_point_spectrum(coin):
                assert any(lam == complex(ev / abs(ev)) for ev in own)


def boundary_coins(rng):
    """Type IIa near eta = 0 and Type I near delta1 = 0, 100 draws per value."""
    for eta in (1e-3, 1e-5, 1e-7, 1e-9):
        for _ in range(100):
            yield coins.coin_for(dataclasses.replace(draw_type_iia(rng), eta=eta))
    for delta1 in (1e-4, 1e-6, 1e-8, 1e-10):
        for _ in range(100):
            yield coins.coin_for(dataclasses.replace(draw_type_i(rng), delta1=delta1))


def test_closed_form_matches_sampler_near_family_boundary(rng):
    # Near eta = 0 a dispersive pair closes on the flat pair: at eta = 1e-9 both
    # methods merge them into multiplicity 2 (the centers then differ by up to
    # eta / 2), and at eta = 1e-7 the sampler flags every coin marginal.
    compared = 0
    for coin in boundary_coins(rng):
        expected, margin = reference_point_spectrum(coin)
        if margin < 1e-7:
            continue
        compared += 1
        got = classify.detect_point_spectrum(coin)
        assert [m for _, m in got] == [m for _, m in expected]
        for (a, mult), (b, _) in zip(got, expected):
            # a simple flat eigenvalue is polished to full precision
            assert abs(a - b) <= (1e-14 if mult == 1 else 1e-8)
    assert compared >= 600


# -------------------------------------------------------------- classification

def test_classify_grover():
    res = classify.classify_coin(coins.grover_coin())
    assert res.trapping and res.family == "TypeIIa"
    assert res.rank_a == 3 and res.escaping_dim == 1
    assert not res.fully_trapped
    assert res.params is not None and res.params.eta == pytest.approx(np.pi)


def test_classify_full_rank_example():
    res = classify.classify_coin(coins.coin_type_i(coins.TypeIParams(np.pi / 3, QUARTER)))
    assert res.family == "TypeI" and res.rank_a == 4 and res.escaping_dim == 0


def test_classify_quasi_1d_variants(rng):
    res = classify.classify_coin(coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=QUARTER)))
    assert res.family == "TypeIIb" and res.rank_a == 2
    assert res.escaping_dim == 2 and res.variant == 1
    res2 = classify.classify_coin(coins.coin_type_iib(
        coins.TypeIIbParams(variant=2, delta=0.7, phi=1.1, alpha=0.2, beta=0.5, phi_f=2.0)))
    assert res2.family == "TypeIIb" and res2.variant == 2 and res2.escaping_dim == 2


def test_classify_random_draws(rng):
    for family, drawer in DRAWERS.items():
        for _ in range(12):
            res = classify.classify_coin(coins.coin_for(drawer(rng)))
            assert res.family == family
            assert res.rank_a == {"TypeI": 4, "TypeIIa": 3, "TypeIIb": 2}[family]


def test_classify_not_trapping():
    res = classify.classify_coin(hadamard_tensor_coin())
    assert not res.trapping and res.family == "NotTrapping"
    assert res.rank_a is None and res.escaping_dim is None


def test_classify_fully_trapped_cases():
    res = classify.classify_coin(coins.coin_type_i(coins.TypeIParams(np.pi / 2, 0.0)))
    assert res.family == "TypeI" and res.fully_trapped and res.escaping_dim == 0
    res = classify.classify_coin(coins.coin_type_iia(
        coins.TypeIIaParams(0.8, 0.0, 0.0, 2.1, 0.3, 1.1, 2.2, 0.7, 1.9)))
    assert res.family == "TypeIIa" and res.fully_trapped and res.escaping_dim == 0
    res = classify.classify_coin(coins.coin_type_iib(
        coins.TypeIIbParams(variant=1, delta=np.pi / 2, gamma=0.4)))
    assert res.family == "TypeIIb" and res.fully_trapped and res.escaping_dim == 0


def test_classify_direct_sum_degenerate():
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=1, delta=np.pi / 2,
                                                phi=np.pi / 2, gamma=0.2))
    res = classify.classify_coin(c)
    assert res.family == "DirectSumDegenerate"
    assert res.fully_trapped and res.escaping_dim == 0
    assert any(m >= 2 for _, m in res.eigenphases)


def test_classify_global_phase_invariance(rng):
    params = draw_type_iia(rng)
    coin = coins.coin_type_iia(params)
    rotated = np.exp(0.7j) * coin
    res = classify.classify_coin(rotated)
    assert res.family == "TypeIIa"
    lams = [l for l, _ in res.eigenphases]
    assert any(abs(l - np.exp(0.7j)) < 1e-8 for l in lams)


# Robustness near the family boundaries and away from every family.

def test_type_i_near_equal_angles_classifies(rng):
    for _ in range(20):
        d1 = float(rng.uniform(0.1, np.pi / 2 - 0.1))
        params = coins.TypeIParams(d1, d1 + 1e-6, *rng.uniform(0, 2 * np.pi, 5))
        assert classify.classify_coin(coins.coin_type_i(params)).family == "TypeI"


def test_type_i_near_zero_angle_classifies(rng):
    for _ in range(20):
        d2 = float(rng.uniform(0.1, np.pi / 2 - 0.1))
        params = coins.TypeIParams(1e-6, d2, *rng.uniform(0, 2 * np.pi, 5))
        assert classify.classify_coin(coins.coin_type_i(params)).family == "TypeI"


def test_type_iia_tiny_eta_classifies(rng):
    for _ in range(200):
        params = dataclasses.replace(draw_type_iia(rng), eta=1e-6)
        assert classify.classify_coin(coins.coin_type_iia(params)).family == "TypeIIa"


def test_type_iia_tiny_eta_crossing_band_at_zero_momentum():
    # at k = 0 a dispersive eigenvalue 8.3e-9 from the flat band joins its
    # cluster first; the cluster must still be centered on the flat band
    params = coins.TypeIIaParams(1.4607006277941086, 0.14265833052817478, 0.7440091522098687,
                                 1e-6, 3.340413410481778, 4.754578833315499,
                                 4.920637318609834, 2.053270482067944, 1.7606081744095097)
    result = classify.classify_coin(coins.coin_type_iia(params))
    assert result.family == "TypeIIa" and result.rank_a == 3


def test_haar_random_coins_do_not_trap(rng):
    for _ in range(500):
        assert classify.classify_coin(random_unitary(rng)).family == "NotTrapping"


# ------------------------------------------------------------ escaping subspace

def test_grover_escaping_vector():
    basis = classify.escaping_subspace(coins.grover_coin())
    assert basis.shape == (4, 1)
    expected = np.array([1, -1, -1, 1]) / 2.0
    assert abs(abs(np.vdot(expected, basis[:, 0])) - 1.0) < 1e-10


def test_escaping_matches_closed_form(rng):
    for _ in range(8):
        params = draw_type_iia(rng)
        basis = classify.escaping_subspace(coins.coin_type_iia(params))
        assert basis.shape == (4, 1)
        assert abs(abs(np.vdot(coins.escaping_state(params), basis[:, 0])) - 1.0) < 1e-9


def test_full_rank_family_has_no_escaping_state(rng):
    basis = classify.escaping_subspace(coins.coin_type_i(draw_type_i(rng)))
    assert basis.shape == (4, 0)


def test_vertical_escaping_space_variant2():
    c = coins.coin_type_iib(coins.TypeIIbParams(variant=2, delta=0.6, phi_f=0.9))
    basis = classify.escaping_subspace(c)
    assert basis.shape == (4, 2)
    # spanned by |D> and |U>: no L or R component
    assert np.max(np.abs(basis[[0, 3], :])) < 1e-10


def test_escaping_annihilated_by_amplitudes(rng):
    for drawer in DRAWERS.values():
        params = drawer(rng)
        coin = coins.coin_for(params)
        basis = classify.escaping_subspace(coin)
        from trapwalk.laurent import localized_cells
        for lam, _ in classify.detect_point_spectrum(coin):
            for cell in localized_cells(coin, lam):
                a = coins.balance_matrices(cell).a
                if basis.shape[1]:
                    assert np.max(np.abs(basis.conj().T @ a)) < 1e-10


def test_fully_trapped_cells_span_every_coin_state():
    # with all four bands flat no coin state is orthogonal to every localized
    # state, which is why a fully trapped coin has no escaping subspace
    for coin in DEGENERATE_COINS:
        spectrum = classify.detect_point_spectrum(coin)
        assert sum(m for _, m in spectrum) == 4
        cells = [cell for lam, _ in spectrum for cell in laurent.localized_cells(coin, lam)]
        stacked = np.hstack([coins.balance_matrices(cell).a for cell in cells])
        assert np.linalg.matrix_rank(stacked) == 4
        assert classify.escaping_subspace(coin).shape == (4, 0)


def test_escaping_requires_trapping():
    with pytest.raises(NotTrappingError):
        classify.escaping_subspace(hadamard_tensor_coin())


# ---------------------------------------------------------------- trapped weight

def test_trapped_weight_of_stationary_direction():
    cell, _ = coins.stationary_cell(GROVER_PARAMS)
    xi = cell.local_states()[0, 0]
    state = xi / np.linalg.norm(xi)
    w = classify.trapped_weight(coins.grover_coin(), state)
    assert w > 0.05


def test_trapped_weight_escaping_is_zero():
    esc = np.array([1, -1, -1, 1]) / 2.0
    assert classify.trapped_weight(coins.grover_coin(), esc) < 1e-12


def test_trapped_weight_matches_simulation_grover():
    w = classify.trapped_weight(coins.grover_coin(), np.array([1, 0, 0, 0], dtype=complex))
    state = walk.initial_state(np.array([1, 0, 0, 0], dtype=complex))
    p_origin = np.zeros(501)
    p_origin[0] = 1.0
    worst_drift = 0.0
    for t in range(1, 501):
        state = walk.step(state, coins.grover_coin())
        p_origin[t] = state.origin_probability()
        worst_drift = max(worst_drift, abs(state.total_probability() - 1.0))
    assert worst_drift < 1e-12
    assert abs(w - float(np.mean(p_origin[1:]))) < 5e-2


def test_trapped_weight_global_phase_invariant(rng):
    params = draw_type_i(rng)
    coin = coins.coin_type_i(params)
    state = rng.normal(size=4) + 1j * rng.normal(size=4)
    state /= np.linalg.norm(state)
    w1 = classify.trapped_weight(coin, state)
    w2 = classify.trapped_weight(np.exp(1.3j) * coin, state)
    assert w1 == pytest.approx(w2, abs=1e-9)


def test_trapped_weight_requires_normalized_state():
    with pytest.raises(ValueError):
        classify.trapped_weight(coins.grover_coin(), np.array([1, 1, 0, 0], dtype=complex))


def test_trapped_weight_and_the_walk_share_the_norm_check():
    state = np.array([0.6, 0.6, 0, 0], dtype=complex)
    messages = []
    for call in (lambda: classify.trapped_weight(coins.grover_coin(), state),
                 lambda: walk.initial_state(state)):
        with pytest.raises(ValueError) as info:
            call()
        messages.append(str(info.value))
    nrm = float(np.linalg.norm(state))
    assert messages == [f"initial coin state must have unit norm, got {nrm!r}"] * 2


@pytest.mark.parametrize("state", [np.full((2, 2), 0.5), np.full((4, 1), 0.5), [1.0, 0, 0, 0, 0],
                                   [[1.0, 0, 0, 0]], 1.0])
def test_trapped_weight_and_the_walk_take_only_a_four_vector(state):
    # a unit-norm array of another shape is not a coin state, not even with
    # four entries; the error names the shape
    shape = np.shape(state)
    for call in (lambda: classify.trapped_weight(coins.grover_coin(), state, grid_n=8),
                 lambda: walk.initial_state(state)):
        with pytest.raises(ValueError, match=re.escape(f"must have shape (4,), got {shape}")):
            call()


def test_trapped_weight_rejects_nan_state():
    with pytest.raises(ValueError):
        classify.trapped_weight(coins.grover_coin(), np.array([np.nan, 0, 0, 0], dtype=complex))


def reference_trapped_weight(coin, psi, grid_n):
    """Quadrature with one kernel solve per constant eigenphase."""
    k = -np.pi + 2.0 * np.pi * (np.arange(grid_n) + 0.5) / grid_n
    x, y = (z.ravel() for z in np.meshgrid(np.exp(1j * k), np.exp(1j * k), indexing="ij"))
    weight = 0.0
    for lam, _ in classify.detect_point_spectrum(coin):
        band = np.zeros((4, 4), dtype=complex)
        for cell in laurent.localized_cells(coin, lam):
            xi = cell.local_states()
            vec = (xi[0, 0] + x[:, None] * xi[1, 0] + y[:, None] * xi[0, 1]
                   + (x * y)[:, None] * xi[1, 1])
            norms = np.linalg.norm(vec, axis=1)
            unit = vec[norms > 1e-12] / norms[norms > 1e-12, None]
            band += unit.T @ unit.conj() / x.size
        weight += float(np.linalg.norm(band @ psi) ** 2)
    return weight


def test_trapped_weight_matches_per_eigenphase_solve(rng):
    cases = [coins.coin_for(drawer(rng)) for drawer in DRAWERS.values() for _ in range(4)]
    cases += DEGENERATE_COINS + [coins.grover_coin()]
    for coin in cases:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        # an odd grid is not symmetric under k -> k + pi, so a partner band
        # quadrature with the wrong cells would not agree by accident
        got = classify.trapped_weight(coin, psi, grid_n=15)
        assert abs(got - reference_trapped_weight(coin, psi, 15)) < 1e-14


FIG2_COIN = coins.coin_type_i(coins.TypeIParams(np.pi / 3, QUARTER))
_PARITY_RNG = np.random.default_rng(7)
PARITY_COINS = ([coins.coin_for(drawer(_PARITY_RNG)) for drawer in DRAWERS.values()
                 for _ in range(2)]
                + DEGENERATE_COINS + [coins.grover_coin(), FIG2_COIN])


@pytest.mark.parametrize("grid_n", [15, 16, 63, 64])
def test_trapped_weight_row_sums_match_reference(grid_n, rng):
    for coin in PARITY_COINS:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        got = classify.trapped_weight(coin, psi, grid_n=grid_n)
        assert abs(got - reference_trapped_weight(coin, psi, grid_n)) < 1e-14


@pytest.mark.parametrize("grid_n", [15, 255])
def test_trapped_weight_grover_odd_grid_drops_ansatz_zero(grid_n, rng):
    # At odd grids a node sits on a zero of Grover's ansatz vector, where the
    # row formula for |v|^2 cancels to (nearly) nothing: the point must be
    # dropped by the direct norm, as in the reference.
    coin = coins.grover_coin()
    k = -np.pi + 2.0 * np.pi * (np.arange(grid_n) + 0.5) / grid_n
    x, y = (z.ravel() for z in np.meshgrid(np.exp(1j * k), np.exp(1j * k), indexing="ij"))
    smallest = min(np.linalg.norm(coins._ansatz_vectors(cell, x, y), axis=1).min()
                   for lam, _ in classify.detect_point_spectrum(coin)
                   for cell in laurent.localized_cells(coin, lam))
    assert smallest <= 1e-12
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    got = classify.trapped_weight(coin, psi, grid_n=grid_n)
    assert np.isfinite(got)
    assert abs(got - reference_trapped_weight(coin, psi, grid_n)) < 1e-14


@pytest.mark.parametrize("grid_n", [0, -3, 2.5, 3.0, "3", True])
def test_trapped_weight_rejects_bad_grid(grid_n):
    psi = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(ValueError, match="grid_n"):
        classify.trapped_weight(coins.grover_coin(), psi, grid_n=grid_n)
    with pytest.raises(ValueError, match="grid_n"):
        classify.trapped_weight_operator(coins.grover_coin(), grid_n=grid_n)


def test_trapped_weight_operator_is_hermitian_psd(rng):
    for coin in PARITY_COINS:
        w = classify.trapped_weight_operator(coin, grid_n=32)
        assert w.shape == (4, 4)
        assert np.array_equal(w, w.conj().T)
        assert np.linalg.eigvalsh(w).min() > -1e-15
        for _ in range(3):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            expected = classify.trapped_weight(coin, psi, grid_n=32)
            assert abs(np.vdot(psi, w @ psi).real - expected) < 1e-15


def test_trapped_weight_operator_requires_trapping():
    with pytest.raises(NotTrappingError):
        classify.trapped_weight_operator(hadamard_tensor_coin())


def test_trapped_weight_operator_is_computed_once_per_coin(monkeypatch, rng):
    coin = coins.coin_for(draw_type_iia(rng))
    calls = count_checks(monkeypatch)
    first = classify.trapped_weight_operator(coin, grid_n=24)
    assert calls["built"] >= 1
    calls.update(unitary=0, validate=0, built=0)
    again = classify.trapped_weight_operator(coin.tolist(), grid_n=24)
    assert again.tobytes() == first.tobytes()
    assert calls == {"unitary": 1, "validate": 0, "built": 0}
    # each caller gets its own copy: writing to one leaves the next call intact
    again[:] = np.nan
    assert classify.trapped_weight_operator(coin, grid_n=24).tobytes() == first.tobytes()
    psi = np.array([0.5, 0.5j, 0.5j, 0.5])
    assert classify.trapped_weight(coin, psi, grid_n=24) == np.vdot(psi, first @ psi).real
    # another grid is another operator, from the same memoized flat-band decision
    assert classify.trapped_weight_operator(coin, grid_n=25).tobytes() != first.tobytes()
    assert calls["validate"] == calls["built"] == 0


def test_trapped_weight_operator_raises_for_a_non_trapping_coin_every_time():
    for _ in range(3):
        with pytest.raises(NotTrappingError):
            classify.trapped_weight_operator(hadamard_tensor_coin(), grid_n=8)
        with pytest.raises(NotTrappingError):
            classify.trapped_weight(hadamard_tensor_coin(), [1.0, 0.0, 0.0, 0.0], grid_n=8)


def count_checks(monkeypatch) -> dict:
    """Count require_unitary calls, cell validations and the cells laurent builds.

    The per-coin memos start empty (``conftest.fresh_memos``), so that an
    entry builds the cells of a coin it has not seen here.
    """
    calls = {"unitary": 0, "validate": 0, "built": 0}

    def unitary(coin, *args, **kwargs):
        calls["unitary"] += 1
        return require_unitary(coin, *args, **kwargs)

    validate = coins.AmplitudeCell.validate

    def counting_validate(cell, *args, **kwargs):
        calls["validate"] += 1
        return validate(cell, *args, **kwargs)

    build = laurent._localized_cells

    def counting_build(c, eigenphase):
        cells, decision = build(c, eigenphase)
        calls["built"] += len(cells)
        return cells, decision

    for module in (classify, laurent, spectral, walk):
        monkeypatch.setattr(module, "require_unitary", unitary)
    monkeypatch.setattr(coins.AmplitudeCell, "validate", counting_validate)
    monkeypatch.setattr(laurent, "_localized_cells", counting_build)
    return calls


@pytest.mark.parametrize("entry", ["classify_coin", "escaping_subspace", "trapped_weight"])
def test_flat_band_entries_check_each_input_once(monkeypatch, rng, entry):
    psi = np.array([0.5, 0.5j, 0.5j, 0.5])
    run = {"classify_coin": classify.classify_coin,
           "escaping_subspace": classify.escaping_subspace,
           "trapped_weight": lambda coin: classify.trapped_weight(coin, psi, grid_n=16)}[entry]
    sample = [coins.coin_for(drawer(rng)) for drawer in DRAWERS.values() for _ in range(3)]
    sample += DEGENERATE_COINS + [coins.grover_coin()]
    calls = count_checks(monkeypatch)
    for coin in sample:
        for first in (True, False):
            before = dict(calls)
            run(coin)
            built = calls["built"] - before["built"]
            assert calls["unitary"] - before["unitary"] == 1
            # one check per cell where laurent builds it, the first time only;
            # chiral partners are exact sign flips
            assert (built >= 1) == first and calls["validate"] - before["validate"] == built


def test_classify_checks_a_non_trapping_coin_once(monkeypatch, rng):
    calls = count_checks(monkeypatch)
    assert classify.classify_coin(random_unitary(rng)).family == "NotTrapping"
    assert calls == {"unitary": 1, "validate": 0, "built": 0}


def test_every_entry_reads_one_decision_per_coin(monkeypatch, rng):
    # classification, escaping subspace, point spectrum, the cells at every
    # reported eigenphase and W at two grids decide each coin once between them
    sample = [coins.grover_coin()] + [coins.coin_for(draw(rng)) for draw in DRAWERS.values()]
    sample += DEGENERATE_COINS
    charpoly, decided = laurent._charpoly, []
    monkeypatch.setattr(laurent, "_charpoly", lambda c: decided.append(1) or charpoly(c))
    for coin in sample:
        classify.classify_coin(coin)
        classify.escaping_subspace(coin)
        spectrum = classify.detect_point_spectrum(coin)
        cells = [laurent.localized_cells(coin, lam) for lam, _ in spectrum]
        for grid_n in (8, 9):
            classify.trapped_weight_operator(coin, grid_n=grid_n)
        # the lists handed out are the callers' own: emptying them changes no later answer
        lengths = [len(band) for band in cells]
        spectrum.clear()
        for band in cells:
            band.clear()
        assert [len(laurent.localized_cells(coin, lam))
                for lam, _ in classify.detect_point_spectrum(coin)] == lengths
    assert len(decided) == len(sample)


def test_a_fresh_coin_decides_the_rank_of_its_a_once(monkeypatch, rng):
    # laurent decides the rank of A where it solves a cell and keeps the
    # decision with it: classification, escaping subspace and the cells at
    # every reported eigenphase of a fresh family coin make one decision between them
    assert not hasattr(classify, "_rank_decision")
    decide, decisions = linalg._rank_decision, []

    def counting(a, tol):
        decisions.append(tol)
        return decide(a, tol)

    for module in (laurent, linalg):
        monkeypatch.setattr(module, "_rank_decision", counting)
    for family, draw in DRAWERS.items():
        for _ in range(3):
            coin = coins.coin_for(draw(rng))
            del decisions[:]
            result = classify.classify_coin(coin)
            assert classify.escaping_subspace(coin).shape == (4, result.escaping_dim)
            for lam, _ in result.eigenphases:
                assert laurent.localized_cells(coin, lam)
            assert result.family == family and decisions == [linalg.RANK_TOL]


def test_escaping_states_decay(rng):
    # Unique escaping state of a rank-3 coin: its origin average keeps
    # falling with the horizon (the t = 2 revival alone sets the scale).
    params = coins.TypeIIaParams(0.6, QUARTER, QUARTER, np.pi)
    coin = coins.coin_type_iia(params)
    esc = coins.escaping_state(params)
    traj = walk.simulate(coin, walk.initial_state(esc), 400)
    avg100 = float(np.mean(traj.p_origin[1:101]))
    avg400 = float(np.mean(traj.p_origin[1:401]))
    assert avg400 < 1e-3
    assert avg400 < 0.35 * avg100


# ------------------------------------------------------------ parameter recovery

def test_recover_full_rank_roundtrip(rng):
    for _ in range(10):
        params = draw_type_i(rng)
        coin = coins.coin_type_i(params)
        cell, _ = coins.stationary_cell(params)
        recovered = classify.recover_parameters(cell, "TypeI", coin)
        assert recovered.delta1 == pytest.approx(params.delta1, abs=1e-10)
        assert recovered.delta2 == pytest.approx(params.delta2, abs=1e-10)
        rebuilt = coins.coin_type_i(recovered)
        assert np.max(np.abs(rebuilt - coin)) < 1e-9


def test_recover_gauge_skips_amplitudes_below_relative_threshold():
    # |a| = |h| = 5e-10 lies below the absolute 1e-9 cut and below 1e-8 of
    # the largest amplitude, so b sets the gauge and a's phase changes nothing
    params = coins.TypeIParams(5e-10, 1.1, 0.3, 1.2, 2.1, 0.4, 0.9)
    coin = coins.coin_for(params)
    cell, _ = coins.stationary_cell(params)
    assert abs(cell.a) < min(1e-9, 1e-8 * np.max(np.abs(cell.amplitudes)))
    recovered = [classify.recover_parameters(
        dataclasses.replace(cell, a=abs(cell.a) * np.exp(1j * theta)), "TypeI", coin)
        for theta in (0.0, 2.0)]
    assert recovered[0] == recovered[1]


def test_recover_grover_parameters():
    cell, _ = coins.stationary_cell(GROVER_PARAMS)
    recovered = classify.recover_parameters(cell, "TypeIIa", coin=coins.grover_coin())
    for angle in (recovered.delta1, recovered.delta2, recovered.delta3):
        assert angle == pytest.approx(QUARTER, abs=1e-10)
    assert recovered.eta == pytest.approx(np.pi, abs=1e-10)
    for phase in (recovered.phi_d, recovered.phi_e, recovered.phi_f,
                  recovered.phi_g, recovered.phi_h):
        assert abs(np.exp(1j * phase) - 1) < 1e-10


def test_recover_rank3_roundtrip(rng):
    for _ in range(10):
        params = draw_type_iia(rng)
        coin = coins.coin_type_iia(params)
        cell, _ = coins.stationary_cell(params)
        recovered = classify.recover_parameters(cell, "TypeIIa", coin=coin)
        rebuilt = coins.coin_type_iia(recovered)
        assert np.max(np.abs(rebuilt - coin)) < 1e-9


def test_recover_quasi_1d_roundtrip_through_classify(rng):
    seen = set()
    for _ in range(40):
        coin = coins.coin_type_iib(draw_type_iib(rng))
        res = classify.classify_coin(coin)
        assert res.family == "TypeIIb" and isinstance(res.params, coins.TypeIIbParams)
        assert res.params.variant == res.variant
        seen.add(res.variant)
        assert np.max(np.abs(coins.coin_for(res.params) - coin)) < 1e-12
    assert seen == {1, 2}


def test_recover_quasi_1d_rejects_coin_in_neither_arrangement():
    cell, _ = coins.stationary_cell(coins.TypeIIbParams(variant=1, delta=0.7))
    with pytest.raises(ValueError):
        classify.recover_parameters(cell, "TypeIIb", coin=coins.grover_coin())


def test_recover_rejects_an_unknown_family():
    cell, _ = coins.stationary_cell(coins.TypeIParams(1.0, 0.5))
    coin = coins.coin_for(coins.TypeIParams(1.0, 0.5))
    with pytest.raises(ValueError, match="supports TypeI, TypeIIa and TypeIIb, not 'Haar'"):
        classify.recover_parameters(cell, "Haar", coin)


def test_recover_rejects_mismatched_cell(rng):
    # |a| != |h| and |a| != |f|: no family cell, so no parameters read off it
    # rebuild either coin
    bad = coins.AmplitudeCell(0.9, 0.1, 0.3, 0.2, 0.2, 0.4, 0.1, 0.5, norm=1.0)
    with pytest.raises(ValueError):
        classify.recover_parameters(bad, "TypeI", coins.coin_for(draw_type_i(rng)))
    with pytest.raises(ValueError):
        classify.recover_parameters(bad, "TypeIIa", coins.grover_coin())


def test_recover_raises_when_parameters_miss_the_coin():
    # Grover's cell against Grover with one column rotated by 1e-6: no
    # parameters read off them rebuild that coin (they miss it by ~6e-7)
    coin = coins.grover_coin() @ np.diag([np.exp(1e-6j), 1, 1, 1])
    cell, _ = coins.stationary_cell(GROVER_PARAMS)
    with pytest.raises(ValueError, match="miss the coin"):
        classify.recover_parameters(cell, "TypeIIa", coin)
    with pytest.raises(ValueError, match="4x4"):
        classify.recover_parameters(cell, "TypeIIa", coins.grover_coin()[None])


@pytest.mark.parametrize("delta2, delta3", [(np.pi / 2, 0.7), (0.5, 0.0), (0.0, 0.7)])
def test_type_iia_angle_endpoints_keep_parameters(rng, delta2, delta3):
    # at delta3 = 0 phi_f is read off h and c (a = f = 0); at delta2 = pi/2
    # phi_e - phi_g is read off b and d (e = g = 0); at delta2 = 0 (b = d = 0)
    # no amplitude carries phi_d, which is set to zero
    for _ in range(10):
        eta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, np.pi))
        params = coins.TypeIIaParams(rng.uniform(0.1, 1.4), delta2, delta3, eta,
                                     *rng.uniform(0, 2 * np.pi, 5))
        coin = coins.coin_for(params)
        res = classify.classify_coin(coin)
        assert res.family == "TypeIIa" and not res.fully_trapped
        assert res.params is not None
        lam = res.eigenphases[0][0]
        assert np.max(np.abs(lam * coins.coin_for(res.params) - coin)) <= 1e-9


# ------------------------------------------------------------------ round trips

def test_classify_recover_roundtrip_through_json(rng):
    params = draw_type_iia(rng)
    coin = coins.coin_type_iia(params)
    text = coins.coin_to_json(coin)
    res = classify.classify_coin(coins.coin_from_json(text))
    rebuilt = coins.coin_type_iia(res.params)
    assert np.max(np.abs(rebuilt - coin)) < 1e-9


def test_recover_roundtrip_up_to_global_phase(rng):
    # a coin carrying an extra global phase classifies through its rotated
    # point spectrum; the recovered parameters rebuild it up to that phase
    params = draw_type_i(rng)
    coin = np.exp(0.9j) * coins.coin_type_i(params)
    res = classify.classify_coin(coin)
    assert res.family == "TypeI" and res.params is not None
    rebuilt = coins.coin_type_i(res.params)
    phase = coin[np.abs(coin) > 0.1][0] / rebuilt[np.abs(coin) > 0.1][0]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.max(np.abs(coin - phase * rebuilt)) < 1e-9


def test_params_rebuild_phase_rotated_coins(rng):
    # coin = lam * coin_for(params), lam the first reported eigenphase; also
    # for coins perturbed so that the pair sits within 1e-9 of +-1, on
    # either side of the real axis, which rebuild to the perturbation
    for family, drawer in DRAWERS.items():
        for _ in range(10):
            rotated = np.exp(1j * rng.uniform(0.1, 3.0)) * coins.coin_for(drawer(rng))
            near = perturbed(coins.coin_for(drawer(rng)), 1e-11, rng)
            for coin, tol in ((rotated, 1e-12), (near, 1e-10)):
                res = classify.classify_coin(coin)
                assert res.family == family and res.params is not None
                lam = res.eigenphases[0][0]
                assert coin is rotated or abs(lam.imag) < 1e-9
                assert np.max(np.abs(lam * coins.coin_for(res.params) - coin)) < tol


def test_params_that_miss_the_coin_are_dropped(monkeypatch):
    # parameters read wrong do not rebuild the coin and are reported as none
    monkeypatch.setattr(classify, "_recover_eta", lambda *args: 2.0)
    res = classify.classify_coin(coins.grover_coin())
    assert res.family == "TypeIIa" and res.params is None


def test_classification_json_schema():
    res = classify.classify_coin(coins.grover_coin())
    doc = json.loads(classify.classification_to_json(res))
    assert doc["trapping"] is True
    assert doc["family"] == "TypeIIa"
    assert doc["rankA"] == 3 and doc["escaping_dim"] == 1
    assert len(doc["eigenphases"]) == 2
    assert doc["params"]["family"] == "TypeIIa"


@pytest.mark.xfail(strict=True, reason="recovery loses the parameters of family coins within "
                   "~1e-9 to 1e-7 of an angle endpoint (rebuild misses of 1e-9 to O(1))")
def test_type_i_near_angle_endpoint_keeps_parameters():
    # delta1 = 3e-9: |a| lies between the 1e-9 guard of _phase_of and the
    # relative 1e-8 gauge cut, so a phase is read off round-off
    rng = np.random.default_rng(7)
    params = coins.TypeIParams(3e-9, rng.uniform(0.1, np.pi / 2 - 0.1), *rng.uniform(0, 2 * np.pi, 5))
    coin = coins.coin_for(params)
    res = classify.classify_coin(coin)
    assert res.family == "TypeI" and not res.marginal
    assert res.params is not None
    lam = res.eigenphases[0][0]
    assert np.max(np.abs(lam * coins.coin_for(res.params) - coin)) <= 1e-9
