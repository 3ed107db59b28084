import dataclasses
import json

import numpy as np
import pytest

from trapwalk import classify, coins, laurent, spectral, walk
from trapwalk.errors import NotTrappingError
from trapwalk.linalg import require_unitary

from conftest import (DEGENERATE_COINS, DRAWERS, draw_type_i, draw_type_iia, draw_type_iib,
                      hadamard_tensor_coin, random_unitary)

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
    # comfortably separated clusters are not flagged
    assert not classify.classify_coin(coins.grover_coin()).marginal
    # an absurdly loose clustering tolerance forces the margin inside the
    # ten-tolerance band, which the flag must report
    _, margin = classify._point_spectrum(coins.grover_coin(), 8, 1, tol=0.3)
    assert margin < 10 * 0.3


def test_chiral_pairing(rng):
    for drawer in DRAWERS.values():
        for _ in range(5):
            spectrum = classify.detect_point_spectrum(coins.coin_for(drawer(rng)))
            lams = [l for l, _ in spectrum]
            for lam in lams:
                assert any(abs(lam + other) < 1e-8 for other in lams)


def reference_point_spectrum(coin, n_samples, seed, tol):
    """The per-momentum loop the batched ``_point_spectrum`` replaced.

    A cluster of several sample-0 eigenvalues is centered on its first member
    that recurs within tol / 100 at every other sample (else its first member).
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
        for n_samples, seed, tol in ((8, classify._DEFAULT_SEED, classify.CLUSTER_TOL),
                                     (5, 3, 0.3)):
            got = classify._point_spectrum(coin, n_samples, seed, tol)
            assert got == reference_point_spectrum(coin, n_samples, seed, tol)


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


@pytest.mark.parametrize("grid_n", [0, -3, 2.5, True])
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


def test_sample_momenta_cached_read_only():
    first = classify._sample_momenta(8, classify._DEFAULT_SEED)
    second = classify._sample_momenta(8, classify._DEFAULT_SEED)
    assert all(a is b for a, b in zip(first, second))
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def count_checks(monkeypatch) -> dict:
    """Count require_unitary calls, cell validations and the cells laurent builds."""
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
        cells = build(c, eigenphase)
        calls["built"] += len(cells)
        return cells

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
        before = dict(calls)
        run(coin)
        built = calls["built"] - before["built"]
        assert calls["unitary"] - before["unitary"] == 1
        # one check per cell where laurent builds it; chiral partners are exact sign flips
        assert built >= 1 and calls["validate"] - before["validate"] == built


def test_classify_checks_a_non_trapping_coin_once(monkeypatch, rng):
    calls = count_checks(monkeypatch)
    assert classify.classify_coin(random_unitary(rng)).family == "NotTrapping"
    assert calls == {"unitary": 1, "validate": 0, "built": 0}


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
        recovered = classify.recover_parameters(cell, "TypeI")
        assert recovered.delta1 == pytest.approx(params.delta1, abs=1e-10)
        assert recovered.delta2 == pytest.approx(params.delta2, abs=1e-10)
        rebuilt = coins.coin_type_i(recovered)
        assert np.max(np.abs(rebuilt - coin)) < 1e-9


def test_recover_gauge_skips_amplitudes_below_relative_threshold():
    # |a| = |h| = 3e-9 lies above an absolute 1e-9 cut but below 1e-8 of the
    # largest amplitude, so b sets the gauge and a's phase changes nothing
    cell, _ = coins.stationary_cell(coins.TypeIParams(0.7, 1.1, 0.3, 1.2, 2.1, 0.4, 0.9))
    assert 3e-9 < 1e-8 * np.max(np.abs(cell.amplitudes))
    recovered = [classify.recover_parameters(
        dataclasses.replace(cell, a=3e-9 * np.exp(1j * theta), h=3e-9j), "TypeI")
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


def test_recover_quasi_1d_requires_coin():
    cell, _ = coins.stationary_cell(coins.TypeIIbParams(variant=1, delta=0.7))
    with pytest.raises(ValueError):
        classify.recover_parameters(cell, "TypeIIb")
    with pytest.raises(ValueError):
        classify.recover_parameters(cell, "TypeIIb", coin=coins.grover_coin())


def test_recover_rejects_mismatched_cell():
    # |a| != |h| and |a| != |f|: violates both magnitude patterns
    bad = coins.AmplitudeCell(0.9, 0.1, 0.3, 0.2, 0.2, 0.4, 0.1, 0.5, norm=1.0)
    with pytest.raises(ValueError):
        classify.recover_parameters(bad, "TypeI")
    with pytest.raises(ValueError):
        classify.recover_parameters(bad, "TypeIIa", coin=coins.grover_coin())


def test_recover_rank3_requires_coin():
    cell, _ = coins.stationary_cell(GROVER_PARAMS)
    with pytest.raises(ValueError):
        classify.recover_parameters(cell, "TypeIIa")


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


def test_classification_json_schema():
    res = classify.classify_coin(coins.grover_coin())
    doc = json.loads(classify.classification_to_json(res))
    assert doc["trapping"] is True
    assert doc["family"] == "TypeIIa"
    assert doc["rankA"] == 3 and doc["escaping_dim"] == 1
    assert len(doc["eigenphases"]) == 2
    assert doc["params"]["family"] == "TypeIIa"
