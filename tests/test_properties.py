"""Property tests of parsers, constructors and the exact invariants of a step."""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, strategies as st

from trapwalk import _text, classify, coins, laurent, walk
from trapwalk.errors import ParameterDomainError

from conftest import DRAWERS, random_unitary

QUARTER_RANGE = st.floats(0.0, math.pi / 2)
PHASES = st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=5)
ETAS = st.floats(0.01, 3.1).flatmap(lambda x: st.sampled_from([x, -x]))

TYPE_IIA = st.builds(lambda d1, d2, d3, eta, ph: coins.TypeIIaParams(d1, d2, d3, eta, *ph),
                     st.floats(0.01, math.pi / 2 - 0.01), QUARTER_RANGE, QUARTER_RANGE,
                     ETAS, PHASES)
TYPE_IIB = st.builds(lambda v, d, ph: coins.TypeIIbParams(v, d, *ph),
                     st.sampled_from([1, 2]), QUARTER_RANGE, PHASES)


@st.composite
def type_i_params(draw):
    d1, d2 = draw(QUARTER_RANGE), draw(QUARTER_RANGE)
    if d1 == d2:  # the family excludes the diagonal
        d2 = 0.0 if d1 > 0.0 else 1.0
    return coins.TypeIParams(d1, d2, *draw(PHASES))


FAMILY_PARAMS = st.one_of(type_i_params(), TYPE_IIA, TYPE_IIB)


@given(FAMILY_PARAMS)
def test_coin_json_round_trip_is_bit_exact(params):
    coin = coins.coin_for(params)
    back = coins.coin_from_json(coins.coin_to_json(coin))
    assert back.dtype == np.complex128
    assert np.array_equal(back.view(np.uint64), coin.view(np.uint64))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=20,
)
NEAR_PAIRS = st.lists(st.lists(JSON_VALUES, max_size=3), min_size=3, max_size=5)


@given(st.one_of(JSON_VALUES, NEAR_PAIRS))
@example([[10 ** 400, 0], [0, 0], [0, 0], [0, 0]])
@example([[1, 0], [0, 0], [0, 0], [0, True]])
def test_complex_from_pairs_raises_only_value_error(value):
    try:
        out = coins.complex_from_pairs(value, 4, "state")
    except ValueError:
        return
    assert out.shape == (4,) and out.dtype == np.complex128


BASE_PARAMS = [
    coins.TypeIParams(0.4, 0.9, 0.1, 0.2, 0.3, 0.4, 0.5),
    coins.TypeIIaParams(0.4, 0.5, 0.6, 1.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    coins.TypeIIbParams(variant=2, delta=0.7, phi=0.3, alpha=0.2, beta=0.1, gamma=0.5,
                        phi_f=0.6),
]
NUMERIC_FIELDS = [(base, f.name) for base in BASE_PARAMS
                  for f in dataclasses.fields(base) if f.name != "variant"]


@given(st.sampled_from(NUMERIC_FIELDS), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_parameters_are_domain_errors(field, value):
    base, name = field
    try:
        dataclasses.replace(base, **{name: value})
    except ParameterDomainError:
        return
    raise AssertionError(f"{type(base).__name__}.{name} = {value} was accepted")


@st.composite
def walk_setups(draw):
    if draw(st.booleans()):
        coin = coins.coin_for(draw(FAMILY_PARAMS))
    else:
        coin = random_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    psi = np.array(parts[:4]) + 1j * np.array(parts[4:])
    if np.linalg.norm(psi) < 1e-3:
        psi = np.array([1, 0, 0, 0], dtype=complex)
    return coin, psi / np.linalg.norm(psi), draw(st.integers(1, 12))


@given(walk_setups())
def test_step_conserves_norm_light_cone_and_parity(setup):
    coin, psi, steps = setup
    state = walk.initial_state(psi)
    for _ in range(steps):
        state = walk.step(state, coin)
        assert abs(state.total_probability() - 1.0) <= 1e-12
        coords = np.arange(state.field.shape[1]) - state.offset
        xs, ys = np.meshgrid(coords, coords, indexing="ij")
        assert not np.any(state.field[:, np.abs(xs) + np.abs(ys) > state.t])
        if state.t % 2:
            assert not np.any(state.amplitude(0, 0))


def lattice_permutation(r) -> np.ndarray:
    """The coin-space action of a lattice map r: P[i, j] = 1 when r d_j = d_i."""
    steps = np.array(coins.DISPLACEMENTS)
    return (steps[:, None, :] == (steps @ np.array(r).T)[None, :, :]).all(axis=2).astype(float)


ROTATION = lattice_permutation([[0, -1], [1, 0]])
X_REFLECTION = lattice_permutation([[-1, 0], [0, 1]])


@st.composite
def symmetric_pairs(draw):
    """A family coin times a global phase, and its image under one lattice symmetry.

    The last item is the unitary P with coin' = P coin P^H, or None for the
    transpose, which is not such a change of basis.
    """
    family = draw(st.sampled_from(sorted(DRAWERS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coin = np.exp(1j * draw(st.floats(0.0, 2 * math.pi))) * coins.coin_for(DRAWERS[family](rng))
    kind = draw(st.sampled_from(["rotation", "x-reflection", "gauge", "transpose"]))
    if kind == "transpose":
        return family, kind, coin, coin.T, None
    if kind == "gauge":
        p = np.diag(np.exp(1j * np.array(draw(st.lists(st.floats(0.0, 2 * math.pi),
                                                         min_size=4, max_size=4)))))
    else:
        p = ROTATION if kind == "rotation" else X_REFLECTION
    return family, kind, coin, p @ coin @ p.conj().T, p


def test_lattice_permutations_match_hand_written_tables():
    # L -> D -> R -> U -> L under the 90 degree rotation; L <-> R under x -> -x
    rotation = np.zeros((4, 4))
    rotation[[1, 3, 0, 2], [0, 1, 2, 3]] = 1.0
    assert np.array_equal(ROTATION, rotation)
    assert np.array_equal(X_REFLECTION, np.eye(4)[[3, 1, 2, 0]])


@given(symmetric_pairs())
def test_lattice_symmetries_keep_the_classification(pair):
    family, kind, coin, image, p = pair
    before, after = classify.classify_coin(coin), classify.classify_coin(image)
    assert before.family == after.family == family
    assert (after.rank_a, after.escaping_dim) == (before.rank_a, before.escaping_dim)
    if family == "TypeIIb":
        # the rotation exchanges the horizontal and vertical sectors
        swap = {1: 2, 2: 1} if kind == "rotation" else {1: 1, 2: 2}
        assert after.variant == swap[before.variant]
    lam = laurent._flat_bands(image.tobytes())[2][0][0]
    assert after.params is not None
    assert np.max(np.abs(lam * coins.coin_for(after.params) - image)) <= 1e-9
    if p is not None:
        w = classify.trapped_weight_operator(coin, grid_n=16)
        w_image = classify.trapped_weight_operator(image, grid_n=16)
        assert np.max(np.abs(w_image - p @ w @ p.conj().T)) <= 1e-13


def _from_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    _from_bits(0x7FF0000000000001),  # signaling NaN, smallest payload
    _from_bits(0xFFF8000000000ABC),  # negative quiet NaN with payload bits
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    # repr switches to exponent notation below 1e-4 and from 1e16 on
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 9.9999e-5,
    1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), -1e16, 1.7976931348623157e308,
]
FLOAT_ARRAYS = st.lists(
    st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64),
              st.integers(0, 2 ** 64 - 1).map(_from_bits)),
    max_size=40,
).map(lambda values: np.array(values, dtype=np.float64))


@given(FLOAT_ARRAYS)
@example(np.array(SPECIAL_FLOATS))
@example(np.array(SPECIAL_FLOATS * 3)[::-1])
def test_float_texts_are_the_reprs(values):
    assert _text._float_texts(values) == list(map(repr, values.tolist()))
    # a 2-D input is read in row-major order
    square = np.resize(values, (3, 3))
    assert _text._float_texts(square) == list(map(repr, square.ravel().tolist()))
