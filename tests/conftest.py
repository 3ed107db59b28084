import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import expm

from trapwalk import classify, coins, laurent, linalg

# Property tests replay the same examples on every run.
settings.register_profile("trapwalk", derandomize=True, deadline=None)
settings.load_profile("trapwalk")

MARGIN = 0.05


def draw_type_i(rng, margin=MARGIN) -> coins.TypeIParams:
    while True:
        d1, d2 = rng.uniform(margin, np.pi / 2 - margin, 2)
        if abs(d1 - d2) >= margin:
            break
    return coins.TypeIParams(d1, d2, *rng.uniform(0, 2 * np.pi, 5))


def draw_type_iia(rng, margin=MARGIN) -> coins.TypeIIaParams:
    d1, d2, d3 = rng.uniform(margin, np.pi / 2 - margin, 3)
    eta = float(rng.choice([-1.0, 1.0]) * rng.uniform(margin, np.pi))
    return coins.TypeIIaParams(d1, d2, d3, eta, *rng.uniform(0, 2 * np.pi, 5))


def draw_type_iib(rng, margin=MARGIN) -> coins.TypeIIbParams:
    return coins.TypeIIbParams(
        variant=int(rng.integers(1, 3)),
        delta=float(rng.uniform(margin, np.pi / 2 - margin)),
        phi=float(rng.uniform(0, np.pi - margin)),
        alpha=float(rng.uniform(0, 2 * np.pi)),
        beta=float(rng.uniform(0, 2 * np.pi)),
        gamma=float(rng.uniform(0, 2 * np.pi)),
        phi_f=float(rng.uniform(0, 2 * np.pi)),
    )


DRAWERS = {"TypeI": draw_type_i, "TypeIIa": draw_type_iia, "TypeIIb": draw_type_iib}


# Coins on the boundaries of the families: rank-deficient and direct-sum cells.
DEGENERATE_COINS = [coins.coin_for(p) for p in (
    coins.TypeIParams(np.pi / 2, 0.0),
    coins.TypeIIaParams(0.8, 0.0, 0.0, 2.1, 0.3, 1.1, 2.2, 0.7, 1.9),
    coins.TypeIIaParams(0.8, np.pi / 2, np.pi / 2, 2.1, 0.3, 1.1, 2.2, 0.7, 1.9),
    coins.TypeIIbParams(variant=1, delta=np.pi / 2, gamma=0.4),
    coins.TypeIIbParams(variant=1, delta=np.pi / 2, phi=np.pi / 2, gamma=0.2),
)]


def random_unitary(rng, n=4) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def perturbed(coin, eps, rng) -> np.ndarray:
    """``coin`` times expm(i eps H) for a Hermitian Gaussian H drawn from ``rng``."""
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    return coin @ expm(1j * eps * h)


def short_decimals(rng, n: int) -> np.ndarray:
    """``n`` floats: decimals of 1 to 17 random digits at random decimal
    exponents over the whole float64 range (a few round to 0), either
    sign, as ``float`` reads them, then each one's two neighbours."""
    draws = -(-n // 3)
    size = rng.integers(1, 18, draws)
    digits = rng.integers(10 ** (size - 1), 10 ** size)
    power = rng.integers(-342, 309, draws) - size
    sign = rng.choice(["", "-"], draws)
    values = np.array([float(f"{s}{d}e{p}")
                       for s, d, p in zip(sign, digits.tolist(), power.tolist())])
    largest = np.finfo(np.float64).max
    neighbours = [np.nextafter(values, -largest), np.nextafter(values, largest)]
    return np.concatenate([values, *neighbours])[:n]


def hadamard_tensor_coin() -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    return np.kron(h, h)


@pytest.fixture(autouse=True)
def fresh_memos():
    """Start every test with empty per-coin memos, so that no test reads a
    decision, unitarity defect or W that an earlier test left behind.
    """
    for memo in (laurent._flat_bands, linalg._coin_defect, linalg._coin_product,
                 classify._weight_operator):
        memo.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
