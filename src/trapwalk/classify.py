"""Trapping detection, family classification, escaping states, trapped weight.

Constant eigenvalues of the momentum-space walk operator are detected by
sampling it at pseudo-random quasi-momenta: the spreading bands are
non-constant analytic functions, so agreement at nine generic points to
1e-8 identifies a flat band beyond reasonable doubt at double precision.
Families follow from the rank of the stationary amplitude matrix A
(4, 3, 2 for Types I, IIa, IIb).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import coins as _coins
from . import laurent as _laurent
from .errors import NotTrappingError
from .linalg import RANK_TOL, fix_vector_phase, numerical_rank, require_unitary
from .spectral import _momentum_operator

__all__ = [
    "CLUSTER_TOL",
    "ClassificationResult",
    "detect_point_spectrum",
    "classify_coin",
    "escaping_subspace",
    "trapped_weight",
    "trapped_weight_operator",
    "recover_parameters",
    "classification_to_json",
]

CLUSTER_TOL = 1e-8
_DEFAULT_SEED = 20210507
_N_SAMPLES = 8


@functools.lru_cache(maxsize=16)
def _sample_momenta(n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """k = (0, 0) followed by ``n_samples`` pseudo-random momentum pairs.

    Memoised per ``(n_samples, seed)``; the arrays are shared, so read-only.
    """
    rng = np.random.default_rng(seed)
    ks = np.vstack([np.zeros((1, 2)), rng.uniform(-np.pi, np.pi, (n_samples, 2))])
    ks.flags.writeable = False
    return ks[:, 0], ks[:, 1]


def _cluster_center(group, others: np.ndarray, tol: float) -> complex:
    """Unit-modulus center of a cluster of sample-0 eigenvalues.

    A dispersive band can cross a flat band at k = 0 and join its cluster
    first, so the center is the first member lying within ``tol / 100`` of
    an eigenvalue at every other sample, else the first member.
    """
    if len(group) > 1:
        for lam in group:
            u = lam / abs(lam)
            if (np.abs(others - u).min(axis=1) < tol / 100).all():
                return u
    return group[0] / abs(group[0])


def _point_spectrum(c, n_samples: int, seed: int, tol: float):
    """Constant eigenvalues with minimal multiplicities, plus the cluster margin.

    ``c`` must be a checked unitary coin.
    """
    samples = np.linalg.eigvals(_momentum_operator(c, *_sample_momenta(n_samples, seed)))
    # Cluster the first sample into candidates.
    candidates: list[list[complex]] = []
    for lam in samples[0]:
        for group in candidates:
            if abs(lam - group[0]) < tol:
                group.append(lam)
                break
        else:
            candidates.append([lam])
    results = []
    margin = math.inf
    for group in candidates:
        center = _cluster_center(group, samples[1:], tol)
        dist = np.abs(samples - center)
        counts = np.sum(dist[1:] < tol, axis=1)
        if not counts.all():
            continue
        outside = dist[dist >= tol]
        if outside.size:
            margin = min(margin, float(outside.min()))
        results.append((complex(center), min(len(group), int(counts.min()))))

    def _canonical_angle(lam: complex) -> float:
        ang = float(np.angle(lam)) % (2 * np.pi)
        return 0.0 if ang > 2 * np.pi - 1e-9 else ang

    results.sort(key=lambda item: _canonical_angle(item[0]))
    return results, margin


def detect_point_spectrum(coin, seed: int = _DEFAULT_SEED) -> list[tuple[complex, int]]:
    """Eigenvalues of the momentum walk operator common to all sampled momenta.

    Parameters
    ----------
    coin : array_like
        Unitary 4x4 coin.
    seed : int
        Seed of the pseudo-random momentum pairs sampled besides k = (0, 0).

    Returns
    -------
    list of (eigenphase, multiplicity)
        Sorted by principal angle; empty for non-trapping coins.
    """
    spectrum, _ = _point_spectrum(require_unitary(coin), _N_SAMPLES, seed, CLUSTER_TOL)
    return spectrum


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of :func:`classify_coin`.

    ``family`` is one of NotTrapping, TypeI, TypeIIa, TypeIIb,
    DirectSumDegenerate.  ``variant`` distinguishes the two rank-2
    arrangements.  ``fully_trapped`` marks coins with four constant
    eigenvalues (no state can leave the 3x3 neighborhood of its start).
    ``marginal`` flags eigenvalue clusters separated from the rest by less
    than ten times the clustering tolerance.
    """

    trapping: bool
    eigenphases: tuple[tuple[complex, int], ...]
    family: str
    rank_a: int | None = None
    escaping_dim: int | None = None
    variant: int | None = None
    params: _coins.FamilyParams | None = None
    fully_trapped: bool = False
    marginal: bool = False


def _seed_phases(eigenphases) -> list[complex]:
    """One representative per chiral pair: eigenphases with angle in [0, pi)."""
    out = []
    for lam, _ in eigenphases:
        ang = np.angle(lam)
        if -1e-12 <= ang < np.pi - 1e-12:
            out.append(lam)
    return out


def _flat_bands(c, seed: int = _DEFAULT_SEED):
    """Point spectrum, cluster margin and the localized cells of each chiral pair.

    ``c`` must be a checked unitary coin.  ``seed_cells`` maps each seed
    eigenphase to its cells; since S(k + pi) = -S(k), the cells at the
    partner eigenphase -lam are exactly their chiral partners.
    """
    spectrum, margin = _point_spectrum(c, _N_SAMPLES, seed, CLUSTER_TOL)
    seed_cells = {lam: _laurent._localized_cells(c, lam) for lam in _seed_phases(spectrum)}
    return spectrum, margin, seed_cells


def _escaping_from_cells(seed_cells, rank_tol: float) -> np.ndarray:
    columns = [_coins._cell_matrix(cc) for cells in seed_cells.values()
               for cell in cells for cc in (cell, cell.chiral_partner())]
    _, kernel = numerical_rank(np.hstack(columns), rank_tol)
    return kernel


def escaping_subspace(coin, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the coin states orthogonal to every localized state.

    Returns a (4, k) array whose columns span the escaping subspace; k = 0
    for strong trapping, 1 for Type IIa, 2 for Type IIb, 0 again when the
    dynamics is fully trapped.

    Raises
    ------
    NotTrappingError
        If the coin has no constant eigenvalue.
    """
    spectrum, _, seed_cells = _flat_bands(require_unitary(coin))
    if not spectrum:
        raise NotTrappingError("coin is not trapping; every coin state escapes")
    return _escaping_from_cells(seed_cells, rank_tol)


# Below this fraction of a = |A|^2 + |B|^2 the row formula for |v|^2 has
# lost more than ~3 digits to cancellation, so the point is evaluated directly.
_ROW_FORMULA_FLOOR = 1e-3


def _check_grid(grid_n) -> int:
    if isinstance(grid_n, bool) or not isinstance(grid_n, (int, np.integer)) or grid_n < 1:
        raise ValueError(f"grid_n must be an integer >= 1, got {grid_n!r}")
    return int(grid_n)


def _band_projector(cell, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Midpoint average of v v† / |v|^2 over the grid x × y, |v| <= 1e-12 dropped.

    With v = A(y) + x B(y), |v|^2 = a + 2 Re(beta x) for a = |A|^2 + |B|^2 and
    beta = A†B, and v v† = AA† + BB† + x BA† + conj(x) AB†.  So the kx sum
    reduces to the row sums I0 = sum_x w and I1 = sum_x x w of w = 1/|v|^2,
    and the 4x4 average to one matmul over the ky nodes.  Points where the
    formula cancels take the direct ansatz vector instead.
    """
    xi = cell.local_states()
    rows_a = xi[0, 0] + y[:, None] * xi[0, 1]
    rows_b = xi[1, 0] + y[:, None] * xi[1, 1]
    a = np.sum(np.abs(rows_a) ** 2 + np.abs(rows_b) ** 2, axis=1)
    beta = np.sum(rows_a.conj() * rows_b, axis=1)
    sq = np.column_stack([x.real, x.imag, np.ones(x.size)]) @ np.vstack(
        [2.0 * beta.real, -2.0 * beta.imag, a])
    ix, iy = np.nonzero(sq <= _ROW_FORMULA_FLOOR * a)
    sq[ix, iy] = np.inf
    # 1/inf = 0: the direct nodes are added one by one below
    i0, i1_re, i1_im = np.vstack([np.ones(x.size), x.real, x.imag]) @ (1.0 / sq)
    i1 = i1_re + 1j * i1_im
    stack = np.vstack([rows_a, rows_b])
    weighted = np.vstack([i0[:, None] * rows_a.conj() + i1.conj()[:, None] * rows_b.conj(),
                          i1[:, None] * rows_a.conj() + i0[:, None] * rows_b.conj()])
    band = stack.T @ weighted
    if ix.size:
        vec = _coins._ansatz_vectors(cell, x[ix], y[iy])
        norms = np.linalg.norm(vec, axis=1)
        keep = norms > 1e-12
        unit = vec[keep] / norms[keep, None]
        band += unit.T @ unit.conj()
    return band / (x.size * y.size)


def trapped_weight_operator(coin, grid_n: int = 256) -> np.ndarray:
    """The 4x4 Hermitian PSD operator W with trapped weight psi† W psi.

    W = sum over constant eigenphases of M_b^2, where M_b is the midpoint
    average over a ``grid_n`` x ``grid_n`` Brillouin-zone grid of the
    projector onto the normalized bounded-support eigenvector of band b
    (points where the eigenvector vanishes to 1e-12 are dropped).  The kx
    direction is summed as scalar row sums of 1/|v|^2, so a call costs
    O(grid_n^2) real operations and no per-point outer products.

    Raises
    ------
    ValueError
        If ``grid_n`` is not an integer >= 1.
    NotTrappingError
        If the coin has no constant eigenvalue.
    """
    c = require_unitary(coin)
    grid_n = _check_grid(grid_n)
    spectrum, _, seed_cells = _flat_bands(c)
    if not spectrum:
        raise NotTrappingError("coin is not trapping")
    k = -np.pi + 2.0 * np.pi * (np.arange(grid_n) + 0.5) / grid_n
    z = np.exp(1j * k)
    op = np.zeros((4, 4), dtype=np.complex128)
    # The partner band's cells are the chiral partners of the seed band's.
    for cells in seed_cells.values():
        for group in (cells, [cell.chiral_partner() for cell in cells]):
            # Distinct cells of a direct sum live in orthogonal sectors, so
            # their projectors add without re-orthonormalization.
            band = sum(_band_projector(cell, z, z) for cell in group)
            op += band.conj().T @ band
    return (op + op.conj().T) / 2


def trapped_weight(coin, initial_coin_state, grid_n: int = 256) -> float:
    """Long-time average probability of finding the walker at the origin.

    The sum over constant eigenphases of the squared norm of the origin
    component of each flat-band projection, that is ``psi† W psi`` with
    W from :func:`trapped_weight_operator` at the same grid.  Zero exactly
    when the initial coin state is escaping.
    """
    psi = np.asarray(initial_coin_state, dtype=np.complex128).reshape(4)
    nrm = np.linalg.norm(psi)
    if not (abs(nrm - 1.0) <= 1e-12):
        raise ValueError(f"initial coin state must be normalized, |psi| = {nrm!r}")
    return float(np.vdot(psi, trapped_weight_operator(coin, grid_n) @ psi).real)


_FAMILY_BY_RANK = {4: "TypeI", 3: "TypeIIa", 2: "TypeIIb"}


def classify_coin(coin, rank_tol: float = RANK_TOL,
                  seed: int = _DEFAULT_SEED) -> ClassificationResult:
    """Full classification of an arbitrary unitary coin.

    Detects the point spectrum, extracts a localized eigenstate, forms the
    amplitude matrix A and maps rank 4/3/2 to Type I/IIa/IIb.  Coins whose
    constant eigenvalues carry multiplicity two or more are direct sums of
    one-dimensional trapping coins and are reported as DirectSumDegenerate.
    Parameter recovery is attempted for every family unless the coin is
    fully trapped; ``params`` stays None when it fails.
    """
    c = require_unitary(coin)
    spectrum, margin, seed_cells = _flat_bands(c, seed)
    marginal = margin < 10 * CLUSTER_TOL
    if not spectrum:
        return ClassificationResult(
            trapping=False, eigenphases=(), family="NotTrapping", marginal=marginal,
        )
    total_mult = sum(m for _, m in spectrum)
    fully = total_mult >= 4
    phases = tuple(spectrum)
    esc_dim = _escaping_from_cells(seed_cells, rank_tol).shape[1]

    if any(m >= 2 for _, m in spectrum):
        return ClassificationResult(
            trapping=True, eigenphases=phases, family="DirectSumDegenerate",
            escaping_dim=esc_dim, fully_trapped=fully, marginal=marginal,
        )

    cells = next(iter(seed_cells.values()))
    rank, _ = numerical_rank(_coins._cell_matrix(cells[0]), rank_tol)
    family = _FAMILY_BY_RANK.get(rank)
    if family is None:
        raise NotTrappingError(f"amplitude matrix has unexpected rank {rank}")

    variant = _coins._iib_variant(c) if family == "TypeIIb" else None
    params = None
    if not fully:
        try:
            params = recover_parameters(cells[0], family, coin=c)
        except (ValueError, ArithmeticError):
            params = None
    return ClassificationResult(
        trapping=True, eigenphases=phases, family=family, rank_a=rank,
        escaping_dim=esc_dim, variant=variant, params=params,
        fully_trapped=fully, marginal=marginal,
    )


def _phase_of(z: complex, mag: float, tol: float = 1e-9) -> float | None:
    return float(np.angle(z)) % (2 * np.pi) if mag > tol else None


def _recover_phases(amps, guards) -> tuple[float, float, float, float, float]:
    """Phases (phi_d, phi_e, phi_f, phi_g, phi_h) of a gauge-fixed cell.

    ``guards`` holds, for each amplitude a..h, the magnitude that multiplies
    its phase.  A phase whose guard vanishes is read off its partner
    amplitude (phi_h from c, phi_d from b), or set to zero.
    """
    _, b, c, d, e, f, g, h = amps
    _, gb, gc, gd, ge, gf, gg, gh = guards
    phi_f = _phase_of(f, gf) or 0.0
    phi_h = _phase_of(h, gh)
    if phi_h is None:
        arg_c = _phase_of(c, gc)
        phi_h = (phi_f + arg_c) if arg_c is not None else 0.0
    phi_e = _phase_of(e, ge) or 0.0
    phi_g = _phase_of(g, gg) or 0.0
    phi_d = _phase_of(d, gd)
    if phi_d is None:
        arg_b = _phase_of(b, gb)
        phi_d = (arg_b - phi_e + phi_g) if arg_b is not None else 0.0
    return phi_d, phi_e, phi_f, phi_g, phi_h


def recover_parameters(cell: _coins.AmplitudeCell, family: str,
                       coin=None) -> _coins.FamilyParams:
    """Family parameters reproducing a given stationary cell.

    The gauge (``linalg.fix_vector_phase``) makes the first amplitude above
    1e-8 of the largest one real and nonnegative.  For the
    rank-3 family the cell does not determine the extra rotation angle
    ``eta``, so the coin itself is required: ``eta`` is read off the
    structured product form by a Frobenius projection.  The rank-2 family
    is read off the coin's unitary 2x2 block and trapping swap, so it
    requires the coin too.

    Raises
    ------
    ValueError
        If the cell violates the magnitude pattern of the requested family,
        if a rank-2 coin is in neither sector arrangement, or if
        ``family`` is 'TypeIIa' or 'TypeIIb' and no coin is supplied.
    """
    if family == "TypeIIb":
        if coin is None:
            raise ValueError("recovering the rank-2 family requires the coin")
        return _recover_iib(coin)
    amps = fix_vector_phase(cell.amplitudes)
    a, b, c, d, e = amps[:5]

    if family == "TypeI":
        if not (cell.is_full_rank_case() and not cell.is_rank_deficient_case()):
            raise ValueError("cell does not satisfy the full-rank magnitude pattern")
        delta1 = math.atan2(abs(a), abs(b))
        delta2 = math.atan2(abs(c), abs(d))
        s1, c1 = math.sin(delta1), math.cos(delta1)
        s2, c2 = math.sin(delta2), math.cos(delta2)
        phases = _recover_phases(amps, (s1, c1, s2, c2, c2, s2, c1, s1))
        return _coins.TypeIParams(delta1, delta2, *phases)

    if family == "TypeIIa":
        if not cell.is_rank_deficient_case():
            raise ValueError("cell does not satisfy the rank-deficient magnitude pattern")
        if coin is None:
            raise ValueError("recovering eta for the rank-3 family requires the coin")
        delta1 = math.atan2(math.hypot(abs(a), abs(c)), math.hypot(abs(b), abs(e)))
        delta3 = math.atan2(abs(a), abs(c))
        delta2 = math.atan2(abs(b), abs(e))
        phases = _recover_phases(amps, np.abs(amps))
        eta = _recover_eta(coin, delta1, delta2, delta3, *phases)
        return _coins.TypeIIaParams(delta1, delta2, delta3, eta, *phases)

    raise ValueError(f"parameter recovery supports TypeI, TypeIIa and TypeIIb, not {family!r}")


def _recover_iib(coin) -> _coins.TypeIIbParams:
    """Rank-2 parameters from the coin's unitary 2x2 block and trapping swap.

    The block e^{i phi} [[e^{i alpha} cos delta, e^{-i beta} sin delta],
    [-e^{i beta} sin delta, e^{-i alpha} cos delta]] has determinant
    e^{2i phi}, which fixes phi in [0, pi); the family's double cover
    (phi - pi, alpha + pi, beta + pi) makes that choice free.  Phases
    multiplying a vanishing cos or sin are set to zero.
    """
    c = np.asarray(coin)
    variant = _coins._iib_variant(c)
    if variant is None:
        raise ValueError("rank-2 coin is in neither sector arrangement")
    sector = _coins._IIB_SECTORS[variant]
    lo, hi = sector.trapping
    block = c[np.ix_(sector.unitary, sector.unitary)]
    det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    phi = (float(np.angle(det)) / 2.0) % math.pi
    cos_delta = min(abs(block[0, 0]), 1.0)
    delta = math.acos(cos_delta)
    unphase = np.exp(-1j * phi)
    alpha = float(np.angle(block[0, 0] * unphase)) if cos_delta > 1e-9 else 0.0
    beta = float(np.angle(-block[1, 0] * unphase)) if math.sin(delta) > 1e-9 else 0.0
    return _coins.TypeIIbParams(variant=variant, delta=delta, phi=phi, alpha=alpha, beta=beta,
                                **{sector.phase: float(np.angle(c[hi, lo]))})


def _recover_eta(coin, delta1, delta2, delta3, phi_d, phi_e, phi_f, phi_g, phi_h) -> float:
    """Read eta off the structured form C = C0 (I + xi |k><k|).

    The coin is linear in xi with matrix coefficient C0 |k><k| of unit
    Frobenius norm, so xi is a plain inner product; eta = arg(1 + xi).
    """
    # the kernel state does not depend on eta; pi is only a placeholder
    probe = _coins.TypeIIaParams(delta1, delta2, delta3, math.pi,
                                 phi_d, phi_e, phi_f, phi_g, phi_h)
    k = _coins.escaping_state(probe)
    swap = _coins._structured_swap(phi_e, phi_f, phi_g)
    direction = swap @ np.outer(k, k.conj())
    xi = complex(np.vdot(direction, np.asarray(coin, dtype=complex) - swap)
                 / np.vdot(direction, direction))
    eta = float(np.angle(1.0 + xi))
    if eta == 0.0:
        raise ValueError("recovered eta is zero; coin is not a rank-3 family member")
    return eta


def classification_to_json(result: ClassificationResult) -> str:
    """Serialize a classification result to the JSON wire format."""
    phases = []
    for lam, mult in result.eigenphases:
        phases.extend([[float(lam.real), float(lam.imag)]] * mult)
    doc = {
        "trapping": result.trapping,
        "eigenphases": phases,
        "family": result.family,
        "rankA": result.rank_a,
        "escaping_dim": result.escaping_dim,
        "params": _coins.params_to_dict(result.params) if result.params else None,
        "variant": result.variant,
        "fully_trapped": result.fully_trapped,
    }
    if result.marginal:
        doc["marginal"] = True
    return json.dumps(doc, indent=2)
