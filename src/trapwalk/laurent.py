"""Bivariate Laurent polynomials and the bounded-support eigenvector machinery.

A trapping coin makes ``det(C - S^{-1})`` vanish identically, where
``S = diag(x^dx y^dy)`` over the steps of ``coins.DISPLACEMENTS``, with
``x = exp(i k_x)``, ``y = exp(i k_y)``.  The kernel of that Laurent-polynomial
matrix contains a vector whose entries are ordinary polynomials of degree
one in each variable; its sixteen coefficients are the amplitudes of an
eigenstate supported on a 2x2 patch of the lattice.

The degree-(1,1) kernel vector is obtained from the exact coefficient
system rather than by symbolic lowest-terms reduction: the coefficients of
``D(x, y) psi(x, y)`` are those of ``C A - B`` for the cell's
detailed-balance pair (``coins.balance_matrices``), so the kernel is that
of a 16 x 8 matrix in the cell amplitudes a..h.  The adjugate kernel
vectors are still provided, with their exact degree windows, for
cross-checking.

Determinants are computed by interpolation: a Laurent polynomial whose
exponents lie in a known window is fixed by its values on the grid of
roots of unity of the window's size, and on that grid the Vandermonde
interpolation is exactly the discrete Fourier transform.  So the entries
are evaluated by an inverse FFT, the determinant is taken pointwise, and
one FFT returns its coefficients.  A polynomial is identically zero when
its explicit coefficients are all negligible.

The flat-band decision, ``_flat_bands``, lives here beside the polynomial
``det(z S^-1 - C)`` it reads and the kernel solve that confirms each chiral
pair of flat bands; ``classify`` and ``localized_cells`` read it.  It is
memoized on the checked coin's bytes, with the cells it solved and the rank
decision of each solved cell's A, so each coin is decided once however many
entries read it.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import coins as _coins
from .errors import DegenerateMinorError, KernelInconsistencyError, NotTrappingError
from .linalg import RANK_TOL, _marginal, _rank_decision, fix_vector_phase, require_unitary
from .spectral import _momentum_operator

__all__ = [
    "PRUNE_TOL",
    "ZERO_REL_TOL",
    "KERNEL_REL_TOL",
    "LaurentPoly",
    "LaurentMatrix",
    "kernel_matrix",
    "adjugate_kernel_vector",
    "localized_cells",
    "localized_eigenstate",
]

PRUNE_TOL = 1e-14          # absolute coefficient pruning
ZERO_REL_TOL = 1e-10       # identity-zero test: largest coefficient magnitude allowed

# The thresholds of the flat-band decision, _flat_bands, and what each guards:
# - coins._FLAT_TOL, the one near-trapping scale: a mixed 2x2 minor, edge
#   polynomial or root residual of _charpoly below it is zero; so is a coin
#   entry in the direct-sum pattern tests.  _DOUBLE_ROOT_TOL: a smaller split of
#   the quadratic center is a double root (rounding splits one by ~sqrt(eps)).
#   A value within a factor ten of its threshold, on either side
#   (linalg._marginal), makes the decision marginal.
# - KERNEL_REL_TOL: the relative singular value under which the 16 x 8 cell
#   system has a kernel, and how near a reported eigenphase localized_cells
#   answers.  coins.AmplitudeCell.validate (1e-10): the cell check.  A pair
#   counts as flat if its seed, or failing that its partner, passes the solve
#   and the check; a pair whose seed fails either is marginal.
# - 1e-9: an angle that close below 2 pi sorts as 0, the canonical angle.
# - linalg.RANK_TOL: the one family rule.  A singular value of a cell's A below
#   it over the largest is zero.  _cell_from_amplitudes (or, for the direct-sum
#   pattern cells, _localized_cells) decides it once per solved cell: the rank
#   sets the cell's norm convention, and _flat_bands keeps the rank, the kernel
#   of A^H (the escaping subspace) and the margin with the cells for classify.
_DOUBLE_ROOT_TOL = 1e-6
KERNEL_REL_TOL = 1e-9

# D = C - diag(x^i y^j) with these exponents (i, j) = -d, one per direction.
_SHIFT_EXPONENTS = tuple((-dx, -dy) for dx, dy in _coins.DISPLACEMENTS)

# Row t of _TAKEN marks the diagonal factors z x^-dx y^-dy one term of
# det(z S^-1 - C) takes from z S^-1; the term's other factor is (-1)^(4 - |t|)
# times the principal minor of C on the directions not taken (1 if none).
_TAKEN = np.array(list(itertools.product((False, True), repeat=4)))
_KEPT = ~_TAKEN
_TAKEN_EXPONENTS = _TAKEN @ np.array(_SHIFT_EXPONENTS)
_MINOR_SCATTER = np.zeros((3, 3, 5, 16))
_MINOR_SCATTER[_TAKEN_EXPONENTS[:, 0] + 1, _TAKEN_EXPONENTS[:, 1] + 1,
               _TAKEN.sum(axis=1), np.arange(16)] = (-1.0) ** _KEPT.sum(axis=1)


def _charpoly(c: np.ndarray) -> np.ndarray:
    """Coefficients of ``det(z S^-1 - C)``, the characteristic polynomial of S C.

    Shape (3, 3, 5): entry ``[i + 1, j + 1, n]`` multiplies x^i y^j z^n.  The
    center is ``z^4 + (M_LR + M_DU) z^2 + det C``, each edge ``-z (C_jj z^2 + M)``
    with M a 3x3 principal minor, and each corner ``M z^2`` with M the 2x2
    minor of a mixed x/y pair.
    """
    # C padded with the identity off a set of directions has its minor there as det
    padded = np.where(_KEPT[:, :, None] & _KEPT[:, None, :], c, np.eye(4))
    return _MINOR_SCATTER @ np.linalg.det(padded)


# Polishing momenta: k = 0, where U = C, and a generic one for bands crossing there.
_POLISH_K = (np.array([0.0, 2.23]), np.array([0.0, -1.19]))
# The edge coefficients of _charpoly, each -z (C_jj w + M) with w = z^2.
_EDGES = ([0, 1, 1, 2], [1, 0, 2, 1])


def _flat_roots(coeffs: np.ndarray):
    """Values w = z^2 of the flat chiral pairs +-z with multiplicities, and the
    (value, threshold) pairs of the decisions taken.  ``coeffs`` is the tensor
    of ``_charpoly``; a flat z zeroes all nine of its polynomials.
    """
    # each corner is M z^2 with M a mixed 2x2 minor
    corners = float(np.abs(coeffs[::2, ::2, 2]).max())
    decisions = [(corners, _coins._FLAT_TOL)]
    if corners >= _coins._FLAT_TOL:
        return [], decisions
    edges = coeffs[_EDGES]
    edge_size = float(np.abs(edges).max())
    decisions.append((edge_size, _coins._FLAT_TOL))
    if edge_size >= _coins._FLAT_TOL:
        # one flat pair at the least-squares root of the linear edges; the
        # edges are not all zero and a unitary C has M = det C conj(C_jj), so
        # neither are their slopes C_jj
        w = -np.vdot(edges[:, 3], edges[:, 1]) / np.vdot(edges[:, 3], edges[:, 3])
        residual = float(np.abs(coeffs @ np.sqrt(w) ** np.arange(5)).max())
        decisions.append((residual, _coins._FLAT_TOL))
        return ([(w, 1)] if residual < _coins._FLAT_TOL else []), decisions
    # no edges: every band is flat, at the roots of w^2 + (M_LR + M_DU) w + det C
    alpha, det = coeffs[1, 1, 2], coeffs[1, 1, 0]
    split = np.sqrt(alpha * alpha - 4.0 * det)
    decisions.append((float(abs(split)), _DOUBLE_ROOT_TOL))
    if abs(split) < _DOUBLE_ROOT_TOL:
        return [(-alpha / 2.0, 2)], decisions
    return [((-alpha + split) / 2.0, 1), ((-alpha - split) / 2.0, 1)], decisions


@functools.lru_cache(maxsize=16)
def _flat_bands(coin_bytes: bytes):
    """The one flat-band decision of the checked coin with these bytes: point
    spectrum, marginal flag and solved cells.

    Each root +-sqrt(w) of multiplicity m becomes the nearest eigenvalue of
    U(0) = C, or of U at the other momentum where the (m+1)-th nearest is
    within coins._FLAT_TOL at k = 0 but not there.  A pair's seed is its member
    that sorts first in the spectrum.  The pair counts if the seed's cells
    solve and check, or else, marginally, its partner's.  ``solved`` holds, for
    the member solved in each pair, its eigenphase, its cells and the rank
    decision of its first cell's A (rank, kernel of A^H, margin) made where the
    cells were solved; ``_band_cells`` reads the cells and the decision of any
    reported eigenphase off it.

    The last 16 decisions are kept, so that every entry reading a coin's flat
    bands decides it once; the values are immutable, and an exception is not
    cached.
    """
    def angle(item):
        ang = float(np.angle(item[0])) % (2 * np.pi)
        return 0.0 if ang > 2 * np.pi - 1e-9 else ang

    c = np.frombuffer(coin_bytes, dtype=np.complex128).reshape(4, 4)
    roots, decisions = _flat_roots(_charpoly(c))
    marginal = any(_marginal(value, thr) for value, thr in decisions)
    spectrum, solved = [], []
    if roots:
        ev = np.linalg.eigvals(_momentum_operator(c, *_POLISH_K))
    for w, mult in roots:
        pair = []
        for z in (np.sqrt(w), -np.sqrt(w)):
            dist = np.abs(ev - z)
            gap = np.sort(dist, axis=1)[:, mult]
            k = int(gap[0] < _coins._FLAT_TOL < gap[1])
            lam = ev[k, np.argmin(dist[k])]
            pair.append((complex(lam / abs(lam)), mult))
        pair.sort(key=angle)
        for lam, _ in pair:
            try:
                solved.append((lam, *_localized_cells(c, lam)))
            except (KernelInconsistencyError, ValueError):
                marginal = True
                continue
            spectrum += pair
            break
    return tuple(sorted(spectrum, key=angle)), marginal, tuple(sorted(solved, key=angle))


def _band_cells(solved, z: complex):
    """A new list of the cells of the reported eigenphase ``z``, and the rank
    decision of the first one's A: rank, kernel of A^H (read-only), margin.

    The cells are those ``_flat_bands`` solved at ``z``, or else, since
    S(k + pi) = -S(k), the chiral partners of those it solved at the pair's
    other member, gauge-fixed again.  A partner's A is phase A diag(1, -1, -1, 1):
    its rank, singular values and kernel of A^H are its member's, so it takes
    its member's decision.  Partner cells are built here only, when read.
    """
    members = {lam: (cells, decision) for lam, cells, decision in solved}
    if z in members:
        return list(members[z][0]), members[z][1]
    cells, decision = members[min(members, key=lambda s: abs(s + z))]
    partners = (cell.chiral_partner() for cell in cells)
    return [_coins.AmplitudeCell(*fix_vector_phase(p.amplitudes), eigenphase=p.eigenphase,
                                 norm=p.norm) for p in partners], decision


class LaurentPoly:
    """A finite sum of monomials x^i y^j with complex coefficients.

    Coefficients below ``PRUNE_TOL`` in magnitude are dropped.  Every
    instance carries a degree window (bounding box of admissible
    exponents); arithmetic combines windows additively under products and
    by hull under sums, so the window always contains the support.
    """

    __slots__ = ("coeffs", "window")

    def __init__(self, coeffs: dict[tuple[int, int], complex] | None = None,
                 window: tuple[int, int, int, int] | None = None):
        pruned = {}
        if coeffs:
            for (i, j), v in coeffs.items():
                v = complex(v)
                if abs(v) > PRUNE_TOL:
                    pruned[(int(i), int(j))] = v
        if window is None:
            window = self._hull(pruned)
        else:
            window = tuple(int(w) for w in window)
            for (i, j) in pruned:
                if not (window[0] <= i <= window[1] and window[2] <= j <= window[3]):
                    raise ValueError(f"exponent ({i}, {j}) outside declared window {window}")
        self.coeffs = pruned
        self.window = window

    @staticmethod
    def _hull(coeffs) -> tuple[int, int, int, int]:
        if not coeffs:
            return (0, 0, 0, 0)
        xs = [i for i, _ in coeffs]
        ys = [j for _, j in coeffs]
        return (min(xs), max(xs), min(ys), max(ys))

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def constant(cls, value: complex) -> "LaurentPoly":
        return cls({(0, 0): complex(value)})

    @classmethod
    def monomial(cls, i: int, j: int, value: complex = 1.0) -> "LaurentPoly":
        return cls({(i, j): complex(value)})

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        terms = ", ".join(
            f"({i},{j}): {v:.3g}" for (i, j), v in sorted(self.coeffs.items())
        )
        return f"LaurentPoly({terms})"

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self - other).is_identically_zero()

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, float, complex)):
            return LaurentPoly.constant(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        merged = dict(self.coeffs)
        for k, v in o.coeffs.items():
            merged[k] = merged.get(k, 0.0) + v
        w = (min(self.window[0], o.window[0]), max(self.window[1], o.window[1]),
             min(self.window[2], o.window[2]), max(self.window[3], o.window[3]))
        return LaurentPoly(merged, w)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({k: -v for k, v in self.coeffs.items()}, self.window)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], complex] = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in o.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0.0) + v1 * v2
        w = (self.window[0] + o.window[0], self.window[1] + o.window[1],
             self.window[2] + o.window[2], self.window[3] + o.window[3])
        return LaurentPoly(out, w)

    __rmul__ = __mul__

    @property
    def degree_window(self) -> tuple[int, int, int, int]:
        return self.window

    def support_window(self) -> tuple[int, int, int, int]:
        """Tight bounding box of the surviving (pruned) support."""
        return self._hull(self.coeffs)

    def max_coeff(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def evaluate(self, x: complex, y: complex) -> complex:
        has_neg_x = any(i < 0 for i, _ in self.coeffs)
        has_neg_y = any(j < 0 for _, j in self.coeffs)
        if (x == 0 and has_neg_x) or (y == 0 and has_neg_y):
            raise ZeroDivisionError("evaluation at zero with negative exponents")
        return sum((v * x**i * y**j for (i, j), v in self.coeffs.items()), 0.0 + 0.0j)

    def is_identically_zero(self, rel_tol: float = ZERO_REL_TOL) -> bool:
        """Every coefficient is at most ``rel_tol`` in magnitude, against a unit scale."""
        return self.max_coeff() <= rel_tol


class LaurentMatrix:
    """A rectangular array of Laurent polynomials; numbers become constants."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = [[p if isinstance(p, LaurentPoly) else LaurentPoly.constant(p)
                         for p in row] for row in entries]
        width = {len(row) for row in self.entries}
        if len(width) != 1:
            raise ValueError("ragged rows")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]))

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def evaluate(self, x: complex, y: complex) -> np.ndarray:
        return np.array(
            [[p.evaluate(x, y) for p in row] for row in self.entries],
            dtype=np.complex128,
        )

    def matvec(self, vec: list[LaurentPoly]) -> list[LaurentPoly]:
        rows, cols = self.shape
        if len(vec) != cols:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(rows):
            acc = LaurentPoly.zero()
            for j in range(cols):
                acc = acc + self.entries[i][j] * vec[j]
            out.append(acc)
        return out

    def minor(self, row: int, col: int) -> "LaurentMatrix":
        return LaurentMatrix([
            [p for j, p in enumerate(r) if j != col]
            for i, r in enumerate(self.entries) if i != row
        ])

    def det(self) -> LaurentPoly:
        """Determinant, interpolated from its values on a roots-of-unity grid.

        Its exponents lie in the sum of the rows' window hulls, so that
        window's grid fixes it.  On the grid x^i = x^(i mod nx), so each
        entry's values are the inverse DFT of its wrapped coefficients.
        """
        n, m = self.shape
        if n != m:
            raise ValueError("determinant of a non-square matrix")
        windows = np.array([[p.window for p in row] for row in self.entries])
        x0, y0 = windows[:, :, 0::2].min(axis=1).sum(axis=0)
        x1, y1 = windows[:, :, 1::2].max(axis=1).sum(axis=0)
        nx, ny = x1 - x0 + 1, y1 - y0 + 1
        coeffs = np.zeros((n, n, nx, ny), dtype=np.complex128)
        for r, row in enumerate(self.entries):
            for c, p in enumerate(row):
                for (i, j), v in p.coeffs.items():
                    coeffs[r, c, i % nx, j % ny] += v
        values = np.moveaxis(np.fft.ifft2(coeffs) * (nx * ny), (0, 1), (2, 3))
        det = np.fft.fft2(np.linalg.det(values)) / (nx * ny)
        return LaurentPoly({(i, j): det[i % nx, j % ny]
                            for i in range(x0, x1 + 1) for j in range(y0, y1 + 1)},
                           (x0, x1, y0, y1))


def kernel_matrix(coin) -> LaurentMatrix:
    """The coin minus the inverse momentum shift, ``C - diag(x^-dx y^-dy)``.

    Its determinant vanishes identically exactly when the walk operator has
    a constant eigenvalue 1; kernel vectors are localized eigenstates.
    """
    c = require_unitary(coin)
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            p = LaurentPoly.constant(c[i, j])
            if i == j:
                p = p - LaurentPoly.monomial(*_SHIFT_EXPONENTS[i])
            row.append(p)
        rows.append(row)
    return LaurentMatrix(rows)


def adjugate_kernel_vector(mat: LaurentMatrix, index: int) -> list[LaurentPoly]:
    """Kernel vector of a singular Laurent matrix: minus column ``index`` of its adjugate.

    Component k is ``(-1)^(k + index + 1) det(mat.minor(index, k))``, so
    component ``index`` is ``-det`` of the principal minor.  Since
    ``mat @ adj(mat) == det(mat) I``, the result ``w`` satisfies
    ``mat @ w == 0`` identically whenever ``det(mat) == 0``.

    Raises
    ------
    NotTrappingError
        If ``det(mat)`` is not identically zero.
    DegenerateMinorError
        If the principal minor's determinant vanishes identically, so that
        ``w`` does too; callers fall back to the degenerate sparsity-pattern
        branch.
    """
    n, m = mat.shape
    if n != m:
        raise ValueError("square matrix required")
    if not (0 <= index < n):
        raise ValueError(f"index must be in [0, {n}), got {index}")
    if not mat.det().is_identically_zero():
        raise NotTrappingError("matrix determinant is not identically zero")
    w = [mat.minor(index, k).det() * (-1) ** (k + index + 1) for k in range(n)]
    if w[index].is_identically_zero():
        raise DegenerateMinorError(f"principal minor at index {index} vanishes identically")
    return w


def _cell_kernel(adjusted: np.ndarray) -> np.ndarray:
    """Amplitude vectors a..h (as columns) of the 2x2 cells with ``D psi == 0``.

    ``D psi`` is ``adjusted A - B``, so column k is ``vec(adjusted A_k - B_k)``
    for the balance pair of unit amplitude k.
    """
    unit_a, unit_b = _coins._UNIT_BALANCE
    system = (adjusted @ unit_a - unit_b).reshape(8, 16).T
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    return vh.conj().T[:, s < KERNEL_REL_TOL * s[0]]


def _cell_from_amplitudes(amps: np.ndarray, eigenphase: complex):
    """The gauge-fixed cell of kernel amplitudes, at the norm its family takes,
    and the rank decision of its A.

    The one decision, ``linalg._rank_decision`` at ``linalg.RANK_TOL``, is made
    on A at the norm sqrt(2): rank, kernel of A^H and margin, which classify
    reports as family, escaping subspace and margin.  The norm is 2 when the
    rank is full (Type I) and sqrt(2) otherwise.
    """
    # Gauge: first non-negligible amplitude real nonnegative.
    amps = fix_vector_phase(amps)
    size = np.linalg.norm(amps)
    a = _coins._balance_pair(amps * (_coins.NORM_RANK_DEFICIENT / size))[0]
    decision = _rank_decision(a, RANK_TOL)
    norm = _coins.NORM_FULL_RANK if decision[0] == 4 else _coins.NORM_RANK_DEFICIENT
    cell = _coins.AmplitudeCell(*(amps * (norm / size)), eigenphase=complex(eigenphase), norm=norm)
    return cell, decision


def _degenerate_pattern_cells(adjusted, eigenphase: complex):
    """Cells read off the direct-sum sparsity patterns of the adjusted coin.

    A Type IIb sector contributes its two-site pair when the adjusted coin
    swaps the sector's trapping pair with C[lo,hi] C[hi,lo] = 1, i.e. the
    swap has eigenvalue 1.  The vertical (variant 1) pair comes first.
    """
    cells = []
    for variant, sector in _coins._IIB_SECTORS.items():
        lo, hi = sector.trapping
        if (_coins._iib_swaps(adjusted, variant)
                and abs(adjusted[lo, hi] * adjusted[hi, lo] - 1.0) < _coins._FLAT_TOL):
            cells.append(_coins._iib_pair_cell(variant, complex(adjusted[hi, lo]),
                                               complex(eigenphase)))
    return cells


def localized_cells(coin, eigenphase: complex) -> list[_coins.AmplitudeCell]:
    """All independent 2x2-supported eigenstate cells at one eigenphase.

    Generic trapping coins yield a single cell.  Direct sums of
    one-dimensional coins yield one cell per trapping sector whose
    eigenvalue matches; lattice translates of the same quasi-1D pair are
    not reported separately.  Each cell is validated once, where it is solved.

    Raises NotTrappingError unless ``eigenphase`` is within ``KERNEL_REL_TOL``
    of a reported flat eigenphase.  At a reported eigenphase itself the cells
    are those of the coin's memoized flat-band decision (``_flat_bands``): the
    ones solved there, or the chiral partners of those solved at its pair's
    other member, so asking again, or at the other member, solves no kernel.
    Near one they are solved at ``eigenphase``, and are those same cells when
    that solve or its cell check fails.  Each call returns a new list.
    """
    c = require_unitary(coin)
    lam = complex(eigenphase)
    if not abs(abs(lam) - 1.0) <= 1e-9:
        raise ValueError(f"eigenphase must have unit modulus, got |{lam}| = {abs(lam)}")
    spectrum, _, solved = _flat_bands(c.tobytes())
    flat = next((z for z, _ in spectrum if abs(lam - z) <= KERNEL_REL_TOL), None)
    if flat is None:
        raise NotTrappingError(f"{lam} is not a constant eigenvalue of the walk operator")
    if lam != flat:
        try:
            return list(_localized_cells(c, lam)[0])
        except (KernelInconsistencyError, ValueError):
            pass
    return _band_cells(solved, flat)[0]


def _localized_cells(c: np.ndarray, lam: complex):
    """The cells of a checked coin at ``lam``, as a tuple, and the rank decision
    of the first one's A (``_cell_from_amplitudes``), its kernel read-only;
    raises if none solves or checks.
    """
    adjusted = np.conj(lam) * c
    kernel = _cell_kernel(adjusted)
    if kernel.shape[1] == 0:
        raise KernelInconsistencyError("det D vanishes identically but the coefficient "
                                       "system has no kernel")
    if kernel.shape[1] == 1:
        cell, decision = _cell_from_amplitudes(kernel[:, 0], lam)
        cells = [cell]
    else:
        # Kernel dimension >= 2: only direct sums of one-dimensional coins do
        # this (translated copies of a quasi-1D pair both fit in the window).
        if not _coins._iib_is_direct_sum(c):
            raise KernelInconsistencyError(
                "multi-dimensional ansatz kernel for a coin without direct-sum structure"
            )
        cells = _degenerate_pattern_cells(adjusted, lam)
        if not cells:
            raise KernelInconsistencyError(
                "direct-sum coin matches neither degenerate sparsity pattern"
            )
        decision = _rank_decision(_coins._balance_pair(cells[0].amplitudes)[0], RANK_TOL)
    for cell in cells:
        cell.validate()
    decision[1].flags.writeable = False
    return tuple(cells), decision


def localized_eigenstate(coin, eigenphase: complex) -> _coins.AmplitudeCell:
    """The 2x2-supported eigenstate cell of a trapping coin at ``eigenphase``.

    The coin is first rotated by the conjugate eigenphase so the target
    eigenvalue is 1.  For direct-sum coins with several independent cells
    the vertical-sector pair is returned.
    """
    return localized_cells(coin, eigenphase)[0]


def verification_residual(coin, cell: _coins.AmplitudeCell) -> float:
    """Max residual of D(x,y) psi(x,y) over a fresh 7x7 verification grid."""
    adjusted = np.conj(complex(cell.eigenphase)) * require_unitary(coin)
    # seventh roots of unity, rotated off the interpolation grids
    x = np.repeat(np.exp(1j * (2.0 * np.pi * np.arange(7) / 7 + 0.11)), 7)
    y = np.tile(np.exp(1j * (2.0 * np.pi * np.arange(7) / 7 + 0.23)), 7)
    shift = np.stack([x ** i * y ** j for i, j in _SHIFT_EXPONENTS], axis=1)
    psi = _coins._ansatz_vectors(cell, x, y)
    residuals = psi @ adjusted.T - shift * psi
    return float(np.max(np.abs(residuals))) / cell.norm
