"""Bivariate Laurent polynomials and the bounded-support eigenvector machinery.

A trapping coin makes ``det(C - S^{-1})`` vanish identically, where ``S`` is
the momentum-shift ``diag(1/x, 1/y, y, x)`` with ``x = exp(i k_x)``,
``y = exp(i k_y)``.  The kernel of that Laurent-polynomial matrix contains a
vector whose entries are ordinary polynomials of degree one in each
variable; its sixteen coefficients are the amplitudes of an eigenstate
supported on a 2x2 patch of the lattice.

The degree-(1,1) kernel vector is obtained from the exact coefficient
system rather than by symbolic lowest-terms reduction: the sixty-four
coefficients of ``D(x, y) psi(x, y)`` are linear in the sixteen unknowns.
Forty of those equations vanish for every coin and eight pin the cell's
structural zeros, so the kernel is that of a 16 x 8 matrix in the cell
amplitudes, read off the coin by one fixed contraction.  The adjugate
kernel vectors are still provided, with their exact degree windows, for
cross-checking.

Identity testing of polynomials uses evaluation on grids of distinct
nonzero nodes sized to the degree window; correctness follows from the
nonsingularity of the corresponding Vandermonde systems.  Grid nodes are
roots of unity rotated by an irrational angle to dodge accidental
symmetries.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from . import coins as _coins
from .errors import DegenerateMinorError, KernelInconsistencyError, NotTrappingError
from .linalg import fix_vector_phase, require_unitary

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
ZERO_REL_TOL = 1e-10       # identity-zero test, relative to the largest coefficient
KERNEL_REL_TOL = 1e-9      # singular-value threshold of the coefficient-system kernel

_GRID_OFFSET_X = 0.37
_GRID_OFFSET_Y = 0.61
_VERIFY_OFFSET_X = 0.11
_VERIFY_OFFSET_Y = 0.23

# D = C - diag(x^i y^j) with these exponents (i, j), one per direction L, D, U, R.
_SHIFT_EXPONENTS = ((1, 0), (0, 1), (0, -1), (-1, 0))


def _nodes(count: int, offset: float) -> np.ndarray:
    return np.exp(1j * (2.0 * np.pi * np.arange(count) / count + offset))


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

    def __hash__(self):
        raise TypeError("LaurentPoly is unhashable")

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
        """Grid-evaluation zero test sized to the degree window."""
        if not self.coeffs:
            return True
        nx = self.window[1] - self.window[0] + 1
        ny = self.window[3] - self.window[2] + 1
        scale = max(self.max_coeff(), 1.0)
        xs = _nodes(nx, _GRID_OFFSET_X)
        ys = _nodes(ny, _GRID_OFFSET_Y)
        return all(
            abs(self.evaluate(x, y)) <= rel_tol * scale for x in xs for y in ys
        )


class LaurentMatrix:
    """A rectangular array of Laurent polynomials."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
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
        n, m = self.shape
        if n != m:
            raise ValueError("determinant of a non-square matrix")
        total = LaurentPoly.zero()
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = LaurentPoly.constant(sign)
            for i in range(n):
                term = term * self.entries[i][perm[i]]
            total = total + term
        return total

    def adjugate(self) -> "LaurentMatrix":
        n, m = self.shape
        if n != m:
            raise ValueError("adjugate of a non-square matrix")
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                cof = self.minor(i, j).det()
                out[j][i] = cof if (i + j) % 2 == 0 else -cof
        return LaurentMatrix(out)


def kernel_matrix(coin) -> LaurentMatrix:
    """The coin minus the inverse momentum shift, ``C - diag(x, y, 1/y, 1/x)``.

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
    """Kernel vector of a singular Laurent matrix built from one adjugate.

    Deletes row and column ``index``, inverts the remaining minor through
    its adjugate, and reinserts ``-det(minor)`` at ``index``.  The result
    ``w`` satisfies ``mat @ w == 0`` identically whenever ``det(mat) == 0``
    and the minor is nondegenerate.

    Raises
    ------
    NotTrappingError
        If ``det(mat)`` is not identically zero.
    DegenerateMinorError
        If the 3x3 minor determinant vanishes identically; callers fall
        back to the degenerate sparsity-pattern branch.
    """
    n, m = mat.shape
    if n != m:
        raise ValueError("square matrix required")
    if not (0 <= index < n):
        raise ValueError(f"index must be in [0, {n}), got {index}")
    if not mat.det().is_identically_zero():
        raise NotTrappingError("matrix determinant is not identically zero")
    minor = mat.minor(index, index)
    det_minor = minor.det()
    if det_minor.is_identically_zero():
        raise DegenerateMinorError(f"3x3 minor at index {index} vanishes identically")
    col = [mat[i, index] for i in range(n) if i != index]
    partial = minor.adjugate().matvec(col)
    return partial[:index] + [-det_minor] + partial[index:]


def _grid_values(adjusted: np.ndarray, grid_n: int, off_x: float, off_y: float):
    """Numeric values of D = adjusted - diag(x, y, 1/y, 1/x) on a node grid.

    Returns (x nodes flat, y nodes flat, stacked D values of shape (m, 4, 4)).
    """
    x = np.repeat(_nodes(grid_n, off_x), grid_n)
    y = np.tile(_nodes(grid_n, off_y), grid_n)
    shift = np.stack([x ** i * y ** j for i, j in _SHIFT_EXPONENTS], axis=1)
    return x, y, adjusted - shift[:, :, None] * np.eye(4)


def _coefficient_system() -> tuple[np.ndarray, np.ndarray]:
    """``D psi`` as 64 linear equations in the 16 unknowns xi[dx, dy, direction].

    Equation (i, p, q) is the coefficient of x^(p-1) y^(q-1) in component i of
    ``(A - diag(x^sx y^sy)) sum xi[dx, dy] x^dx y^dy``; the equations are
    ``tensordot(A.ravel(), coin_terms, 1) - shift_terms``, shapes (16, 64, 16), (64, 16).
    """
    # indexed [i, j | i, p, q | dx, dy, j] and [i, p, q | dx, dy, i]
    coin_terms = np.zeros((4, 4, 4, 4, 4, 2, 2, 4), dtype=bool)
    shift_terms = np.zeros((4, 4, 4, 2, 2, 4), dtype=bool)
    for i, (sx, sy) in enumerate(_SHIFT_EXPONENTS):
        for dx, dy in np.ndindex(2, 2):
            coin_terms[i, :, i, dx + 1, dy + 1, dx, dy, :] = np.eye(4, dtype=bool)
            shift_terms[i, dx + sx + 1, dy + sy + 1, dx, dy, i] = True
    return coin_terms.reshape(16, 64, 16), shift_terms.reshape(64, 16)


# Only the equations holding a coin entry constrain the cell amplitudes: the
# others vanish for every coin or pin one structural zero of the cell.
_COIN_TERMS, _SHIFT_TERMS = _coefficient_system()
_LIVE_ROWS = _COIN_TERMS.any(axis=(0, 2))
_CELL = _coins._CELL_SUPPORT.ravel()
_LIVE_COIN_TERMS = _COIN_TERMS[:, _LIVE_ROWS][:, :, _CELL].astype(float)
_LIVE_SHIFT_TERMS = _SHIFT_TERMS[_LIVE_ROWS][:, _CELL].astype(float)


def _cell_kernel(adjusted: np.ndarray) -> np.ndarray:
    """Amplitude vectors a..h (as columns) of the 2x2 cells with ``D psi == 0``."""
    system = np.tensordot(adjusted.ravel(), _LIVE_COIN_TERMS, axes=1) - _LIVE_SHIFT_TERMS
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    return vh.conj().T[:, s < KERNEL_REL_TOL * s[0]]


def _cell_from_amplitudes(amps: np.ndarray, eigenphase: complex) -> _coins.AmplitudeCell:
    # Gauge: first non-negligible amplitude real nonnegative.
    amps = fix_vector_phase(amps)
    norm = np.linalg.norm(amps)
    probe = _coins.AmplitudeCell(*(amps / norm), eigenphase=eigenphase, norm=1.0)
    if probe.is_full_rank_case(1e-6) and not probe.is_rank_deficient_case(1e-6):
        target = _coins.NORM_FULL_RANK
    elif probe.is_rank_deficient_case(1e-6):
        target = _coins.NORM_RANK_DEFICIENT
    else:
        raise KernelInconsistencyError(
            "extracted amplitudes satisfy neither magnitude case; tolerance failure"
        )
    amps = amps * (target / norm)
    return _coins.AmplitudeCell(*amps, eigenphase=complex(eigenphase), norm=target)


def _degenerate_pattern_cells(adjusted, eigenphase: complex, tol: float = 1e-8):
    """Cells read off the direct-sum sparsity patterns of the adjusted coin.

    A Type IIb sector contributes its two-site pair when the adjusted coin
    swaps the sector's trapping pair with C[lo,hi] C[hi,lo] = 1, i.e. the
    swap has eigenvalue 1.  The vertical (variant 1) pair comes first.
    """
    cells = []
    for variant, sector in _coins._IIB_SECTORS.items():
        lo, hi = sector.trapping
        if (_coins._iib_swaps(adjusted, variant, tol)
                and abs(adjusted[lo, hi] * adjusted[hi, lo] - 1.0) < tol):
            cells.append(_coins._iib_pair_cell(variant, complex(adjusted[hi, lo]),
                                               complex(eigenphase)))
    return cells


def localized_cells(coin, eigenphase: complex) -> list[_coins.AmplitudeCell]:
    """All independent 2x2-supported eigenstate cells at one eigenphase.

    Generic trapping coins yield a single cell.  Direct sums of
    one-dimensional coins yield one cell per trapping sector whose
    eigenvalue matches; lattice translates of the same quasi-1D pair are
    not reported separately.
    """
    c = require_unitary(coin)
    lam = complex(eigenphase)
    if not abs(abs(lam) - 1.0) <= 1e-9:
        raise ValueError(f"eigenphase must have unit modulus, got |{lam}| = {abs(lam)}")
    adjusted = np.conj(lam) * c
    # The determinant is a Laurent polynomial with exponent window [-1, 1]^2,
    # so vanishing on a 3x3 grid of distinct nonzero nodes means vanishing
    # identically; for trapping coins the values sit at round-off level.
    _, _, d = _grid_values(adjusted, 3, _GRID_OFFSET_X, _GRID_OFFSET_Y)
    if not float(np.max(np.abs(np.linalg.det(d)))) <= 1e-9:
        raise NotTrappingError(f"{lam} is not a constant eigenvalue of the walk operator")
    kernel = _cell_kernel(adjusted)
    if kernel.shape[1] == 0:
        raise KernelInconsistencyError("det D vanishes identically but the coefficient "
                                       "system has no kernel")
    if kernel.shape[1] == 1:
        return [_cell_from_amplitudes(kernel[:, 0], lam)]
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
    return cells


def localized_eigenstate(coin, eigenphase: complex) -> _coins.AmplitudeCell:
    """The 2x2-supported eigenstate cell of a trapping coin at ``eigenphase``.

    The coin is first rotated by the conjugate eigenphase so the target
    eigenvalue is 1.  For direct-sum coins with several independent cells
    the vertical-sector pair is returned.
    """
    return localized_cells(coin, eigenphase)[0]


def verification_residual(coin, cell: _coins.AmplitudeCell, grid_n: int = 7) -> float:
    """Max residual of D(x,y) psi(x,y) over a fresh verification grid."""
    adjusted = np.conj(complex(cell.eigenphase)) * require_unitary(coin)
    x, y, d = _grid_values(adjusted, grid_n, _VERIFY_OFFSET_X, _VERIFY_OFFSET_Y)
    psi = _coins._ansatz_vectors(cell, x, y)
    residuals = np.einsum("kij,kj->ki", d, psi)
    return float(np.max(np.abs(residuals))) / cell.norm
