"""Minimal dense complex linear algebra for 4x4 and small stacked systems.

Rank and kernel computations use singular values.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NotUnitaryError

__all__ = [
    "UNITARITY_TOL",
    "RANK_TOL",
    "as_complex_matrix",
    "unitarity_defect",
    "require_unitary",
    "numerical_rank",
    "fix_vector_phase",
]

# Constructors are closed form, so unitarity defects are pure round-off.
UNITARITY_TOL = 1e-12
# Relative rank threshold; classification boundaries depend on it.
RANK_TOL = 1e-8


def as_complex_matrix(m, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Validate and convert to a complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int, at least ``least`` if given; anything but an
    integer (a bool included) is a ValueError.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _unit_state(state) -> np.ndarray:
    """The coin state ``state`` as a new complex128 (4,) array; a ValueError
    unless it has shape (4,) and its norm is 1 to within 1e-12.
    """
    psi = np.array(state, dtype=np.complex128)
    if psi.shape != (4,):
        raise ValueError(f"initial coin state must have shape (4,), got {psi.shape}")
    nrm = float(np.linalg.norm(psi))
    if not (abs(nrm - 1.0) <= 1e-12):
        raise ValueError(f"initial coin state must have unit norm, got {nrm!r}")
    return psi


def _defect(a: np.ndarray, eye: np.ndarray) -> float:
    return float(np.abs(a.conj().T @ a - eye).max())


def unitarity_defect(m) -> float:
    """Max-norm (largest entry magnitude) of M^dag M - I."""
    a = as_complex_matrix(m)
    return _defect(a, np.eye(a.shape[0]))


_EYE4 = np.eye(4)
_EYE4.flags.writeable = False


def require_unitary(m, tol: float = UNITARITY_TOL) -> np.ndarray:
    """The four-state coin ``m`` as a complex128 (4, 4) array, checked unitary.

    Raises ValueError for another shape or non-finite entries and
    NotUnitaryError when the unitarity defect exceeds ``tol``.

    The defect is memoized on the coin's bytes (``_coin_defect``, the last
    16 coins), so a coin checked again, as by ``walk.step`` in a loop, costs
    a lookup instead of a product, at any ``tol``.  Equal bytes are equal
    entries, so a coin changed in place is checked afresh; a coin that
    raises ValueError is never remembered.
    """
    a = np.asarray(m, dtype=np.complex128)
    defect = _coin_defect(a.tobytes(), a.shape)
    if defect > tol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds tolerance {tol:.1e}")
    return a


@functools.lru_cache(maxsize=16)
def _coin_defect(coin_bytes: bytes, shape: tuple[int, ...]) -> float:
    """The unitarity defect of the array with these bytes and shape, which must
    be a finite 4x4 coin.
    """
    a = np.frombuffer(coin_bytes, dtype=np.complex128).reshape(shape)
    return _defect(as_complex_matrix(a, (4, 4)), _EYE4)


@functools.lru_cache(maxsize=16)
def _coin_product(coin_bytes: bytes) -> np.ndarray:
    """The checked coin with these bytes as ``walk`` multiplies by it,
    read-only: its real part when every imaginary part is zero, else itself.
    """
    c = np.frombuffer(coin_bytes, dtype=np.complex128).reshape(4, 4)
    product = c.copy() if np.count_nonzero(c.imag) else np.ascontiguousarray(c.real)
    product.flags.writeable = False
    return product


def fix_vector_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first non-negligible component is real nonnegative."""
    mags = np.abs(v)
    top = mags.max()
    if top == 0.0:
        return v
    idx = int(np.argmax(mags > 1e-8 * top))
    phase = v[idx] / abs(v[idx])
    return v * phase.conj()


def numerical_rank(m, tol: float = RANK_TOL) -> tuple[int, np.ndarray]:
    """Numerical rank of a rectangular complex matrix.

    Counts singular values above ``tol`` times the largest one and also
    returns an orthonormal basis of the numerical kernel of ``m``'s adjoint
    (columns of the returned array; empty second axis for full row rank).
    """
    if not (0 < tol < 1):
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    return _rank_decision(as_complex_matrix(m), tol)[:2]


def _rank_decision(a: np.ndarray, tol: float) -> tuple[int, np.ndarray, bool]:
    """``numerical_rank`` of a checked matrix, and its margin: whether a
    singular value is ``_marginal`` against the threshold ``tol * s[0]``.
    """
    u, s, _ = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return 0, u, False
    kept = s > tol * s[0]
    kernel = u[:, np.concatenate([~kept, np.ones(a.shape[0] - s.size, dtype=bool)])]
    if kernel.shape[1]:
        kernel = np.column_stack([fix_vector_phase(kernel[:, i])
                                  for i in range(kernel.shape[1])])
    return int(kept.sum()), kernel, any(_marginal(value, tol * s[0]) for value in s)


def _marginal(value: float, threshold: float) -> bool:
    """Whether a decision value lies within a factor ten of its threshold, on
    either side: ``threshold / 10 <= value < 10 * threshold``.
    """
    return bool(threshold / 10 <= value < 10 * threshold)
