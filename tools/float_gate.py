"""Gate: the CSV float text of ``trapwalk._text`` against ``repr``.

    python tools/float_gate.py [--n N] [--seed SEED]

Draws N uniform 64-bit patterns (every sign, exponent and mantissa, so NaN,
the infinities and the zeros too) and N/10 subnormals of both signs from
``numpy.random.default_rng(SEED)``, a chunk at a time, and compares
``_text._float_texts`` of each chunk with ``repr`` of its floats.  It prints
how many values were compared and how many took the tie path (the finite
nonzero values whose digits ``_text`` reads from ``repr``), and exits 1 at
the first value whose text differs, printing its bits and both texts.
trapwalk is imported from the ``src`` directory of the tree this file sits
in.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CHUNK = 1 << 17


def tie_count(bits: np.ndarray, text) -> int:
    """How many of the float64 ``bits`` are finite, nonzero and sent to
    ``repr``'s digits by ``text._RYU_EXACT_MASK``."""
    mag = bits & np.uint64((1 << 63) - 1)
    mag = mag[(mag > 0) & (mag < text._INF_BITS)]
    be = (mag >> 52).astype(np.intp)
    mv = ((mag & text._MANTISSA) | (be > 0).astype(np.uint64) << 52) << 2
    return int(np.count_nonzero((mv & text._RYU_EXACT_MASK[be]) == 0))


def chunks(n: int, seed: int):
    """The uint64 bit patterns of the gate, at most ``CHUNK`` at a time."""
    rng = np.random.default_rng(seed)
    for start in range(0, n, CHUNK):
        yield rng.integers(0, 2 ** 64, min(CHUNK, n - start), dtype=np.uint64)
    for start in range(0, n // 10, CHUNK):
        size = min(CHUNK, n // 10 - start)
        sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
        yield rng.integers(1, 2 ** 52, size, dtype=np.uint64) | sign


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10 ** 7, help="uniform bit patterns")
    parser.add_argument("--seed", type=int, default=20181)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src")]
    from trapwalk import _text

    compared = ties = 0
    for bits in chunks(args.n, args.seed):
        values = bits.view(np.float64)
        got, want = _text._float_texts(values), list(map(repr, values.tolist()))
        if got != want:
            k = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            print(f"differs at 0x{int(bits[k]):016x}: {got[k]!r}, repr gives {want[k]!r}")
            return 1
        compared += len(bits)
        ties += tie_count(bits, _text)
    print(f"{compared} values equal to repr, {ties} of them by the tie path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
