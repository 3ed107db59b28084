"""Gate: the CSV float text of ``trapwalk._text`` against ``repr``.

    python tools/float_gate.py [--n N] [--seed SEED]

Draws three families of float64 values from ``numpy.random.default_rng(SEED)``,
a chunk at a time: N uniform 64-bit patterns (every sign, exponent and
mantissa, so NaN, the infinities and the zeros too), N/10 subnormals of both
signs, and N/10 short decimals (``short_decimals`` of ``tests/conftest.py``:
1 to 17 random digits over the whole exponent range, and their neighbours,
whose reprs drop many digits or round up).  It compares
``_text._float_texts`` of each chunk with ``repr`` of its floats, prints for
each family how many values were compared and how many took the tie path
(the finite nonzero values whose digits ``_text`` reads from ``repr``), and
exits 1 at the first value whose text differs, printing its bits and both
texts.  trapwalk is imported from the ``src`` directory of the tree this
file sits in.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CHUNK = 1 << 17


def tie_count(values: np.ndarray, text) -> int:
    """How many of the float64 ``values`` are finite, nonzero and sent to
    ``repr``'s digits by ``text._dragonbox``."""
    mag = values.view(np.uint64) & np.uint64((1 << 63) - 1)
    return len(text._dragonbox(mag[(mag > 0) & (mag < text._INF_BITS)])[2])


def chunks(n: int, seed: int, short_decimals):
    """The families of the gate and their float64 values, at most ``CHUNK``
    at a time."""
    rng = np.random.default_rng(seed)
    for start in range(0, n, CHUNK):
        bits = rng.integers(0, 2 ** 64, min(CHUNK, n - start), dtype=np.uint64)
        yield "uniform", bits.view(np.float64)
    for start in range(0, n // 10, CHUNK):
        size = min(CHUNK, n // 10 - start)
        sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
        yield "subnormal", (rng.integers(1, 2 ** 52, size, dtype=np.uint64) | sign).view(np.float64)
    for start in range(0, n // 10, CHUNK):
        yield "short decimal", short_decimals(rng, min(CHUNK, n // 10 - start))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10 ** 7, help="uniform bit patterns")
    parser.add_argument("--seed", type=int, default=20181)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from trapwalk import _text
    from conftest import short_decimals

    compared: dict[str, list[int]] = {}
    for family, values in chunks(args.n, args.seed, short_decimals):
        got, want = _text._float_texts(values), list(map(repr, values.tolist()))
        if got != want:
            k = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            bits = int(values[k:k + 1].view(np.uint64)[0])
            print(f"differs at 0x{bits:016x}: {got[k]!r}, repr gives {want[k]!r}")
            return 1
        counts = compared.setdefault(family, [0, 0])
        counts[0] += len(values)
        counts[1] += tie_count(values, _text)
    for family, (values, ties) in compared.items():
        print(f"{family}: {values} values equal to repr, {ties} of them by the tie path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
