"""CSV text: every float as ``repr`` writes it, and the lines of grid CSVs.

The CSV writers give every float the text ``repr`` gives it, the shortest
decimal that reads back to the same float64, byte for byte.  They compute
it with numpy rather than one ``repr`` per float: Ryu's shortest round-trip
digits over uint64 arrays (``repr``'s own for the few halfway ties), laid out
as ASCII with ``repr``'s choice between ``0.00012`` and ``1.2e-05``, one
block of grid rows (about 8k values) at a time, so that the text of a large
snapshot is never held whole.

``csv_lines`` lays out the lines of every CSV the package writes (the walk's
distributions and trajectories, ``spectrum`` and ``areasweep``), and
``write`` puts them in a file.  Lines carry ints and float reprs with no
quoting, so with CRLF line ends they are byte for byte what ``csv.writer``
gives for the same rows.
"""

from __future__ import annotations

import math

import numpy as np

# Ryu's d2s (Adams, PLDI 2018) over uint64 arrays.  For x = 4 m2 * 2^e2
# (m2 the 53-bit mantissa), the lower end, the value and the upper end of
# its rounding interval, 4 m2 - 1 - s, 4 m2 and 4 m2 + 2 times 2^e2 / 10^e10,
# are products with one 126-bit multiplier per binary exponent
# (``_RYU_MUL``).  Digits are dropped while the ends stay apart, and the
# last kept digit is rounded on the dropped part.  Where a scaled value may
# be an exact integer (the halfway ties, about 4% of random bit patterns and
# few of the values the package writes), the digits are read from ``repr``.
# The texts are laid out as ASCII in 32-byte cells of four uint64 words, NUL
# where a text has no byte; deleting the NULs of a block of cells leaves the
# texts.

_MANTISSA = (1 << 52) - 1
_INF_BITS = 0x7FF << 52
_LIMB = 0xFFFFFFFF
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_COMMA = np.uint64(ord(",") << 56)   # a comma in the last byte of a word
_CELL = np.dtype("<u8")   # cell words are little-endian: byte 0 is the first character
# Values per block of CSV lines: enough to spread numpy's per-call cost, few
# enough that the digit arrays (64 kB each) stay in L2; blocks twice as large
# ran 1.5x slower per value.
_BLOCK_VALUES = 8192


def _limbs(values) -> np.ndarray:
    """The four 32-bit limbs (4, n) of integers below 2^128."""
    return np.array([[v >> 32 * k & _LIMB for v in values] for k in range(4)], dtype=np.uint64)


def _ryu_table():
    """Ryu's d2s constants per biased exponent 0..2046: the multiplier's four
    32-bit limbs (4, 2047), the product's shift past bit 96, the decimal
    exponent e10, and a mask: a value takes ``repr``'s digits when the bits
    of 4 m2 under it are all zero (always, where the mask is 0).
    """
    be = np.arange(2047)
    e2 = np.maximum(be, 1) - 1077            # x = 4 m2 * 2^e2
    big = e2 >= 0
    q = np.where(big, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (-e2 > 1))
    five = np.where(big, q, -e2 - q)         # the power of 5 in the multiplier
    bits = (five * 1217359 >> 19) + 1        # bit length of 5^five
    shift = np.where(big, q - e2 + bits + 124, q - bits + 125)
    pow5 = [5 ** k for k in range(int(five.max()) + 1)]
    inverse = _limbs([(1 << p.bit_length() + 124) // p + 1 for p in pow5])
    scaled = _limbs([p << 125 >> p.bit_length() for p in pow5])
    mul = np.where(big, inverse[:, five], scaled[:, five])
    # 4 m2 * 2^e2 / 10^e10 can be an integer only where 2^q divides 4 m2
    # (e2 < 0); the few exponents where Ryu's other exact cases live
    # (q <= 23 for e2 >= 0, q <= 1 below) always take the integer path
    low = np.left_shift(np.uint64(1), q.astype(np.uint64)) - np.uint64(1)
    low = np.where(big, np.uint64(2 ** 64 - 1), low)
    low[np.where(big, q <= 23, q <= 1)] = 0
    return (mul, (shift - 96).astype(np.uint64),
            np.where(big, q, q + e2), low)


_RYU_MUL, _RYU_SHIFT, _RYU_E10, _RYU_EXACT_MASK = _ryu_table()


def _mul_shift(x: np.ndarray, mul: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """floor(x * mul / 2^(96 + shift)) for x < 2^55, mul (4, n) 32-bit limbs of
    a multiplier below 2^126, and 22 <= shift <= 29: the schoolbook product,
    column by column, with every partial sum below 2^63."""
    x0, x1 = x & _LIMB, x >> 32
    m0, m1, m2, m3 = mul
    a = x0 * m1
    t = (x0 * m0 >> 32) + (a & _LIMB) + x1 * m0
    b = x0 * m2
    t = (t >> 32) + (a >> 32) + (b & _LIMB) + x1 * m1
    t = (t >> 32) + (b >> 32) + x0 * m3 + x1 * m2
    return (t >> shift) + (x1 * m3 << 32 - shift)


def _shortest_digits(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits of finite nonzero magnitudes (uint64 bits):
    ``digits`` (uint64, at most 17 digits) and ``exponent`` with
    |x| = digits * 10^exponent, as ``repr`` gives them."""
    be = (mag >> 52).astype(np.intp)
    mant = mag & _MANTISSA
    mv = (mant | (be > 0).astype(np.uint64) << 52) << 2
    mul, shift = _RYU_MUL[:, be], _RYU_SHIFT[be]
    vr = _mul_shift(mv, mul, shift)
    vp = _mul_shift(mv + 2, mul, shift)
    vm = _mul_shift(mv - 1 - ((mant != 0) | (be <= 1)), mul, shift)
    removed = np.zeros(len(mag), dtype=np.intp)
    for scale in _POW10[1:]:
        more = vp // scale > vm // scale
        if not more.any():
            break
        removed += more
    scale = _POW10[removed]
    digits = vr // scale
    kept = digits * scale
    # round up past the excluded lower end, or on a dropped part of at least half
    digits += (vm >= kept) | (vr - kept << 1 >= scale)
    exponent = _RYU_E10[be] + removed
    ties = np.flatnonzero((mv & _RYU_EXACT_MASK[be]) == 0)
    for k, x in zip(ties.tolist(), mag[ties].view(np.float64).tolist()):
        mantissa, _, power = repr(x).partition("e")
        text = mantissa.replace(".", "").rstrip("0")
        digits[k] = int(text)
        exponent[k] = int(power or 0) + len(mantissa.partition(".")[0]) - len(text)
    return digits, exponent


def _word(text: str) -> int:
    """``text`` (at most 8 ASCII bytes) as a NUL-padded little-endian uint64."""
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


def _layout_table():
    """Per (form, digit count): the power of ten that splits the digits at
    the point, and the ASCII bits OR-ed into the three digit words.

    Forms, by decimal point position d (x = 0.digits * 10^d): 0 is d <= -4
    and 21 is d > 16 (``d.ddde-XX``, point after the first digit, none for
    one digit); 1-4 are d = -3..0 (``0.000ddd``, the ``0.000`` in the head
    word); 5-20 are d = 1..16 (point after d digits, zeros up to it, and a
    ``.0`` when no digit follows).  Byte p of the 18 digit places holds the
    point and reads 0 in the digits; bytes past the text stay NUL.
    """
    form, count = np.divmod(np.arange(22 * 17), 17)
    count += 1
    exponential = (form == 0) | (form == 21)
    point = np.where(exponential, 1, np.where(form <= 4, count, form - 4))
    size = np.where(exponential, count + (count > 1),
                    np.where(form <= 4, count, np.maximum(count, point + 1) + 1))
    place = np.arange(24)
    text = np.where(place < size[:, None], ord("0"), 0).astype(np.uint8)
    text[(place == point[:, None]) & (point < size)[:, None]] = ord(".")
    return _POW10[17 - point], text.view(_CELL).T.copy()


_SPLIT, _ASCII = _layout_table()
# head word by sign and form; exponent word by point position, shifted past
# the last two digit places; texts of zeros, infinities and NaN by kind and sign
_HEAD = np.array([_word(sign + ("0." + "0" * (4 - form) if 1 <= form <= 4 else ""))
                  for sign in ("", "-") for form in range(22)], dtype=np.uint64)
_EXPONENT = np.array([0 if -3 <= d <= 16 else _word(f"e{d - 1:+03d}") << 16
                      for d in range(-323, 310)], dtype=np.uint64)
_SPECIAL = np.array([_word(t) for t in ("0.0", "-0.0", "inf", "-inf", "nan", "nan")],
                    dtype=np.uint64)


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10^8, one per byte of a uint64 in
    reading order (byte values 0-9): two 4-digit lanes, four 2-digit lanes,
    then eight digits."""
    hi = x // 10000
    v = hi | (x - hi * 10000) << 32
    q = (v * 5243 >> 19) & 0x7F0000007F            # // 100 per 32-bit lane
    v = q | (v - q * 100) << 16
    q = (v * 103 >> 10) & 0x000F000F000F000F       # // 10 per 16-bit lane
    return q | (v - q * 10) << 8


def _layout(negative: np.ndarray, digits: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """Cells (n, 4) of the texts ``repr`` gives for sign, digits, exponent."""
    # the digit count, from the bit length through log10(2) ~ 1233 / 4096
    log2 = (digits.astype(np.float64).view(np.uint64) >> 52).astype(np.intp) - 1023
    guess = log2 * 1233 >> 12
    count = guess + 1 + (digits >= _POW10[guess + 1]) - (digits < _POW10[guess])
    point = exponent + count
    form = np.clip(point + 4, 0, 21)
    key = form * 17 + count - 1
    # 17 digits, then an 18-digit number with a 0 in the point's place
    full = digits * _POW10[17 - count]
    split = _SPLIT[key]
    head = full // split
    spaced = head * split * 10 + full - head * split
    top = spaced // 10 ** 10
    rest = spaced - top * 10 ** 10
    middle = rest // 100
    last = rest - middle * 100
    tens = last * 103 >> 10
    cells = np.empty((len(digits), 4), dtype=_CELL)
    cells[:, 0] = _HEAD[negative * 22 + form]
    cells[:, 1] = _digit_bytes(top) | _ASCII[0, key]
    cells[:, 2] = _digit_bytes(middle) | _ASCII[1, key]
    cells[:, 3] = tens | (last - tens * 10) << 8 | _ASCII[2, key] | _EXPONENT[point + 323]
    return cells


def _float_cells(values) -> np.ndarray:
    """Text cells (n, 4) of the float64 ``values`` (flattened), each the
    ``repr`` of its float as NUL-padded ASCII; the last byte is always NUL."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    negative = (bits >> 63).astype(np.intp)
    mag = bits & ((1 << 63) - 1)
    kind = (mag >= _INF_BITS).astype(np.intp) + (mag > _INF_BITS)
    cells = np.zeros((len(bits), 4), dtype=_CELL)
    cells[:, 0] = _SPECIAL[2 * kind + negative]
    regular = np.flatnonzero(mag - 1 < _INF_BITS - 1)   # finite and nonzero
    if regular.size:
        cells[regular] = _layout(negative[regular], *_shortest_digits(mag[regular]))
    return cells


def _float_texts(values) -> list[str]:
    """``repr`` of every float64 of ``values`` (flattened), in order: the
    texts of ``_float_cells`` as strings."""
    cells = _float_cells(values)
    cells[:, -1] |= _COMMA
    return _strip(cells).decode("ascii").split(",")[:-1]


def _strip(cells: np.ndarray) -> bytes:
    """The bytes of ``cells`` with every NUL deleted."""
    return cells.tobytes().translate(None, b"\0")


def _label_cells(labels: np.ndarray) -> np.ndarray:
    """Cells (n, w) of axis labels: ``str`` of integers, ``repr`` of floats."""
    if not np.issubdtype(labels.dtype, np.integer):
        return _float_cells(labels)
    texts = list(map(str, labels.tolist()))
    width = (max(map(len, texts), default=0) + 8) // 8   # wide enough to end in a NUL
    return np.array(texts, dtype=f"S{8 * width}").view(_CELL).reshape(len(texts), width)


def csv_lines(header: str, axis_labels, value_grids, newline: str, keep=None):
    """The bytes of a grid CSV: the ``header`` line, then blocks of lines
    ``label_1, ..., label_d, v_1, v_2, ...``, one per grid point in row-major
    order, each block about ``_BLOCK_VALUES`` values' worth of rows (one row
    at least).

    ``axis_labels`` are the d = 1 or 2 axes' label arrays, integer or float;
    the float arrays ``value_grids`` have the axes' lengths as their shape.
    With a boolean ``keep`` of that shape, only the points it marks get a
    line.  Every line ends in ``newline``.
    """
    yield (header + newline).encode("ascii")
    labels = [_label_cells(axis) for axis in axis_labels]
    step = max(1, _BLOCK_VALUES // max(1, math.prod(map(len, labels[1:]))))
    for start in range(0, len(labels[0]), step):
        rows = slice(start, start + step)
        # a block's cells live only in _block_lines, never beside the next block's
        yield _block_lines([labels[0][rows], *labels[1:]], [g[rows] for g in value_grids],
                           None if keep is None else keep[rows], newline)


def _block_lines(axes, grids, keep, newline: str) -> bytes:
    """The lines of one block of rows of ``csv_lines``: ``axes`` are the label
    cells of the block's rows and of the other axes, ``grids`` the block's
    values and ``keep`` None or its mask."""
    if keep is None:
        columns = [np.expand_dims(a, tuple(j for j in range(len(axes)) if j != k))
                   for k, a in enumerate(axes)]
        columns += [_float_cells(g).reshape(g.shape + (4,)) for g in grids]
    else:
        columns = [a[i] for a, i in zip(axes, np.nonzero(keep))]
        columns += [_float_cells(g[keep]) for g in grids]
    # the cells of each line in column order, a comma in the free last byte
    # of each cell but the last, then the newline
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    out = np.empty(shape + (sum(c.shape[-1] for c in columns) + 1,), dtype=_CELL)
    end = 0
    for column in columns:
        start, end = end, end + column.shape[-1]
        out[..., start:end] = column
        if start:
            out[..., start - 1] |= _COMMA
    out[..., end] = _word(newline)
    return _strip(out)


def write(path, chunks) -> None:
    """Write the byte ``chunks`` to ``path``, replacing any file there."""
    with open(path, "wb") as fh:
        fh.writelines(chunks)
