"""CSV text: every float as ``repr`` writes it, and the lines of grid CSVs.

The CSV writers give every float the text ``repr`` gives it, the shortest
decimal that reads back to the same float64, byte for byte.  They compute
it with numpy rather than one ``repr`` per float: Dragonbox's shortest
round-trip digits over uint64 arrays, one 64 x 128-bit product per value
(``repr``'s own digits for the few values where an end of the rounding
interval or the value itself scales to an integer, the halfway ties among
them, and for the powers of two), laid out as ASCII with ``repr``'s choice
between ``0.00012`` and ``1.2e-05``, one block of grid rows (about 8k
values, whatever the number of value columns) at a time, so that the text
of a large snapshot is never held whole.

``csv_lines`` lays out the lines of every CSV the package writes (the walk's
distributions and trajectories, ``spectrum`` and ``areasweep``), and
``write`` puts them in a file.  Lines carry ints and float reprs with no
quoting, so with CRLF line ends they are byte for byte what ``csv.writer``
gives for the same rows.
"""

from __future__ import annotations

import math

import numpy as np

# Dragonbox (Jeon 2020) over uint64 arrays.  A finite nonzero x = f 2^e (f
# the significand with its hidden bit) reads back from the decimals of its
# rounding interval x -+ 2^(e-1).  Scaled by 10^k, k = 2 - floor(e log10 2),
# the interval is w = 2^e 10^k wide, 100 <= w < 1000, and its upper end
# z = (2 f + 1) 2^(e-1) 10^k is one product of u = (2 f + 1) 2^beta with
# phi_k, 10^k times a power of two rounded up to 128 bits: its integer part
# zi and 64 bits of fraction zf.  Where a multiple of 1000 lies in the interval, zi // 1000
# are the shortest digits (trailing zeros and all); elsewhere the digits
# are the multiple of 100 nearest x.  Dragonbox reads the fractions of the
# lower end z - w and of x = z - w/2 off two more products; here they are
# zf less the fractions of w and w/2, which depend only on e.  Where that
# difference, or zf itself, is zero, an end or x may be an integer (an end
# that rounds to even, or a tie between two digit strings), and a power of
# two has an asymmetric interval: those digits are read from ``repr``.
# Texts are laid out as ASCII in 32-byte cells of four uint64 words, NUL
# where a text has no byte; deleting the NULs of a block of cells leaves
# the texts.

_MANTISSA = (1 << 52) - 1
_INF_BITS = 0x7FF << 52
_LIMB = 0xFFFFFFFF
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_COMMA = np.uint64(ord(",") << 56)   # a comma in the last byte of a word
_CELL = np.dtype("<u8")   # cell words are little-endian: byte 0 is the first character
# Values per block of CSV lines, over all value columns, and so per
# _float_cells call: enough to spread numpy's per-call cost, few enough that
# the digit arrays (64 kB each) stay in L2; blocks twice as large ran 1.5x
# slower per value.  A grid-128 spectrum (four values per point) takes 16 rows
# a block, a t = 500 distribution 8.
_BLOCK_VALUES = 8192


def _dragonbox_table() -> np.ndarray:
    """Dragonbox's constants per biased exponent 0..2046, one record each:
    u = (mantissa << ``shift``) + ``u0``; phi_k's 32-bit limbs ``c0``..``c3``;
    ``delta``, the integer part of w; ``half``, delta // 2 - 50; the 64-bit
    fractions of w (``xfrac``) and of w/2 (``yfrac``); and ``k``.
    """
    biased = np.arange(2047)
    e = np.maximum(biased, 1) - 1075                    # x = f 2^e
    k = 2 - (e * 315653 >> 20)                          # 2 - floor(e log10 2), |e| < 2620
    phi, log2 = [], []   # 10^j in [2^127, 2^128) rounded up, and floor(log2 10^j)
    for j in range(k.min(), k.max() + 1):
        p = 10 ** abs(j)
        bits = p.bit_length()
        if j >= 0:
            phi.append(-(-p << 128 >> bits))
            log2.append(bits - 1)
        else:
            phi.append(-((-1 << 127 + bits) // p))
            log2.append(-bits)
    row = k - k.min()
    beta = (e + np.array(log2)[row]).astype(np.uint64)  # 6..9, so u < 2^63
    hi = np.array([p >> 64 for p in phi], dtype=np.uint64)[row]
    lo = np.array([p & (1 << 64) - 1 for p in phi], dtype=np.uint64)[row]
    table = np.empty(2047, dtype=[(name, "<u8") for name in (
        "shift", "u0", "c0", "c1", "c2", "c3", "delta", "half", "xfrac", "yfrac")] + [("k", "<i8")])
    table["shift"] = beta + 1
    table["u0"] = ((biased > 0).astype(np.uint64) << 53 | 1) << beta
    table["c0"], table["c1"], table["c2"], table["c3"] = lo & _LIMB, lo >> 32, hi & _LIMB, hi >> 32
    table["delta"] = hi >> 63 - beta
    table["half"] = (table["delta"] >> 1) - 50
    table["xfrac"] = hi << beta + 1 | lo >> 63 - beta
    table["yfrac"] = hi << beta | lo >> 64 - beta
    table["k"] = k
    return table


_DRAGONBOX = _dragonbox_table()


def _shortest_digits(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits of finite nonzero magnitudes (uint64 bits),
    as ``repr`` gives them: ``full``, the digits padded with zeros to 17,
    and ``point``, with |x| = 0.ddddddddddddddddd * 10^point."""
    full, point, ties = _dragonbox(mag)
    for i, x in zip(ties.tolist(), mag[ties].view(np.float64).tolist()):
        mantissa, _, power = repr(x).partition("e")
        whole, _, fraction = mantissa.partition(".")
        digits = (whole + fraction).lstrip("0")
        full[i] = int(digits.ljust(17, "0"))
        point[i] = int(power or 0) + len(digits) - len(fraction)
    return full, point


def _dragonbox(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``full`` and ``point`` of ``_shortest_digits`` and the indices of the
    ``ties``, whose digits must be read from ``repr`` instead."""
    row = _DRAGONBOX.take(mag >> 52)
    mant = mag & _MANTISSA
    u = (mant << row["shift"]) + row["u0"]
    # z = u phi_k / 2^128: zi and zf, the schoolbook product of u's two limbs
    # and phi_k's four, column by column, with every partial sum below 2^64
    u0, u1 = u & _LIMB, u >> 32
    a, b, d = u0 * row["c1"], u0 * row["c2"], u0 * row["c3"]
    t = (u0 * row["c0"] >> 32) + (a & _LIMB) + u1 * row["c0"]
    t = (t >> 32) + (a >> 32) + (b & _LIMB) + u1 * row["c1"]
    zf = t & _LIMB
    t = (t >> 32) + (b >> 32) + (d & _LIMB) + u1 * row["c2"]
    zi = (t >> 32) + (d >> 32) + u1 * row["c3"]
    zf |= t << 32
    s = zi // 1000
    r = zi - s * 1000
    # 1000 s lies in the interval when r < delta, or r == delta and the lower
    # end z - w borrows from its integer part (zf < xfrac).  Otherwise the
    # digits are 10 s + q, q = (r - delta // 2 + 50) // 100, less one where
    # that division is exact and x = z - w/2 borrows (zf < yfrac).
    small = r >= row["delta"] + (zf < row["xfrac"])
    dist = r - row["half"]
    q = dist // 100
    digits = s * 10 + small * (q - ((q * 100 == dist) & (zf < row["yfrac"])))
    ties = np.flatnonzero((mant == 0) | (zf == 0) | (zf == row["xfrac"]) | (zf == row["yfrac"]))
    # zi has L digits and the digits L - 2, at 10^(2 - k)
    length = np.searchsorted(_POW10, zi, "right")
    return digits * _POW10[19 - length], length - row["k"], ties


def _word(text: str) -> int:
    """``text`` (at most 8 ASCII bytes) as a NUL-padded little-endian uint64."""
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


def _layout_table():
    """Per form (below): the power of ten that splits the 17 digits at the
    decimal point; per form, sign and last nonzero place: the cell's
    constant words; and per point position p (x = 0.ddd * 10^p, p + 323 in
    0..632): the exponent text, shifted past the last two digit places.

    The digits and the point take 18 places, bytes 8..25 of the cell.  In
    forms 0 (p <= -4) and 21 (p > 16), ``d.ddde-XX``, the point is place 1,
    and the text ends at the last nonzero digit, with no point if that is
    the first; in forms 1-4 (p = -3..0), ``0.000ddd``, the ``0.000`` is in
    the head word and the point is place 17, past every digit; in forms
    5-20 (p = 1..16) it is place p, and the text ends at the later of the
    last nonzero digit and the place after the point (``12.0``).  Word 0
    holds the sign and ``0.000``, bytes 26..30 the exponent, and byte 31
    stays NUL.
    """
    p = np.arange(-4, 18)[:, None]                       # one point position per form
    exponential = (p <= -4) | (p > 16)
    point = np.where(exponential, 1, np.where(p <= 0, 17, p))
    last = np.arange(18)
    end = np.where(exponential | (p <= 0), last, np.maximum(last, point + 1))
    place = np.arange(24)
    text = np.where(place <= end[..., None], np.uint8(ord("0")), np.uint8(0))
    text[(place == point[..., None]) & (place <= end[..., None])] = ord(".")
    head = np.array([[_word(sign + ("0." + "0" * -d if -3 <= d <= 0 else ""))
                      for sign in ("", "-")] for d in range(-4, 18)], dtype=np.uint64)
    cells = np.empty((22, 2, 18, 4), dtype=_CELL)
    cells[..., 0] = head[..., None]
    cells[..., 1:] = text.view(_CELL)[:, None]
    exponent = np.array([_word(f"e{d - 1:+03d}") << 16 if d <= -4 or d > 16 else 0
                         for d in range(-323, 310)], dtype=np.uint64)
    return _POW10[17 - point[:, 0]], cells.reshape(-1, 4), exponent


_SPLIT, _CELLS, _EXPONENT = _layout_table()
# the four decimal digits of 0..9999, one per byte in reading order (values 0-9)
_DIGITS = sum(np.arange(10000, dtype=np.uint64) // 10 ** (3 - i) % 10 << 8 * i for i in range(4))
# texts of zeros and infinities by sign and top exponent bit, then NaN
_SPECIAL = np.array([_word(t) for t in ("0.0", "inf", "-0.0", "-inf", "nan")], dtype=np.uint64)


def _layout(negative: np.ndarray, full: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Cells (n, 4) of the texts ``repr`` gives for sign (int 0 or 1) and the
    17 digits and point of ``_shortest_digits``."""
    form = np.clip(point + 4, 0, 21)
    split = _SPLIT[form]
    # an 18-digit number with a 0 at the point's place, in three rows of 8
    # digits: places 0-7, 8-15, and 16-17 followed by six zeros
    spaced = full + full // split * (split * 9)
    rows = np.empty((3, len(full)), dtype=np.uint64)
    np.floor_divide(spaced, 10 ** 10, out=rows[0])
    rest = spaced - rows[0] * 10 ** 10
    np.floor_divide(rest, 100, out=rows[1])
    np.multiply(rest - rows[1] * 100, 10 ** 6, out=rows[2])
    high = rows // 10 ** 4
    digits = _DIGITS.take(high) | _DIGITS.take(rows - high * 10 ** 4) << 32
    # the last nonzero place, from the exponent of each word's nonzero bytes
    # as a float: 1030 + 8 i for byte i, 0 for a word of zeros
    top = ((digits + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080).astype(np.float64)
    top = top.view(np.int64) >> 52
    top[1] += 64
    top[2] += 128
    cells = _CELLS.take(((form << 1) + negative) * 18 + (top.max(axis=0) - 1030 >> 3), axis=0)
    cells[:, 1] |= digits[0]
    cells[:, 2] |= digits[1]
    cells[:, 3] |= digits[2] | _EXPONENT[point + 323]
    return cells


def _float_cells(values) -> np.ndarray:
    """Text cells (n, 4) of the float64 ``values`` (flattened), each the
    ``repr`` of its float as NUL-padded ASCII; the last byte is always NUL."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    mag = bits & ((1 << 63) - 1)
    regular = np.flatnonzero(mag - 1 < _INF_BITS - 1)   # finite and nonzero
    if regular.size == bits.size:
        return _layout((bits >> 63).view(np.int64), *_shortest_digits(mag))
    cells = np.zeros((len(bits), 4), dtype=_CELL)
    cells[:, 0] = _SPECIAL.take(bits >> 62)
    cells[mag > _INF_BITS, 0] = _SPECIAL[4]
    if regular.size:
        # placed as 32-byte items, 2.5x faster than rows of four words
        cells.view("V32")[regular] = _layout((bits[regular] >> 63).view(np.int64),
                                             *_shortest_digits(mag[regular])).view("V32")
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


def _label_cells(labels: np.ndarray, prefix: str) -> np.ndarray:
    """Cells (n, w) of axis labels, each ``prefix`` (at most 2 bytes) and the
    ``str`` of an integer or the ``repr`` of a float, then a comma."""
    if np.issubdtype(labels.dtype, np.integer):
        texts = [prefix + text for text in map(str, labels.tolist())]
        width = (max(map(len, texts), default=0) + 8) // 8   # wide enough to end in a NUL
        cells = np.array(texts, dtype=f"S{8 * width}").view(_CELL).reshape(len(texts), width)
    else:
        cells = _float_cells(labels)
        # the head word holds at most 6 bytes, "-0.000"
        cells[:, 0] = cells[:, 0] << 8 * len(prefix) | _word(prefix)
    cells[:, -1] |= _COMMA
    return cells


def csv_lines(header: str, axis_labels, value_grids, newline: str, keep=None):
    """The bytes of a grid CSV: the ``header`` line, then blocks of lines
    ``label_1, ..., label_d, v_1, v_2, ...``, one per grid point in row-major
    order, each block about ``_BLOCK_VALUES`` values' worth of rows over all
    the value grids (one row at least).

    ``axis_labels`` are the d = 1 or 2 axes' label arrays, integer or float;
    the float arrays ``value_grids`` have the axes' lengths as their shape.
    With a boolean ``keep`` of that shape, only the points it marks get a
    line.  Every line ends in ``newline``: the first label of each line
    carries the end of the line before, and the last chunk ends the last.
    """
    yield header.encode("ascii")
    labels = [_label_cells(axis, newline if k == 0 else "") for k, axis in enumerate(axis_labels)]
    row_values = math.prod(map(len, labels[1:])) * len(value_grids)
    step = max(1, _BLOCK_VALUES // max(1, row_values))
    for start in range(0, len(labels[0]), step):
        rows = slice(start, start + step)
        # a block's cells live only in _block_lines, never beside the next block's
        yield _block_lines([labels[0][rows], *labels[1:]], [g[rows] for g in value_grids],
                           None if keep is None else keep[rows])
    yield newline.encode("ascii")


def _block_lines(axes, grids, keep) -> bytes:
    """The lines of one block of rows of ``csv_lines``: ``axes`` are the label
    cells of the block's rows and of the other axes, ``grids`` the block's
    values and ``keep`` None or its mask."""
    # all the block's values in one _float_cells call
    stacked = np.stack([g if keep is None else g[keep] for g in grids])
    values = _float_cells(stacked).reshape(stacked.shape + (4,))
    values[:-1, ..., -1] |= _COMMA
    if keep is None:
        columns = [np.expand_dims(a, tuple(j for j in range(len(axes)) if j != k))
                   for k, a in enumerate(axes)]
        columns += list(values)
    else:
        columns = [a[i] for a, i in zip(axes, np.nonzero(keep))] + list(values)
    # the cells of each line in column order
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    out = np.empty(shape + (sum(c.shape[-1] for c in columns),), dtype=_CELL)
    end = 0
    for column in columns:
        start, end = end, end + column.shape[-1]
        out[..., start:end] = column
    return _strip(out)


def write(path, chunks) -> None:
    """Write the byte ``chunks`` to ``path``, replacing any file there."""
    with open(path, "wb") as fh:
        fh.writelines(chunks)
