"""Exact ``%.17g`` text of float64 tables, computed on whole arrays.

``rows(table)`` returns the bytes of ``",".join("%.17g" % v for v in row)``
and a newline for each row of a 2-D float64 table; every CSV table the
CLI writes (snapshots, sweep rows, dispersion scans) goes through it. Seventeen significant digits round-trip every
double, and Python's conversion is correctly rounded (round half to
even), so the digits of each value are fixed: D = round(|v| 10^(16-X)) in
[1e16, 1e17), X the decimal exponent. They are found without a per-value
Python call:

1. d = floor(log10|v|) estimates X.
2. s = |v| 10^(16-d) is formed in long double from a table of powers of
   ten, each rounded to nearest with a 64-bit significand, and D = rint(s).
   If D falls outside [1e16, 1e17) the estimate was off by one; d moves
   once and s and D are formed again.
3. The table entry and the product each round with relative error at most
   2^-64, so |s - s_exact| <= s 2^-63. Unless the fraction of s lies
   within s 2^-62 of 1/2, rint(s) is the correctly rounded D (and no
   exact decimal tie is possible). Values that fail this test, values
   whose D is 1e16 or 1e17 after the correction (d could still be off by
   one there), zeros and non-finite values are formatted by Python's
   ``"%.17g" %`` itself; on a walk's amplitudes that is under 2 % of them.
   Where long double has fewer than 64 significand bits (it is plain
   double on some platforms) every value takes that path.
4. The 17 digits of D are laid out as ``%g`` does: fixed notation for
   -4 <= X < 17, else exponent notation with at least two exponent
   digits; trailing fractional zeros and a bare point are dropped.

Each value becomes a fixed-width record of bytes, NUL where a slot is
unused, and a block of records becomes text by deleting every NUL.
Blocks hold ``BLOCK_ROWS`` rows so the work arrays stay small.
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK_ROWS = 512

# A record is six 8-byte words: the sign, the "0.000" lead of fixed
# notation below 1 and the first digit; four groups of four digits; "e",
# the exponent's sign and digits, and in the last byte the separator. Each
# digit is followed by a slot for the point.
_WIDTH = 48
_SEP = _WIDTH - 1

_POW_LO, _POW_HI = -300, 350  # exponents of the power table; 16 - d lies in [-293, 341]
_D_LO, _D_HI = -330, 330  # decimal exponents of the layout tables; d lies in [-325, 309]
_KEYS = 18  # values of ``keep`` (0..17) and of the point's digit plus one (0..17)
_DOT = ord(".")


def _exact() -> bool:
    """Whether long double carries the 64-bit significand the error bound needs."""
    return np.finfo(np.longdouble).nmant >= 63


def _frozen(a: np.ndarray) -> np.ndarray:
    """A cached table, read-only because every call shares it."""
    a.flags.writeable = False
    return a


@functools.cache
def _powers() -> np.ndarray:
    """10^e for e in [_POW_LO, _POW_HI], built on first use.

    NumPy parses the text "1e<e>" with the C library's ``strtold``, which
    rounds the exact decimal to nearest.
    """
    return _frozen(np.array([f"1e{e}" for e in range(_POW_LO, _POW_HI + 1)]).astype(np.longdouble))


def _bytes(texts: list[str], width: int) -> np.ndarray:
    """Strings as rows of a uint8 array, NUL-padded to ``width``."""
    raw = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(texts), width)


def _words(texts: list[str]) -> np.ndarray:
    """Strings of at most 8 bytes as words, NUL-padded."""
    return _bytes(texts, 8).view(np.uint64)[:, 0]


@functools.cache
def _layout() -> tuple[np.ndarray, ...]:
    """Word tables that lay out a record; built on first use.

    quads: the four digits of 0..9999 in the even bytes of a word.
    counts: by word j and the value g of its digits, the digits up to the
    last nonzero one of g (0 if g is 0); the largest over j is the number
    of significant digits.
    keep, point: by word j and key (point digit + 1) * _KEYS + keep, the
    bytes of the first ``keep`` digits, and the point after its digit.
    lead: by 2 (d - _D_LO) + sign, the sign and the "0.000" lead (at most
    six bytes, so the first digit fits in the same word).
    suffix: by d - _D_LO, the exponent of exponent notation.
    minimum, point_at: by d - _D_LO, the digits fixed notation prints at
    least (d + 1 above 1, else 0) and the digit the point follows (-1: none).
    """
    g = np.arange(10000)
    quads = np.zeros((10000, 8), dtype=np.uint8)
    for t in range(4):  # by column: a temporary above 128 KB raises glibc's mmap threshold and peak RSS
        quads[:, 2 * t] = ord("0") + g // 10 ** (3 - t) % 10
    quads = quads.view(np.uint64)[:, 0]
    last = (4 - sum(g % 10**t == 0 for t in range(1, 5))).astype(np.int8)  # of the last nonzero digit, 0 for none
    counts = np.where(last > 0, last - 3 + 4 * np.arange(5, dtype=np.int8)[:, None], 0).astype(np.int8)
    k = np.arange(17)[:, None]  # digit k sits in word j, byte b; the point slot is the next byte
    j, b = (k + 3) // 4, 2 * ((k + 3) % 4)
    n = np.arange(_KEYS)
    keep = np.zeros((_KEYS, 5, 8), dtype=np.uint8)  # by keep alone; every point digit repeats it
    keep[n, j, b] = np.where(k < n, 0xFF, 0)
    keep = np.tile(keep, (_KEYS, 1, 1))
    point = np.zeros((_KEYS, _KEYS, 5, 8), dtype=np.uint8)  # by point digit + 1, then keep
    point[k + 1, n, j, b + 1] = np.where(k < n - 1, _DOT, 0)
    point = point.reshape(_KEYS * _KEYS, 5, 8)
    d = np.arange(_D_LO, _D_HI + 1)
    lead = np.zeros((d.size, 2), dtype=np.uint64)
    lead[:, 1] = _words(["-"])
    fractions = [sign + "0." + "0" * z for z in (3, 2, 1, 0) for sign in ("", "-")]  # d = -4 .. -1
    lead[-4 - _D_LO : -_D_LO] = _words(fractions).reshape(4, 2)
    fixed = (-4 <= d) & (d < 17)
    mag = np.abs(d)
    wide = mag >= 100  # the exponent has three digits, else two
    suffix = np.zeros((d.size, 8), dtype=np.uint8)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(d < 0, ord("-"), ord("+"))
    suffix[:, 2] = ord("0") + np.where(wide, mag // 100, mag // 10)
    suffix[:, 3] = ord("0") + np.where(wide, mag // 10 % 10, mag % 10)
    suffix[:, 4] = np.where(wide, ord("0") + mag % 10, 0)
    suffix[fixed] = 0
    minimum = np.where(fixed & (d >= 0), d + 1, 0)
    point_at = np.where(fixed, np.maximum(d, -1), 0)
    words = (keep.view(np.uint64)[..., 0].T.copy(), point.view(np.uint64)[..., 0].T.copy())
    suffix = suffix.view(np.uint64)[:, 0]
    return tuple(map(_frozen, (quads, counts, *words, lead.reshape(-1), suffix, minimum, point_at)))


def _scaled(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = a.astype(np.longdouble) * _powers()[16 - d - _POW_LO]
    return s, np.rint(s)


def records(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value as a NUL-padded record, shape ``values.shape + (_WIDTH,)``.

    The separator slot (the last) is left NUL.
    """
    values = np.asarray(values, dtype=np.float64)
    v = values.reshape(-1)
    rec = np.zeros((v.size, _WIDTH), dtype=np.uint8)
    slow = ~np.isfinite(v) | (v == 0.0)
    if _exact():
        _fast(v, slow, rec)
    else:
        slow[:] = True
    idx = np.flatnonzero(slow)
    if idx.size:
        rec[idx, :_SEP] = _bytes(["%.17g" % x for x in v[idx].tolist()], _SEP)
    return rec.reshape(values.shape + (_WIDTH,))


def _fast(v: np.ndarray, slow: np.ndarray, rec: np.ndarray) -> None:
    """Fill ``rec`` for every value not marked in ``slow``, and mark those it cannot prove exact."""
    a = np.where(slow, 1.0, np.abs(v))
    d = np.floor(np.log10(a)).astype(np.int64)
    s, D = _scaled(a, d)
    digits = D.astype(np.int64)
    off = np.flatnonzero((digits < 10**16) | (digits >= 10**17))
    if off.size:  # the estimate was one off
        d[off] += np.where(digits[off] < 10**16, -1, 1)
        s[off], D[off] = _scaled(a[off], d[off])
        digits[off] = D[off].astype(np.int64)
    slow |= (0.5 - np.abs(s - D) <= s * np.longdouble(2.0**-62)) | (digits <= 10**16) | (digits >= 10**17)
    d[slow] = 0  # placeholders in range; the Python path overwrites these records
    digits[slow] = 10**16

    g = []  # the leading digit, then four groups of four
    for _ in range(4):
        q = digits // 10000
        g.append(digits - 10000 * q)
        digits = q
    g.append(digits)
    g.reverse()
    quads, counts, keep, point, lead, suffix, minimum, point_at = _layout()
    count = counts[0][g[0]]
    for j in range(1, 5):
        np.maximum(count, counts[j][g[j]], out=count)
    i = d - _D_LO
    key = (point_at[i] + 1) * _KEYS + np.maximum(count, minimum[i])
    w = rec.view(np.uint64)
    for j in range(5):
        w[:, j] = (quads[g[j]] & keep[j][key]) | point[j][key]
    w[:, 0] |= lead[2 * i + np.signbit(v)]
    w[:, 5] = suffix[i]


def rows(table: np.ndarray, head: np.ndarray | None = None) -> str:
    """Each row of a 2-D float64 table as ``",".join("%.17g" % v ...)`` plus a newline.

    ``head`` holds ``records`` of leading columns that every call shares
    (shape (rows, h, _WIDTH)), so they are formatted once.
    """
    table = np.asarray(table, dtype=np.float64)
    parts = []
    for lo in range(0, table.shape[0], BLOCK_ROWS):
        rec = records(table[lo : lo + BLOCK_ROWS])
        if head is not None:
            rec = np.concatenate((head[lo : lo + BLOCK_ROWS], rec), axis=1)
        rec[:, :-1, _SEP] = ord(",")
        rec[:, -1, _SEP] = ord("\n")
        parts.append(rec.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)
