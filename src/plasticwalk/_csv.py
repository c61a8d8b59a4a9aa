"""Exact ``%.17g`` text of float64 tables, computed on whole arrays.

``rows(table)`` returns the bytes of ``",".join("%.17g" % v for v in row)``
and a newline for each row of a 2-D float64 table; every CSV table the
CLI writes (snapshots, sweep rows, dispersion scans) goes through it.
Seventeen significant digits round-trip every double, and Python's
conversion is correctly rounded (round half to even), so the digits of
each value are fixed: D = round(|v| 10^(16-X)) in [1e16, 1e17), X the
decimal exponent. They are found in float64 arithmetic, the same on every
platform, without a per-value Python call:

1. d = floor(log10|v|) estimates X, and k = 16 - d.
2. A table holds, for every k a finite double can need (subnormals
   included), a power of two S = 2^e with e near k log2(10) / 2, and
   10^k / S as the double-double P_hi + P_lo: P_hi is 10^k / S rounded to
   nearest and P_lo is the rest rounded to nearest, both from Python
   ints. With a = |v| S (exact: S is a power of two), a and P_hi lie
   within ~10^170 of 1, so no product below overflows or goes subnormal;
   no value needs a range guard.
3. Dekker's split product gives a P_hi = h + l exactly, h the rounded
   product and l its error; then t = l + a P_lo, and D = h + rint(t) (h
   is an even integer above 2^53). If D falls outside (1e16, 1e17) the
   estimate may be one off; d moves once, toward D, and D is formed again.
4. The error bound. Let s = |v| 10^k = a (P_hi + P_lo + delta) exactly,
   u = 2^-53, and s < 1e17 < 2^57. P_lo is within u |P_lo| of the rest,
   so |a delta| <= u^2 a P_hi < 2^-49.4. |l| <= ulp(h) / 2 <= 8 and
   |a P_lo| <= u a P_hi < 11.2; the product a P_lo rounds by at most
   11.2 u < 2^-49.4, and the sum t, below 32 in magnitude, by at most
   2^-49. So |s - h - t| < 2^-47, 128 times below the margin 2^-40:
   unless t lies within 2^-40 of a half-integer, rint(t) rounds it as
   it rounds s - h, D is correctly rounded and no exact tie can occur.
5. Python's ``"%.17g" %`` formats the rest itself: zeros, non-finite
   values, values within 2^-40 of a tie, and values whose D is still
   1e16 or 1e17 after the correction (d could still be one off there).
   On a walk's amplitudes that is about one value in 10^5 or fewer.
6. The 17 digits of D are laid out as ``%g`` does: fixed notation for
   -4 <= X < 17, else exponent notation with at least two exponent
   digits; trailing fractional zeros and a bare point are dropped.

Each value becomes a 32-byte record, NUL where a slot is unused, and a
block of records becomes text by deleting every NUL. A record is a frame
by exponent and sign (sign, lead, point, exponent) OR'd with the leading
digit and four groups of four digits, each one gather from a table; the
last group drops its trailing zeros. That is the text of nearly every
value. The rest, fixed notation from 10 up (the point falls among the
digits) and a last group of 0 (the group before may end in zeros too),
are laid out again, each byte moved by a map chosen by the point's place
and the number of digits printed. Blocks hold ``BLOCK_ROWS`` rows so the
work arrays stay small.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BLOCK_ROWS = 512

# A record is 32 bytes: the sign and the "0.000" lead of fixed notation
# below 1 (at most six bytes), the first digit, a slot for a point after
# it; the other 16 digits; "e", the exponent's sign and digits, and in the
# last byte the separator.
_WIDTH = 32
_SEP = _WIDTH - 1
_FIRST = 6  # the byte of the first digit; digit k > 0 sits at byte 7 + k

_K_LO, _K_HI = -293, 341  # exponents k = 16 - d of the power table; d lies in [-325, 309] once corrected
_D_LO, _D_HI = -330, 330  # decimal exponents of the layout tables
_KEYS = 18  # values of n, the digits printed (1..17), and of the point's digit plus one (0..17)
_DOT = ord(".")
_SPLIT = 2.0**27 + 1  # Dekker's splitter: x * _SPLIT separates a double into two 26-bit halves
_TIE = 2.0**-40  # the margin from a half-integer that t must keep


def _frozen(a: np.ndarray) -> np.ndarray:
    """A cached table, read-only because every call shares it."""
    a.flags.writeable = False
    return a


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: x = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _powers() -> np.ndarray:
    """Rows (S, P_hi, P_lo, halves of P_hi) by k - _K_LO for k in [_K_LO, _K_HI]; built on first use.

    10^k 2^(-e) is taken to 128 bits as the integer q, with its lowest bit
    set if anything nonzero was cut off, so that q rounds to 53 bits as the
    exact value does. P_hi is q rounded, P_lo is q - P_hi rounded.
    """
    tens = [1]
    for _ in range(max(_K_HI, -_K_LO)):
        tens.append(tens[-1] * 10)
    qs, bits = [], []
    for k in range(_K_LO, _K_HI + 1):
        n = tens[abs(k)]
        if k >= 0:
            b = 128 - n.bit_length()
            q = n << b if b >= 0 else n >> -b | (n & ((1 << -b) - 1) != 0)
        else:
            b = 128 + n.bit_length()
            q, r = divmod(1 << b, n)
            q |= r != 0
        qs.append(q)  # q = 10^k 2^b, up to the lowest bit
        bits.append(b)
    hi = [float(q) for q in qs]
    lo = [float(q - int(h)) for q, h in zip(qs, hi)]
    e = np.arange(_K_LO, _K_HI + 1) * 1661 // 1000  # near k log2(10) / 2, so a and P stay far from both ends
    down = -e - bits
    table = np.ldexp([np.ones(e.size), hi, lo], [e, down, down])  # exact: every result is a normal double
    return _frozen(np.concatenate((table, _split(table[1]))))


def _bytes(texts: list[str], width: int) -> np.ndarray:
    """Strings as rows of a uint8 array, NUL-padded to ``width``."""
    raw = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(texts), width)


@functools.cache
def _layout() -> tuple[np.ndarray, ...]:
    """Tables that lay out a record; built on first use. quads and full hold 4-byte units.

    quads: by g, the four digits of g (0..9999); at 10000 + g, the
    leading digit g alone, in the first digit's byte; at 10010, 0; at
    10011 + g, the digits of g up to its last nonzero one.
    full: by row 2 (d - _D_LO) + sign, the record of a value whose 17
    digits are all printed, less its digits: the sign and lead, the point
    after the first digit if it goes there, and the exponent.
    counts: by group j = 1..4 and its value g, the digits up to the last
    nonzero one of g (0 if g is 0); the largest over j, or 1, is the
    number of significant digits.
    moves: by key (point digit + 1) * _KEYS + n, where each byte of the
    record comes from when only the first n digits are printed: a byte of
    the record with all 17 digits and no point among them, 32 (NUL) or 33
    (the point). The point follows its digit only if a digit follows it.
    base, minimum: by row, (point digit + 1) * _KEYS (point digit -1:
    none), and the digits fixed notation prints at least (d + 1 above 1,
    else 1).
    """
    g = np.arange(10000)
    last = (4 - sum(g % 10**t == 0 for t in range(1, 5))).astype(np.int8)  # of the last nonzero digit, 0 for none
    quads = np.zeros((20011, 4), dtype=np.uint8)
    for t in range(4):
        quads[:10000, t] = ord("0") + g // 10 ** (3 - t) % 10
        quads[10011:, t] = np.where(t < last, quads[:10000, t], 0)
    quads[10000:10010, _FIRST % 4] = ord("0") + np.arange(10)
    counts = np.where(last > 0, last + 1 + 4 * np.arange(4, dtype=np.int8)[:, None], 0).astype(np.int8)
    at = np.r_[_FIRST, 8 : 8 + 16]  # the byte of each digit
    p = np.arange(-1, 17)[:, None, None]  # the point's digit, -1 for none
    n = np.arange(_KEYS)[:, None]
    b = np.arange(_WIDTH)
    dot, end = at[1] + p, at[1] - 1 + n  # the point's byte if it moves; the byte of digit n (n >= 1)
    inside = (p > 0) & (n > p + 1)  # the point falls among the printed digits; those after it move up a byte
    cut = np.where(inside, (end < b) & (b <= at[16] + 1), (end <= b) & (b <= at[16]))
    cut |= (p <= 0) & (n == 1) & (b == _FIRST + 1)  # one digit: no point after it
    moves = np.where(cut, _WIDTH, np.where(inside & (b == dot), _WIDTH + 1, b - (inside & (dot < b) & (b <= end))))
    d = np.arange(_D_LO, _D_HI + 1)
    fixed = (-4 <= d) & (d < 17)
    point_at = np.where(fixed, np.maximum(d, -1), 0)
    full = np.zeros((d.size, 2, _WIDTH), dtype=np.uint8)
    full[:, 1, 0] = ord("-")
    fractions = [sign + "0." + "0" * z for z in (3, 2, 1, 0) for sign in ("", "-")]  # d = -4 .. -1
    full[-4 - _D_LO : -_D_LO, :, :_FIRST] = _bytes(fractions, _FIRST).reshape(4, 2, _FIRST)
    full[point_at == 0, :, _FIRST + 1] = _DOT
    mag = np.abs(d)
    wide = mag >= 100  # the exponent has three digits, else two
    suffix = np.zeros((d.size, 5), dtype=np.uint8)
    suffix[:, 0] = ord("e")
    suffix[:, 1] = np.where(d < 0, ord("-"), ord("+"))
    suffix[:, 2] = ord("0") + np.where(wide, mag // 100, mag // 10)
    suffix[:, 3] = ord("0") + np.where(wide, mag // 10 % 10, mag % 10)
    suffix[:, 4] = np.where(wide, ord("0") + mag % 10, 0)
    full[~fixed, :, 24:29] = suffix[~fixed, None]
    base = np.repeat((point_at + 1) * _KEYS, 2)
    minimum = np.repeat(np.where(fixed & (d >= 0), d + 1, 1), 2)
    quads, full = quads.view(np.uint32)[:, 0], full.view(np.uint32).reshape(-1, _WIDTH // 4)
    return tuple(map(_frozen, (quads, full, counts, moves.reshape(-1, _WIDTH), base, minimum)))


def records(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value as a NUL-padded record, shape ``values.shape + (_WIDTH,)``.

    The separator slot (the last) is left NUL.
    """
    values = np.asarray(values, dtype=np.float64)
    v = values.reshape(-1)
    rec = np.empty((v.size, _WIDTH), dtype=np.uint8)  # _fast writes every byte
    idx = _fast(v, rec)
    if idx.size:
        rec[idx, :_SEP] = _bytes(["%.17g" % x for x in v[idx].tolist()], _SEP)
    return rec.reshape(values.shape + (_WIDTH,))


def _scaled(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t and D of step 3 for the magnitudes a at exponent estimates d (in the table's range)."""
    scale, p_hi, p_lo, p_hh, p_hl = np.take(_powers(), 16 - _K_LO - d, axis=1)
    a = a * scale
    h = a * p_hi
    a_h, a_l = _split(a)
    t = a_h * p_hh - h
    t += a_h * p_hl
    t += a_l * p_hh
    t += a_l * p_hl  # now l, the exact error of h
    t += a * p_lo
    r = np.rint(t)
    return t - r, h.astype(np.int64) + r.astype(np.int64)


def _outside(digits: np.ndarray) -> np.ndarray:
    """Where D is not in (1e16, 1e17): the exponent estimate is off, or in doubt."""
    return (digits - (10**16 + 1)).view(np.uint64) >= 9 * 10**16 - 1


def _fast(v: np.ndarray, rec: np.ndarray) -> np.ndarray:
    """Fill ``rec`` with the text of every value it can prove exact; return the indices of the rest."""
    slow = ~np.isfinite(v) | (v == 0.0)
    a = np.where(slow, 1.0, np.abs(v))
    d = np.floor(np.log10(a)).astype(np.int64)  # in [-324, 308] for every finite double
    frac, digits = _scaled(a, d)
    outside = _outside(digits)
    off = np.flatnonzero(outside)
    if off.size:  # the estimate was one off
        d[off] += np.where(digits[off] <= 10**16, -1, 1)
        frac[off], digits[off] = _scaled(a[off], d[off])
        outside[off] = _outside(digits[off])
    slow |= outside
    slow |= np.abs(frac) >= 0.5 - _TIE
    idx = np.flatnonzero(slow)
    if idx.size:  # placeholders in range; the Python path overwrites these records
        d[idx] = 0
        digits[idx] = 10**16 + 1

    g = np.empty((_WIDTH // 4, v.size), dtype=np.int64)  # by 4 bytes of the record, the row of quads they take
    for j in range(5, 1, -1):
        q = digits // 10000
        g[j] = digits - 10000 * q
        digits = q
    g[1] = digits + 10000
    g[5] += 10011  # the last group drops its trailing zeros
    g[0] = g[6] = g[7] = 10010
    quads, full, counts, moves, base, minimum = _layout()
    row = 2 * (d - _D_LO) + np.signbit(v)
    w = rec.view(np.uint32)
    np.take(full, row, axis=0, out=w, mode="clip")  # "clip" writes to ``out`` unbuffered; every index is in range
    w |= np.take(quads, g.T, mode="clip")
    # that is the text unless the point falls among the last 16 digits (fixed notation from 10 up) or the
    # last group is 0 (the group before may end in zeros too)
    redo = np.flatnonzero((minimum[row] > 1) | (g[5] == 10011))
    if redo.size:
        g, row = g[:, redo].T, row[redo]
        g[:, 5] -= 10011
        count = counts[np.arange(4), g[:, 2:6]].max(axis=1)
        src = np.zeros((redo.size, _WIDTH + 2), dtype=np.uint8)  # the record with every digit, NUL, the point
        src[:, :_WIDTH].view(np.uint32)[:] = full[row] | quads[g]
        src[:, -1] = _DOT
        rec[redo] = np.take_along_axis(src, moves[base[row] + np.maximum(count, minimum[row])], axis=1)
    return idx


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
