"""CSV text whose numbers are ``"%.17e" % v``, formatted a block of cells at a time.

``%.17e`` prints 18 correctly rounded significant digits, ties to even.
Python's ``%`` costs about a microsecond a cell; here numpy finds the same
digits for a whole block of cells at once, in integer arithmetic that is
exact or certified (Loitsch, PLDI 2010; Adams, OOPSLA 2019).

A finite nonzero v is m 2^e with 2^52 <= m < 2^53.  With L = floor(log10 |v|)
its digits are N = round(m 2^e 10^k), k = 17 - L, 10^17 <= N < 10^18.  A
table holds the top 128 bits T of each 10^k; the product m T is formed in
32-bit limbs.  Where T is 10^k itself (0 <= k <= 55) the product and its
remainder are exact, and a tie rounds to even.  Elsewhere the true product
lies in (m T, m T + m): a cell is rounded only where that whole interval
lies on one side of the half-way point.  nan, +-inf and every cell the
arithmetic does not settle are formatted by ``%`` itself, one at a time.

Each number becomes a WIDTH-byte field, padded with NUL bytes where its sign
or a third exponent digit is absent (a ``%`` field is padded at its end).  A
block of CSV rows is a block of fixed-width records of slots and separators,
each slot trimmed to the byte columns that some cell of the block uses: the
sign column or the third exponent digit's column is left out where it is NUL
in every cell.  Dropping the NUL bytes that remain (mixed signs or exponent
widths, nan and ``%`` cells) gives the CSV text.
"""

from __future__ import annotations

import numpy as np

WIDTH = 25  # sign, d.ddddddddddddddddd, e, exponent sign, 2 or 3 exponent digits
# cells a block: each uint64 temporary is 64 KiB, under glibc's 128 KiB mmap
# threshold, so blocks reuse freed memory instead of faulting in fresh pages;
# fewer cells a block cost more numpy call overhead a cell
BLOCK = 8192

# every double's decimal exponent, and one more at either end: the first
# estimate of L may be one off
_L_MIN, _L_MAX = -325, 309
_K_MIN = 17 - _L_MAX

# numpy 1.x turns uint64 mixed with a signed integer into float64: every
# operand that meets a uint64 array is a uint64
_ZERO, _U8, _U10, _U32, _U64 = (np.uint64(k) for k in (0, 8, 10, 32, 64))
_MASK32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(1 << 63)
_E8, _E17, _E18 = np.uint64(10**8), np.uint64(10**17), np.uint64(10**18)


def _powers():
    """(limbs, lowest, shift, exact) of 10^k, k = _K_MIN ... 17 - _L_MIN.

    10^k = T 2^shift, T rounded down to 128 bits; limbs[j] holds bits
    32j ... 32j + 31 of each T, lowest the index of its lowest nonzero limb,
    and exact says whether T 2^shift is 10^k itself.
    """
    tops, shift, exact = [], [], []
    d = 10 ** -_K_MIN
    while d > 1:  # 10^k = 1/d
        s = d.bit_length() + 127
        tops.append((1 << s) // d)
        shift.append(-s)
        exact.append(False)
        d //= 10
    p = 1
    for _ in range(18 - _L_MIN):
        b = p.bit_length() - 128
        t = p >> b if b >= 0 else p << -b
        tops.append(t)
        shift.append(b)
        exact.append(b <= 0 or t << b == p)
        p *= 10
    limbs = np.array([[(t >> 32 * j) & 0xFFFFFFFF for t in tops] for j in range(4)],
                     np.uint64)
    tables = limbs, np.argmax(limbs != 0, 0), np.array(shift, np.int64), np.array(exact, bool)
    for table in tables:
        table.flags.writeable = False  # every call reads them
    return tables


def _exponents():
    """The exponent text by exponent - _L_MIN, as its first four bytes in one
    uint32 ("e+05", "e-32") and its fifth (NUL, "4"), read-only as bytes are."""
    text = [(b"e%+03d" % e).ljust(5, b"\0") for e in range(_L_MIN, _L_MAX + 2)]
    return (np.frombuffer(b"".join(t[:4] for t in text), "<u4"),
            np.frombuffer(b"".join(t[4:] for t in text), np.uint8))


_LIMBS, _LOWEST, _SHIFT, _EXACT = _powers()
_EXPONENT, _EXPONENT3 = _exponents()
# a field's bytes: sign or NUL, d0 . d1, d2 ... d17, e and exponent sign and
# two digits, and a third exponent digit or NUL
_FIELD = np.dtype([("head", "<u4"), ("digits", "<u8", (2,)), ("exp", "<u4"), ("exp3", "u1")])
_HEAD = np.uint64(int.from_bytes(b"\x000.0", "little"))  # d0, d1 added as 0 ... 9


def _round(m: np.ndarray, e: np.ndarray, L: np.ndarray):
    """(N, miss, settled) per cell: N = round(m 2^e 10^(17 - L)).

    miss is -1 or +1 where the unrounded N lies below 10^17 or from 10^18 on,
    so that L is not the decimal exponent, and 0 otherwise.  settled says
    that N is certainly the correctly rounded value.
    """
    i = 17 - L - _K_MIN
    # m 2^e 10^k = m T 2^(e + shift): 128 - c bits of m T lie below the binary
    # point, c in 1 ... 12 since 2^179 <= m T < 2^181 and 10^16 <= N < 10^19
    c = (128 + e + _SHIFT.take(i)).astype(np.uint64)
    cols = [_ZERO] * 7  # m T in 32-bit columns; limbs zero in every cell are skipped
    halves = (m & _MASK32, m >> _U32)
    for j in range(int(_LOWEST.take(i).min(initial=3)), 4):
        t = _LIMBS[j].take(i)
        for h, part in enumerate(halves):
            p = part * t  # 32 x 32 bits
            cols[j + h] += p & _MASK32
            cols[j + h + 1] += p >> _U32
    for j in range(6):
        if isinstance(cols[j], np.ndarray):
            cols[j + 1] += cols[j] >> _U32
            cols[j] &= _MASK32
    hi = (cols[5] << _U32) | cols[4]
    mid = (cols[3] << _U32) | cols[2]
    lo = (cols[1] << _U32) | cols[0]
    # (m T) << c: N above bit 128, the fraction in the two 64-bit words below it
    n = (hi << c) | (mid >> (_U64 - c))
    frac = (mid << c) | (lo >> (_U64 - c))
    exact = _EXACT.take(i)
    tie = exact & (frac == _HALF) & ((lo << c) == 0)
    up = (frac >= _HALF) & ~(tie & ((n & np.uint64(1)) == 0))
    # inexact: the true product exceeds m T by less than m 2^c < 2^65, so a
    # fraction under half by 2^95 or more (the 32 bits under the half bit
    # not all ones) stays under half; one at or over half is over half
    settled = exact | ((frac >> np.uint64(31)) != _MASK32)
    miss = (n >= _E18).astype(np.int64) - (n < _E17)
    return n + up, miss, settled


def _percent(v: np.ndarray) -> np.ndarray:
    """Fields of the cells v by Python's own ``%``."""
    text = b"".join(("%.17e" % x).encode().ljust(WIDTH, b"\0") for x in v.tolist())
    return np.frombuffer(text, np.uint8).reshape(-1, WIDTH)


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each x < 10^8 as the ASCII bytes of one uint64,
    first digit lowest: x splits into lanes of 4, 2 and 1 digits by multiply
    and shift (y * 10486 >> 20 is y // 100 for y < 10^4, z * 103 >> 10 is
    z // 10 for z < 100)."""
    q = x // np.uint64(10**4)
    v = q | ((x - q * np.uint64(10**4)) << _U32)
    q = ((v * np.uint64(10486)) >> np.uint64(20)) & np.uint64(0x0000007F0000007F)
    v = q | ((v - q * np.uint64(100)) << np.uint64(16))
    q = ((v * np.uint64(103)) >> _U10) & np.uint64(0x000F000F000F000F)
    v = q | ((v - q * _U10) << _U8)
    return (v | np.uint64(0x3030303030303030)).astype("<u8", copy=False)


def fields(v) -> np.ndarray:
    """(n, WIDTH) uint8: row i holds ``"%.17e" % v[i]``, padded with NUL bytes."""
    v = np.ascontiguousarray(v, np.float64).ravel()
    a = np.abs(v)
    usual = np.isfinite(a) & (a != 0)
    if not usual.all():
        a = np.where(usual, a, 1.0)
    frac, exp2 = np.frexp(a)
    m = (frac * 2.0**53).astype(np.uint64)
    e = exp2 - 53
    L = np.floor(np.log10(a)).astype(np.int64)
    n, miss, settled = _round(m, e, L)
    redo = np.flatnonzero(miss)
    if redo.size:
        # the estimate of L was one off: try once more, then leave it to %
        L[redo] += miss[redo]
        n[redo], miss2, settled2 = _round(m[redo], e[redo], L[redo])
        settled[redo] = settled2 & (miss2 == 0)
    carry = n == _E18  # rounded up to 10^18: one more decimal place
    n[carry] = _E17
    L[carry] += 1
    zero = v == 0
    n[zero] = 0
    L[zero] = 0
    # N = d0 d1 A B: two digits, then two groups of eight
    lead = n // _E8
    groups = np.empty((v.size, 2), np.uint64)
    groups[:, 1] = n - lead * _E8
    top = lead // _E8
    groups[:, 0] = lead - top * _E8
    tens = (top * np.uint64(103)) >> _U10
    out = np.empty(v.size, _FIELD)
    out["head"] = (np.signbit(v) * np.uint64(ord("-")) | tens << _U8
                   | (top - tens * _U10) << np.uint64(24) | _HEAD)
    out["digits"] = _ascii8(groups)
    out["exp"] = _EXPONENT.take(L - _L_MIN)
    out["exp3"] = _EXPONENT3.take(L - _L_MIN)
    out = out.view(np.uint8).reshape(-1, WIDTH)
    rest = np.flatnonzero(~(settled & (usual | zero)))
    if rest.size:
        out[rest] = _percent(v[rest])
    return out


# a masked cell: nan where the digits go, so that it leaves the sign and
# third exponent digit columns NUL
_NAN = np.frombuffer(b"\0nan".ljust(WIDTH, b"\0"), np.uint8)


def _used(f: np.ndarray) -> slice:
    """The byte columns of the fields f that some cell uses: the sign column
    and the third exponent digit's column only where some cell fills them."""
    return slice(0 if f[:, 0].any() else 1, WIDTH if f[:, -1].any() else WIDTH - 1)


def _text(records: np.ndarray) -> str:
    """The records' bytes without their NUL bytes, as text."""
    return records.tobytes().replace(b"\0", b"").decode("ascii")


def csv_text(x, t, u) -> str:
    """CSV of the cells u, one record a cell: x (varying slowest), then t where
    t is an axis, then the cell.  With t, u is a len(x) by len(t) grid, header
    x,t,u,defined, and each record ends in its flag np.isfinite(u): a cell that
    is not finite reads nan,0.  With t None, u is a profile on x, header x,u,
    and each cell reads as ``%`` writes it, nan and inf included.

    t is formatted once and its slot trimmed to its used columns (``_used``);
    a block's x values are formatted in one call with its cells, and x's and
    u's slots trimmed once a block.  The separators and t are laid out again
    only where a block's widths change, and the NUL pass removes what padding
    remains in a slot."""
    grid = t is not None
    tf = fields(t) if grid else np.empty((1, 0), np.uint8)
    if grid:
        tf = tf[:, _used(tf)]
    # wt: the separator before t and t's slot; tail: the record's end, ",1\n" or "\n"
    nx, nt, wt, tail = len(x), len(tf), tf.shape[1] + grid, 3 if grid else 1
    u = np.reshape(u, (nx, nt))
    rows = max(1, BLOCK // max(nt, 1))
    most = min(rows, nx)
    # at most WIDTH bytes an x or u slot, and a separator before the cell
    buf = np.empty(most * nt * (2 * WIDTH + wt + 1 + tail), np.uint8)
    widths = None
    parts = ["x,t,u,defined\n" if grid else "x,u\n"]
    for r0 in range(0, nx, rows):
        xb, ub = x[r0:r0 + rows], u[r0:r0 + rows]
        d = np.isfinite(ub) if grid else None
        full = not grid or d.all()
        uf = fields(np.concatenate([xb, (ub if full else ub[d]).ravel()]))
        xs, uf = uf[:len(xb)], uf[len(xb):]
        xs, us = xs[:, _used(xs)], _used(uf)
        wx, wu = xs.shape[1], us.stop - us.start
        if widths != (wx, wu):  # lay out the separators and t at these widths
            widths = wx, wu
            rec = buf[:most * nt * (wx + wt + wu + 1 + tail)].reshape(most, nt, -1)
            rec[:, :, [wx, wx + wt, -3] if grid else wx] = ord(",")
            rec[:, :, -1] = ord("\n")
            rec[:, :, wx + 1:wx + wt] = tf
        block = rec[:len(ub)]
        block[:, :, :wx] = xs[:, None]
        cells = block[:, :, wx + wt + 1:-tail]
        if full:
            cells[...] = uf[:, us].reshape(cells.shape)
        else:
            cells[~d] = _NAN[us]
            cells[d] = uf[:, us]
        if grid:
            block[:, :, -2] = np.where(d, ord("1"), ord("0"))
        parts.append(_text(block))
    return "".join(parts)
