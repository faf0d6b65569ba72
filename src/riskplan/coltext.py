"""Exact text of whole columns, for writing an instance's package rows and
a finite solve's report.

:func:`int_slots` and :func:`float_slots` write what ``str`` and
``cli._fmt_float`` (or another ``'%.17g'`` formatter) write for each value
of a column, as the rows of a uint8 matrix padded with NULs.  ``riskplan
gen`` (package rows) and ``riskplan solve finite`` (the report's values,
thresholds and plans, and the CSV's columns) import this module, on first
use; no other command loads it.  The module does not import ``cli``: under
``python -m riskplan.cli`` that would load ``cli`` a second time.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=None)
def _digits4() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999, four to a uint32 in text order, and
    each one's trailing zeros (4 for 0000); made on first use, so that
    commands that write no columns do not pay for them."""
    k = np.arange(10_000)
    text = (k[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    return _read_only(text.view(np.uint32).ravel(), sum(k % 10**j == 0 for j in range(1, 5)).astype(np.intp))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


#: 10**1 .. 10**18: the least int64 of each digit count from 2 to 19.
_INT_POW10 = np.array([10**k for k in range(1, 19)], np.int64)


def int_slots(ids: np.ndarray) -> np.ndarray:
    """``str`` of each int64, right-aligned in a row of bytes with NULs before."""
    negative = ids < 0
    if negative.any():
        return _with_fallbacks(int_slots(np.where(negative, 0, ids)), negative, ids, str)
    digits4 = _digits4()[0]
    width = len(str(int(ids.max())))
    groups = -(-width // 4)
    words = np.empty((len(ids), groups), np.uint32)
    rest = ids.copy()
    for k in range(groups - 1):
        scale = 10 ** (4 * (groups - 1 - k))
        group = rest // scale
        rest -= group * scale
        words[:, k] = digits4.take(group)
    words[:, -1] = digits4.take(rest)
    chars = words.view(np.uint8)[:, 4 * groups - width:]
    lead = width - 1 - np.searchsorted(_INT_POW10, ids, side="right")  # leading zeros
    if lead.any():
        column = np.arange(width)
        chars &= np.where(column >= column[:, None], 0xFF, 0).astype(np.uint8).take(lead, axis=0)
    return chars


#: 10**k for k = 0..22, each an exact double, and its halves by Veltkamp's
#: splitter, for Dekker's exact product.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_E16, _E17 = 10**16, 10**17


def _scaled(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``x * 10**p`` rounded half to even, as int64, where the product is in
    [2**53, 2**62); below 2**53 it may be one off.

    Dekker's product gives ``x * 10**p == hi + lo`` exactly.  In that range
    ``hi`` is an even integer, so ``hi + rint(lo)`` is the product rounded
    half to even."""
    hi = x * _POW10.take(p)
    t = x * _SPLITTER
    x_hi = t - (t - x)
    x_lo = x - x_hi
    c_hi, c_lo = _POW10_HI.take(p), _POW10_LO.take(p)
    lo = ((x_hi * c_hi - hi) + x_hi * c_lo + x_lo * c_hi) + x_lo * c_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def float_slots(x: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` (``cli._fmt_float``) of each value, left-aligned in a row of
    bytes with NULs after.

    Values in [1e-4, 1e16) are formatted together.  Their 17 significant
    digits are ``D = round(x * 10**p)`` with ``p = 16 - floor(log10 x)``,
    exact by :func:`_scaled` since 10**16 > 2**53; where ``log10`` was one
    off, D falls outside [10**16, 10**17) and is redone with ``p`` one
    nearer.  In that domain
    '%.17g' is fixed notation at the decimal exponent ``16 - p``, in -4..15.
    +0 is written "0" here too; any other value goes through ``fmt`` on
    its own."""
    fast = (x >= 1e-4) & (x < 1e16)
    everyone = bool(fast.all())
    scaled = x if everyone else np.where(fast, x, 1.0)
    p = 16 - np.floor(np.log10(scaled)).astype(np.intp)
    digits = _scaled(scaled, p)
    if digits.min() < _E16 or digits.max() >= _E17:
        off = np.flatnonzero((digits < _E16) | (digits >= _E17))
        p[off] += np.where(digits[off] < _E16, 1, -1)
        digits[off] = _scaled(scaled[off], p[off])
    # The 17 digits: a leading one and four groups of four.
    digits4, trailing_zeros4 = _digits4()
    words = np.empty((len(x), 5), np.uint32)
    lead = digits // _E16
    rest = digits - lead * _E16
    words[:, 0] = digits4.take(lead)
    for k, scale in enumerate((10**12, 10**8, 10**4), 1):
        group = rest // scale
        rest -= group * scale
        words[:, k] = digits4.take(group)
    words[:, 4] = digits4.take(rest)
    chars = words.view(np.uint8)[:, 3:]
    last = 16 - trailing_zeros4.take(rest)  # the last digit that is not a trailing zero
    ends = np.flatnonzero(rest == 0)
    if ends.size:
        last[ends] = 16 - np.argmax(chars[ends, ::-1] != ord("0"), axis=1)
    if everyone:
        return _fixed_layout(chars, 16 - p, last)
    zero = (x == 0) & ~np.signbit(x)
    chars[zero, 0] = ord("0")  # its digits are those of 1.0
    return _with_fallbacks(_fixed_layout(chars, 16 - p, last), ~(fast | zero), x, fmt)


def _fixed_layout(chars: np.ndarray, exp: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each row's 17 digits in '%g' fixed notation at decimal exponent
    ``exp[i]`` in -4..15, without the zeros after digit ``last[i]`` that are
    not in the integer part, and NULs for what a row does not write.

    The columns are those of :func:`_fixed_tables` for the rows' exponents:
    a prefix as wide as the smallest exponent needs, and a column for a
    point after each digit up to the largest exponent."""
    lowest = int(exp.min())
    prefix = 1 - lowest if lowest < 0 else 0
    points = max(int(exp.max()) + 1, 0)
    keep, add = _fixed_tables(prefix, points)
    out = np.empty((len(chars), keep.shape[1]), np.uint8)
    out[:, prefix:prefix + 2 * points:2] = chars[:, :points]
    out[:, prefix + 2 * points:] = chars[:, points:]
    key = (exp + 4) * 17 + last
    out &= keep.take(key, axis=0)
    out |= add.take(key, axis=0)
    return out


@functools.lru_cache(maxsize=None)
def _fixed_tables(prefix: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """For each (exponent, last digit) key of :func:`_fixed_layout`, the mask
    of the digit columns a row keeps and the bytes it adds: its share of
    the "0.000" prefix, and the point after digit ``exp`` when a later
    digit is kept.  There are at most 6 * 17 layouts, each a few kB."""
    exp = np.arange(-4, 16)[:, None, None]
    last = np.arange(17)[None, :, None]
    column = np.arange(17)
    keep = np.zeros((20, 17, prefix + 17 + points), np.uint8)
    add = np.zeros_like(keep)
    digits = np.where(column <= np.maximum(exp, last), 0xFF, 0)
    keep[..., prefix:prefix + 2 * points:2] = digits[..., :points]
    keep[..., prefix + 2 * points:] = digits[..., points:]
    add[..., :prefix] = np.where((column[:prefix] < 1 - exp) & (exp < 0), np.frombuffer(b"0.000", np.uint8)[:prefix], 0)
    add[..., prefix + 1:prefix + 2 * points:2] = np.where(
        (column[:points] == exp) & (exp < last), ord("."), 0)
    return _read_only(keep.reshape(20 * 17, -1), add.reshape(20 * 17, -1))


def _with_fallbacks(chars: np.ndarray, slow: np.ndarray, values: np.ndarray, fmt) -> np.ndarray:
    """``chars`` with each row flagged in ``slow`` replaced by ``fmt`` of its
    value, NUL-padded; columns are added if a text is longer than a row."""
    index = np.flatnonzero(slow)
    if not index.size:
        return chars
    texts = [fmt(v).encode() for v in values[index].tolist()]
    width = max(map(len, texts))
    if width > chars.shape[1]:
        chars = np.pad(chars, ((0, 0), (0, width - chars.shape[1])))
    chars[index] = 0
    for i, text in zip(index.tolist(), texts):
        chars[i, :len(text)] = np.frombuffer(text, np.uint8)
    return chars
