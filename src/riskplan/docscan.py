"""Exact reading of an instance document's large arrays from its bytes.

``json.loads`` makes a Python object for every number of an instance
document, and :func:`~riskplan.model.instance_from_dict` then gathers them
into columns; on ``riskplan gen``'s output that took most of a ``solve``
command's time.  :func:`read_instance` reads the two arrays that grow with
an instance, ``packages`` and ``per_epoch_packages``, into numpy columns
with a fixed number of numpy passes, and only the small rest of the
document goes through ``json``.

It takes a document only where it can prove that the result is what
``json.loads`` followed by ``instance_from_dict`` gives, bit for bit: where

* the bytes are ASCII, with no backslash;
* each array is the single top-level value of its key;
* every package object has exactly the keys ``id``, ``reward`` and
  ``rho``, in that order, and every catalog is a list of ids;
* every value in the arrays is a JSON number, and every id an integer of
  at most 18 digits;
* the bytes around the numbers repeat, as a program lays them out: the
  same between each id and its reward, each reward and its rho, and each
  rho and the next id; the same between two ids of a catalog, between two
  catalogs, and so on.

On any other document it returns None, and the caller parses it with
``json``.  The structure is proved with ``json`` itself: those bytes,
with zeros for the numbers of two packages (or of a few catalogs), must
parse as such.

Numbers convert as ``json`` and numpy convert them: an integer token is a
Python int (so ``-0`` is +0.0) made a double by rounding, and a token with
a fraction or an exponent is the correctly rounded double of its decimal
value.  Integers and decimals without an exponent, of at most 19 digits
``M`` with ``p`` of them after the point, are read in bulk.  Where ``M <=
2**53`` one IEEE division of exact operands gives the double (Clinger's
fast path), and an integer below 2**62 is rounded by the int64 to double
conversion.  Otherwise a candidate ``c`` is kept only where the exact
residual ``M - c * 10**p``, from Dekker's error-free product, is inside
half of ``c``'s smaller neighbour gap times ``10**p``.  Every other token
is converted by ``float`` (an integer token by ``float(int(...))``) one at
a time.
"""

from __future__ import annotations

import json
import re
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import PackageRecords, PackageTable

__all__ = ["read_instance"]

_WHITESPACE = re.compile(rb"[ \t\n\r]*")
#: The end of a list of lists: a close bracket, then the next one.
_LISTS_END = re.compile(rb"\][ \t\n\r]*\]")

_COMMA, _OPEN, _CLOSE, _MINUS, _PLUS, _POINT, _ZERO = b",[]-+.0"

#: The longest number token read in bulk; a longer one makes the reader decline.
_MAX_TOKEN = 40

#: Bytes of the first window from which :func:`_value` decodes a value
#: that is not one of the arrays.
_FIRST_WINDOW = 1 << 12


def read_instance(data: bytes, object_pairs_hook) -> Optional[dict]:
    """``json.loads(data, object_pairs_hook=object_pairs_hook)``, with the
    top-level ``packages`` as :class:`~riskplan.model.PackageRecords` over
    int64 and float64 columns, and ``per_epoch_packages`` as a list of
    int64 arrays; or None where this reader cannot prove that result.

    The hook sees every object of the rest of the document; a repeated
    top-level key makes the reader decline."""
    if not data.isascii() or b"\\" in data or b'"packages"' not in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    decoder = json.JSONDecoder(object_pairs_hook=object_pairs_hook)
    skip = _WHITESPACE.match
    pos = skip(data).end()
    if data[pos:pos + 1] != b"{":
        return None
    doc: dict = {}
    while True:
        pos = skip(data, pos + 1).end()
        close = data.find(b'"', pos + 1)
        if data[pos:pos + 1] != b'"' or close < 0:
            return None
        key = data[pos + 1:close].decode("ascii")
        pos = skip(data, close + 1).end()
        if key in doc or not key.isprintable() or data[pos:pos + 1] != b":":
            return None
        pos = skip(data, pos + 1).end()
        if key == "packages" and data[pos:pos + 1] == b"[":
            got = _packages(data, buf, pos)
        elif key == "per_epoch_packages" and data[pos:pos + 1] == b"[":
            got = _catalogs(data, buf, pos)
        else:
            got = _value(data, pos, decoder)
        if got is None:
            return None
        doc[key], pos = got
        pos = skip(data, pos).end()
        if data[pos:pos + 1] == b"}":
            break
        if data[pos:pos + 1] != b",":
            return None
    return doc if skip(data, pos + 1).end() == len(data) else None


def _value(data: bytes, pos: int, decoder: json.JSONDecoder):
    """The JSON value at ``pos`` and the position after it, as ``json``
    parses it, or None if it does not parse.

    It is decoded from a window of the bytes, widened while the value runs
    to the window's end: a value that ends before the end of its window
    reads the same as in the whole document."""
    size = _FIRST_WINDOW
    while True:
        window = data[pos:pos + size]
        whole = pos + size >= len(data)
        try:
            value, end = decoder.raw_decode(window.decode("ascii"))
        except (ValueError, RecursionError):
            if whole:
                return None
        else:
            if end < len(window) or whole:
                return value, pos + end
        size *= 4


#: Bytes of a span classified per pass of :func:`_numbers`, which bounds
#: the memory of its masks.
_BLOCK = 1 << 18


def _numbers(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and the end of each run of number bytes in ``span``, which
    opens and closes with a bracket: the digits, ``+ - . /``, ``e`` and
    ``E``, in a run that does not start with ``e`` or ``E`` (those are in
    keys such as ``"reward"``).  Every JSON number is one run; any other
    run is in no layout that :func:`_parses_as` accepts or in no number
    that :func:`_floats` reads."""
    edges, last = [], False
    index = np.int32 if span.size < 2**31 else np.int64
    for at in range(0, span.size, _BLOCK):
        part = span[at:at + _BLOCK]
        number = part - np.uint8(_PLUS) < 15
        number &= part != _COMMA
        number |= (part | 0x20) == ord("e")
        if number[0] != last:
            edges.append(np.array([at], index))
        change = np.flatnonzero(number[1:] != number[:-1]).astype(index)
        change += at + 1
        edges.append(change)
        last = number[-1]
    edges = np.concatenate(edges)
    starts, ends = edges[0::2], edges[1::2]
    keep = (span[starts] | 0x20) != ord("e")
    if keep.all():
        return starts, ends
    return starts[keep], ends[keep]


def _layout(span: np.ndarray, gaps: list):
    """The bytes of each kind of gap, if every gap of a kind holds the same
    bytes; else None.  ``gaps`` holds, for each kind, where its gaps start
    and where they end."""
    pieces = []
    for after, before in gaps:
        piece = span[after[0]:before[0]].tobytes()
        if not (before - after == len(piece)).all():
            return None
        if piece and not (sliding_window_view(span, len(piece))[after] == np.frombuffer(piece, np.uint8)).all():
            return None
        pieces.append(piece)
    return pieces


def _parses_as(pieces: list, expected) -> bool:
    """Whether the pieces of a layout, joined with a ``0`` between each two,
    parse as ``expected``, each object as its list of (key, value) pairs."""
    try:
        return json.loads(b"0".join(pieces), object_pairs_hook=list) == expected
    except (ValueError, RecursionError):
        return False


_PACKAGE = [("id", 0), ("reward", 0), ("rho", 0)]


def _packages(data: bytes, buf: np.ndarray, pos: int):
    """The ``packages`` array at ``pos`` as :class:`PackageRecords`, and the
    position after it; None unless every package is ``{"id": INT,
    "reward": NUM, "rho": NUM}`` and all are laid out alike.

    The array ends at its first ``]``, since no byte of such an array is
    one.  Its layout is the bytes before the first id, after the last rho,
    and between an id and its reward, a reward and its rho, and a rho and
    the next id; two packages of zeros in that layout must parse as such."""
    end = data.find(b"]", pos) + 1
    if not end:
        return None
    span = buf[pos:end]
    starts, ends = _numbers(span)
    n, extra = divmod(starts.size, 3)
    if not n:
        if extra or not _parses_as([span.tobytes()], []):
            return None
        empty = np.empty(0)
        return PackageRecords(PackageTable(empty, empty, empty)), end
    if extra:
        return None
    # Before the first id; from an id to its reward, from a reward to its
    # rho, from a rho to the next id; after the last rho.
    gaps = [(np.zeros(1, np.intp), starts[:1])]
    gaps += [(ends[k:-1:3], starts[k + 1::3]) for k in range(3 if n > 1 else 2)]
    gaps.append((ends[-1:], np.full(1, span.size)))
    pieces = _layout(span, gaps)
    if pieces is None:
        return None
    head, *between, tail = pieces
    if n > 1:  # two packages, to put the gap from a rho to the next id between numbers
        between += between[:2]
    if not _parses_as([head, *between, tail], [_PACKAGE] * min(n, 2)):
        return None
    ids = _integers(span, starts[0::3], ends[0::3])
    rewards = _floats(span, starts[1::3], ends[1::3])
    rhos = None if rewards is None else _floats(span, starts[2::3], ends[2::3])
    if ids is None or rhos is None:
        return None
    return PackageRecords(PackageTable(ids, rewards, rhos)), end


def _catalogs(data: bytes, buf: np.ndarray, pos: int):
    """The ``per_epoch_packages`` array at ``pos`` as a list of int64
    arrays, and the position after it; None unless it is a list of lists
    of integers, all laid out alike.

    The span runs to the first ``]`` that follows a ``]``, and its other
    brackets must open and close one list after another.  Its layout is
    the bytes before the first list, from a list's ``[`` to its first id,
    between two ids, from a list's last id to its ``]``, of an empty list,
    between two lists, and after the last list.  A list of each length
    that the span holds (two or more ids, one, none), or two lists if it
    holds several of one length, must parse as such in that layout."""
    empty = _WHITESPACE.match(data, pos + 1).end()
    if data[empty:empty + 1] == b"]":
        return [], empty + 1
    found = _LISTS_END.search(data, pos)
    if found is None:
        return None
    span = buf[pos:found.end()]
    # Without the outer "[" and "]".
    opens, closes = np.flatnonzero(span == _OPEN)[1:], np.flatnonzero(span == _CLOSE)[:-1]
    lists = opens.size
    if not lists or closes.size != lists or not ((opens < closes).all() and (closes[:-1] < opens[1:]).all()):
        return None
    starts, ends = _numbers(span)
    owner = np.searchsorted(opens, starts) - 1  # the list of each id
    if starts.size and ((owner < 0).any() or (ends > closes[owner]).any()):
        return None
    sizes = np.bincount(owner, minlength=lists)
    firsts = np.cumsum(sizes) - sizes
    full, none = np.flatnonzero(sizes), np.flatnonzero(sizes == 0)
    later = np.ones(starts.size, bool)
    later[firsts[full]] = False
    later = np.flatnonzero(later)  # ids after an id of their own list
    kinds = {
        "head": (np.zeros(1, np.intp), opens[:1]),
        "open": (opens[full], starts[firsts[full]]),
        "between": (ends[later - 1], starts[later]),
        "close": (ends[firsts[full] + sizes[full] - 1], closes[full] + 1),
        "empty": (opens[none], closes[none] + 1),
        "next": (closes[:-1] + 1, opens[1:]),
        "tail": (closes[-1:] + 1, np.full(1, span.size)),
    }
    kinds = {kind: gaps for kind, gaps in kinds.items() if gaps[0].size}
    pieces = _layout(span, list(kinds.values()))
    if pieces is None:
        return None
    piece = dict(zip(kinds, pieces))
    shown = [size for size in (2, 1, 0) if (np.minimum(sizes, 2) == size).any()]
    if lists > 1 and len(shown) == 1:
        shown *= 2
    text = {2: piece.get("open", b"") + b"0" + piece.get("between", b"") + b"0" + piece.get("close", b""),
            1: piece.get("open", b"") + b"0" + piece.get("close", b""),
            0: piece.get("empty", b"")}
    shown_text = piece["head"] + piece.get("next", b"").join(text[size] for size in shown) + piece["tail"]
    if not _parses_as([shown_text], [[0] * size for size in shown]):
        return None
    ids = _integers(span, starts, ends)
    if ids is None:
        return None
    return np.split(ids, np.cumsum(sizes)[:-1]), pos + len(span)


#: 10**k for k = 0..18, each an exact double, and its halves by Veltkamp's
#: splitter, for Dekker's exact product.
_POW10 = np.array([float(10**k) for k in range(19)])
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


#: Tokens read per pass of :func:`_integers` and :func:`_floats`, which
#: bounds the memory of their temporaries.
_ROWS = 1 << 14


def _blockwise(reader, span: np.ndarray, starts: np.ndarray, ends: np.ndarray, dtype):
    """``reader(span, starts, ends)`` on :data:`_ROWS` tokens at a time,
    joined; None if any block is."""
    out = np.empty(starts.size, dtype)
    for at in range(0, starts.size, _ROWS):
        block = reader(span, starts[at:at + _ROWS], ends[at:at + _ROWS])
        if block is None:
            return None
        out[at:at + _ROWS] = block
    return out


def _integers(span: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """The integers whose tokens are ``span[starts[i]:ends[i]]``, as int64;
    None unless each is a JSON integer of at most 18 digits."""
    return _blockwise(_integer_block, span, starts, ends, np.int64)


def _floats(span: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """The numbers whose tokens are ``span[starts[i]:ends[i]]``, as float64
    as ``json`` and numpy convert them; None if any token is not a JSON
    number."""
    return _blockwise(_float_block, span, starts, ends, np.float64)


def _integer_block(span, starts, ends):
    decimals = _decimals(span, starts, ends)
    if decimals is None:
        return None
    negative, places, count, significand, plain = decimals
    if not (plain.all() and (places == 0).all() and (count <= 18).all()):
        return None
    values = significand.astype(np.int64)
    return np.where(negative, -values, values)


#: The JSON number grammar, for the tokens read one at a time.
_NUMBER = re.compile(rb"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _float_block(span, starts, ends):
    """Integer tokens and decimals without an exponent in bulk; the rest,
    and any whose double the bulk path cannot prove, one at a time."""
    decimals = _decimals(span, starts, ends)
    if decimals is None:
        return None
    negative, places, count, significand, plain = decimals
    out, slow = _doubles(significand, places, plain & (count <= 19))
    out = np.where(negative & ((places > 0) | (significand != 0)), -out, out)  # an int -0 is +0.0
    for i in np.flatnonzero(slow).tolist():
        text = span[starts[i]:ends[i]].tobytes()
        number = _NUMBER.fullmatch(text)
        if number is None:
            return None
        # An int, as json reads it, becomes a double as numpy converts it;
        # _MAX_TOKEN keeps it within the doubles.
        out[i] = float(text) if number.group(1) or number.group(2) else float(int(text))
    return out


def _decimals(span, starts, ends):
    """Read each token as ``-?(0|[1-9][0-9]*)(.[0-9]+)?``: whether it is
    negative, its digits after the point, its count of digits, the value
    of its first 19 digits, and whether it has that form at all (a
    ``plain`` decimal).  None if a token is longer than :data:`_MAX_TOKEN`.

    The work is on the tokens' text as columns, ``text[j]`` the j-th byte
    of every token, so that each numpy pass runs over all the tokens."""
    lengths = ends - starts
    width = int(lengths.max())
    if width > _MAX_TOKEN:
        return None
    text = _text_columns(span, starts, lengths, width + 2)  # two NULs after the longest
    column = np.arange(width + 2, dtype=np.uint8)[:, None]

    # Every byte a digit but a leading minus and one point.  A second point,
    # like any other byte, is one too many, so the point's column can be
    # taken as a sum.
    negative = text[0] == _MINUS
    first = negative.view(np.uint8)
    point = text == _POINT
    has_point = point.any(axis=0)
    at_point = np.where(has_point, (point * column).sum(axis=0, dtype=np.uint8), lengths)
    digits = (text - np.uint8(_ZERO) < 10).sum(axis=0, dtype=np.uint8)
    int_digits = at_point - first
    places = np.where(has_point, lengths - at_point - 1, 0)
    plain = digits + first + has_point == lengths
    plain &= int_digits > 0
    plain &= ~has_point | (places > 0)
    plain &= (int_digits == 1) | (text[first, np.arange(starts.size)] != _ZERO)
    count = int_digits + places

    # The first 19 digits, left-aligned: drop the sign, then the point (the
    # columns of the integer part, mostly few, are moved back).
    size = min(width, 19)
    unsigned = np.where(negative, text[1:size + 2], text[:size + 1]) if negative.any() else text[:size + 1]
    shifted = unsigned[1:] - np.uint8(_ZERO)
    for j in range(min(int(int_digits.max()), size)):
        np.subtract(unsigned[j], np.uint8(_ZERO), out=shifted[j], where=j < int_digits)
    shifted *= column[:size] < count
    significand = _decimal(shifted) // _POW10_INT.take(size - np.clip(count, 0, size))
    return negative, places, count, significand, plain


#: 10**k for k = 0..19 as uint64.
_POW10_INT = np.array([10**k for k in range(20)], np.uint64)


def _decimal(digits: np.ndarray) -> np.ndarray:
    """The value of each column of at most 19 decimal digits (the first
    row the leading digit), as uint64, by Horner's rule on pairs."""
    value = digits[0].astype(np.uint64)
    if digits.shape[0] % 2 == 0:
        value *= np.uint64(10)
        value += digits[1]
    for j in range(2 - digits.shape[0] % 2, digits.shape[0], 2):
        value *= np.uint64(100)
        value += digits[j] * np.uint8(10) + digits[j + 1]
    return value


def _text_columns(span: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Each token's bytes as a column of ``width`` bytes, NUL after its end."""
    last = span.size - width
    text = sliding_window_view(span, width)[np.minimum(starts, last)]
    for i in np.flatnonzero(starts > last).tolist():  # tokens whose window passes the span's end
        text[i, :span.size - starts[i]] = span[starts[i]:]
    text = np.ascontiguousarray(text.T)
    text *= np.arange(width, dtype=np.uint8)[:, None] < lengths.astype(np.uint8)
    return text


def _doubles(significand: np.ndarray, places: np.ndarray, read: np.ndarray):
    """The correctly rounded double of ``significand / 10**places`` where
    this proves it, and which rows it leaves to ``float``: those not
    ``read`` and those the checks below do not prove.  A row that is read
    has at most 19 digits, so ``places <= 18``."""
    k = np.clip(places, 0, 18)  # so that a row not read indexes the table too
    power = _POW10.take(k)
    out = significand.astype(np.float64)  # exact up to 2**53, else rounded once
    out /= power
    # One rounding of exact operands, or an integer's own rounding.
    exact = significand <= 2**53
    proved = read & (exact | ((places == 0) & (significand < 2**62)))
    divide = read & ~exact & (significand < 2**62) & (places > 0)
    rows = slice(None) if divide.all() else np.flatnonzero(divide)
    ints = significand[rows].astype(np.int64)
    k = k[rows]
    power, p_hi, p_lo = _POW10.take(k), _POW10_HI.take(k), _POW10_LO.take(k)
    candidate = out[rows]
    candidate += _residual(candidate, ints, power, p_hi, p_lo) / power
    residual = _residual(candidate, ints, power, p_hi, p_lo)
    # The gap to the next double down, the smaller of the two.
    gap = candidate - (candidate.view(np.int64) - 1).view(np.float64)
    out[rows] = candidate
    proved[rows] = np.abs(residual) * (1 + 2.0**-50) < 0.5 * gap * power
    return out, ~proved


def _residual(candidate, ints, power, p_hi, p_lo) -> np.ndarray:
    """``ints - candidate * power`` to within a relative 2**-53, where the
    product is in [2**52, 2**63); ``p_hi + p_lo`` is ``power`` split in
    halves.

    Dekker's product gives ``candidate * power == hi + lo`` exactly; in
    that range ``hi`` is an integer, so ``ints - hi`` is exact in int64."""
    hi = candidate * power
    t = candidate * _SPLITTER
    c_hi = t - (t - candidate)
    c_lo = candidate - c_hi
    lo = ((c_hi * p_hi - hi) + c_hi * p_lo + c_lo * p_hi) + c_lo * p_lo
    return (ints - hi.astype(np.int64)).astype(np.float64) - lo
