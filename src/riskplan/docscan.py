"""Exact reading of an instance document's large arrays from its bytes.

``json.loads`` makes a Python object for every number of an instance
document, and :func:`~riskplan.model.instance_from_dict` then gathers them
into columns; on ``riskplan gen``'s output that took most of a ``solve``
command's time.  :func:`read_instance` reads the two arrays that grow with
an instance into numpy columns: ``packages`` a block of rows at a time,
with a fixed number of numpy passes per block (:func:`_packages`), and
``per_epoch_packages`` a list of ids at a time (:func:`_catalogs`).  So
the memory that reading takes beyond the file's bytes is its columns and
the temporaries of one block or one list.  ``json`` decodes the rest of
the document in one call, with ``[]`` in place of each array taken.

It takes a document only where it can prove that the result is what
``json.loads`` followed by ``instance_from_dict`` gives, bit for bit: where

* the bytes are ASCII, with no backslash, so that no string holds a ``"``
  and each occurrence of a quoted key name is that whole string;
* the first ``"packages"`` is followed by an array (the first
  ``"per_epoch_packages"`` outside it is taken only if it is), and each
  name taken is once in the rest, a top-level key with ``[]``;
* every package object has exactly the keys ``id``, ``reward`` and
  ``rho``, in that order, and every catalog is a list of ids;
* every value in ``packages`` is a JSON number, and every package id an
  integer of at most 18 digits; every catalog id is an integer that int64
  holds;
* the bytes around the numbers of ``packages`` repeat, as a program lays
  them out: the same between each id and its reward, each reward and its
  rho, and each rho and the next id.

On any other document it returns None, and the caller parses it with
``json``.  The structure of ``packages`` is proved with ``json`` itself:
those bytes, with zeros for the numbers of two packages, must parse as
such.  That a list of ids is a JSON list of integers is proved from its
bytes with numpy (:func:`_ids`), and ``np.fromstring`` reads them into an
int64 column.

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

from .model import PackageRecords, PackageTable, _is_int64

__all__ = ["read_instance"]

_WHITESPACE = re.compile(rb"[ \t\n\r]*")

_COMMA, _MINUS, _PLUS, _POINT, _ZERO = b",-+.0"

#: The longest number token read in bulk; a longer one makes the reader decline.
_MAX_TOKEN = 40


def read_instance(data: bytes, object_pairs_hook) -> Optional[dict]:
    """``json.loads(data, object_pairs_hook=object_pairs_hook)``, with the
    top-level ``packages`` as :class:`~riskplan.model.PackageRecords` over
    int64 and float64 columns, and ``per_epoch_packages`` as a list of
    int64 arrays; or None where this reader cannot prove that result,
    which includes any error of the hook."""
    if not data.isascii() or b"\\" in data:
        return None
    decoder = json.JSONDecoder(object_pairs_hook=object_pairs_hook)
    start = _array_after(data, b'"packages"', data.find(b'"packages"'))
    got = None if start is None else _packages(data, np.frombuffer(data, np.uint8), start)
    if got is None:
        return None
    packages, end = got
    taken = {"packages": (start, packages, end)}
    name = b'"per_epoch_packages"'
    at = data.find(name, 0, start)
    start = _array_after(data, name, at if at >= 0 else data.find(name, end))
    if start is not None:  # else json reads the key, if there is one
        got = _catalogs(data, start, decoder)
        if got is None:
            return None
        taken["per_epoch_packages"] = (start, *got)
    rest, pos = b"", 0
    for start, _, end in sorted(taken.values(), key=lambda span: span[0]):
        rest += data[pos:start] + b"[]"
        pos = end
    rest += data[pos:]
    try:
        doc = decoder.decode(rest.decode("ascii"))
    except (ValueError, RecursionError):  # the hook's errors included
        return None
    # A name that is once in the rest is the key json read, so its [] is the array taken.
    if not isinstance(doc, dict) or any(doc.get(key) != [] or rest.count(f'"{key}"'.encode()) != 1 for key in taken):
        return None
    doc.update((key, value) for key, (_, value, _) in taken.items())
    return doc


#: The bytes from a key to the ``[`` of an array value.
_TO_ARRAY = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*\[")


def _array_after(data: bytes, name: bytes, at: int) -> Optional[int]:
    """Where the ``[`` is of the array after the key ``name`` at ``at``, or
    None if ``at`` is negative or no array follows."""
    match = _TO_ARRAY.match(data, at + len(name)) if at >= 0 else None
    return match and match.end() - 1


#: JSON's whitespace.
_JSON_WHITESPACE = b" \t\n\r"

#: The bytes of a JSON list of integers.  A list holding no other byte can
#: decode only to integers: a float needs ``.``, ``e`` or ``E``, and
#: ``true``, ``false``, ``null``, ``NaN``, ``Infinity`` and strings need
#: letters or ``"``.  Nor can it nest, as its one ``]`` is its last byte.
_INT_LIST_BYTES = b"0123456789-,[]" + _JSON_WHITESPACE


def _catalogs(data: bytes, pos: int, decoder: json.JSONDecoder):
    """The ``per_epoch_packages`` array whose ``[`` is at ``pos``, as a
    list of read-only int64 arrays, and the position after it; None unless
    it is a list of lists of integers that int64 holds.

    A list of ids holds no ``]``, so each list is the bytes from its ``[``
    to the first ``]``, read alone by :func:`_ids`: the memory that grows
    with the ids is their arrays.  Only whitespace and commas may lie
    between lists."""
    skip = _WHITESPACE.match
    catalogs = []
    pos = skip(data, pos + 1).end()
    if data[pos:pos + 1] == b"]":
        return catalogs, pos + 1
    while True:
        close = data.find(b"]", pos) + 1
        if data[pos:pos + 1] != b"[" or not close:
            return None
        column = _ids(data[pos:close], decoder)
        if column is None:
            return None
        column.flags.writeable = False  # so that Instance keeps it without a copy
        catalogs.append(column)
        pos = skip(data, close).end()
        if data[pos:pos + 1] == b"]":
            return catalogs, pos + 1
        if data[pos:pos + 1] != b",":
            return None
        pos = skip(data, pos + 1).end()


#: The least magnitude of an id of 19 digits.  ``np.fromstring`` reads
#: every id of fewer digits exactly, and saturates one beyond int64.
_LONG_ID = 10**18


def _ids(chunk: bytes, decoder: json.JSONDecoder) -> Optional[np.ndarray]:
    """The ids of the list ``chunk``, from its ``[`` to its one ``]``, as
    int64; None unless it is a JSON list of integers that int64 holds.

    Its bytes must be those of :data:`_INT_LIST_BYTES`.  Without its
    whitespace, a few numpy passes prove it ``[``, then numbers ``-?[0-9]+``
    with one comma between each two, then ``]``: each byte next to a comma
    or a bracket is a digit or a ``-``, each ``-`` starts a number and comes
    before a digit, and no number has a leading zero.  No whitespace may lie
    inside a number, so the list's runs of number bytes, whitespace kept,
    are one per id.  ``np.fromstring`` then reads the ids; one of 19 digits
    or more, which it saturates, is read again by ``decoder`` alone."""
    if chunk.translate(None, _INT_LIST_BYTES):
        return None
    text = chunk.translate(None, _JSON_WHITESPACE)
    if text == b"[]":
        return np.empty(0, np.int64)
    if text.find(b"[", 1) >= 0:
        return None
    buf = np.frombuffer(text, np.uint8)
    digit = buf - np.uint8(_ZERO) < 10
    minus = buf == _MINUS
    number = digit | minus
    # No comma or bracket is next to another; a - follows one and comes
    # before a digit; a 0 that follows no digit comes before none.
    if not (number[1:] | number[:-1]).all():
        return None
    if (minus[1:-1] & (number[:-2] | ~digit[2:])).any():
        return None
    if ((buf[1:-1] == _ZERO) & ~digit[:-2] & digit[2:]).any():
        return None
    count = buf.size - int(np.count_nonzero(number)) - 1  # the commas, plus one
    if len(text) < len(chunk):
        spaced = np.frombuffer(chunk, np.uint8) - np.uint8(_MINUS) < 13  # a - or a digit
        if np.count_nonzero(spaced[1:] > spaced[:-1]) != count:
            return None
    ids = np.fromstring(text[1:-1], np.int64, sep=",", count=count)
    if ids.max() >= _LONG_ID or ids.min() <= -_LONG_ID:
        edges = np.flatnonzero(~number)  # the brackets and the commas
        for i in np.flatnonzero((ids >= _LONG_ID) | (ids <= -_LONG_ID)).tolist():
            value = decoder.decode(text[edges[i] + 1:edges[i + 1]].decode("ascii"))
            if not _is_int64(value):
                return None
            ids[i] = value
    return ids


#: Bytes of the packages array read per block (about 5,200 of ``gen``'s
#: rows): a block ends just after the first ``}`` this many bytes past its
#: start, so that the scan's temporaries follow this constant, not the array.
_PACKAGE_BLOCK = 1 << 19


#: Bytes of a block classified per pass of :func:`_numbers`: few enough
#: that the masks of each pass reuse freed heap memory, not fresh pages.
_MASK_BYTES = 1 << 16


def _numbers(span: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and the end of each run of number bytes in ``span``, which
    ends with a bracket or a brace: the digits, ``+ - . /``, ``e`` and
    ``E``, in a run that does not start with ``e`` or ``E`` (those are in
    keys such as ``"reward"``).  Every JSON number is one run; any other
    run is in no layout that :func:`_parses_as` accepts or in no number
    that :func:`_floats` reads."""
    edges, last = [], False
    for at in range(0, span.size, _MASK_BYTES):
        part = span[at:at + _MASK_BYTES]
        number = part - np.uint8(_PLUS) < 15
        number &= part != _COMMA
        number |= (part | 0x20) == ord("e")
        if number[0] != last:
            edges.append([at])
        change = np.flatnonzero(number[1:] != number[:-1])
        change += at + 1
        edges.append(change)
        last = number[-1]
    edges = np.concatenate(edges)
    starts, ends = edges[0::2], edges[1::2]
    keep = (span[starts] | 0x20) != ord("e")
    if keep.all():
        return starts, ends
    return starts[keep], ends[keep]


def _layout(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, last: int, pieces: list) -> bool:
    """Whether every gap before a number of a block, the first from
    ``last`` (the end of the number before the block), holds its kind's
    bytes.  The numbers' tokens are ``buf[starts[i]:ends[i]]``, three per
    package.  ``pieces`` holds the bytes of each kind of gap, None until
    the first gap of the kind sets them; the head is the array's first."""
    opens = np.concatenate(([last], ends[:-1]))
    head = 1 if pieces[0] is None else 0
    gaps = [(opens[:head], starts[:head]), (opens[1::3], starts[1::3]),
            (opens[2::3], starts[2::3]), (opens[3 * head::3], starts[3 * head::3])]
    for kind, (after, before) in enumerate(gaps):
        if not after.size:
            continue
        if pieces[kind] is None:
            pieces[kind] = buf[after[0]:before[0]].tobytes()
        piece = pieces[kind]
        if not (before - after == len(piece)).all():
            return False
        if piece and not (sliding_window_view(buf, len(piece))[after] == np.frombuffer(piece, np.uint8)).all():
            return False
    return True


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
    one.  It is read a block of :data:`_PACKAGE_BLOCK` bytes at a time, cut
    just after a ``}`` so that no number is cut, into columns of one row
    per ``}``.  Its layout is the bytes before the first id, after the last
    rho, and between an id and its reward, a reward and its rho, and a rho
    and the next id, each the same throughout the array; two packages of
    zeros in that layout must parse as such."""
    end = data.find(b"]", pos) + 1
    if not end:
        return None
    span = buf[pos:end]  # counted in blocks: numpy counts faster than bytes.count
    rows = sum(int(np.count_nonzero(span[at:at + _PACKAGE_BLOCK] == ord("}")))
               for at in range(0, span.size, _PACKAGE_BLOCK))
    columns = np.empty(rows, np.int64), np.empty(rows), np.empty(rows)
    # Before the first id; from an id to its reward, from a reward to its
    # rho, from a rho to the next id.
    pieces = [None] * 4
    row, last, at = 0, pos, pos
    while at < end:
        cut = data.find(b"}", at + _PACKAGE_BLOCK, end) + 1 or end
        starts, ends = _numbers(buf[at:cut])
        count, extra = divmod(starts.size, 3)
        if extra or row + count > rows:
            return None
        if count:
            starts += at
            ends += at
            if not _layout(buf, starts, ends, last, pieces):
                return None
            for k, read in enumerate((_integers, _floats, _floats)):
                values = read(buf, starts[k::3], ends[k::3])
                if values is None:
                    return None
                columns[k][row:row + count] = values
            row += count
            last = int(ends[-1])
        del starts, ends  # before the next block's masks
        at = cut
    if row != rows:
        return None
    head, id_reward, reward_rho, rho_id = pieces
    layout = [head, id_reward, reward_rho] if row else []
    if row > 1:  # two packages, to put the gap from a rho to the next id between numbers
        layout += [rho_id, id_reward, reward_rho]
    if not _parses_as(layout + [data[last:end]], [_PACKAGE] * min(row, 2)):
        return None
    return PackageRecords(PackageTable(*columns)), end


#: 10**k for k = 0..18, each an exact double, and its halves by Veltkamp's
#: splitter, for Dekker's exact product.
_POW10 = np.array([float(10**k) for k in range(19)])
_SPLITTER = 134217729.0  # 2**27 + 1
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _integers(span: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """The integers whose tokens are ``span[starts[i]:ends[i]]``, as int64;
    None unless each is a JSON integer of at most 18 digits."""
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


def _floats(span: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """The numbers whose tokens are ``span[starts[i]:ends[i]]``, as float64
    as ``json`` and numpy convert them; None if any token is not a JSON
    number.  Integer tokens and decimals without an exponent are read in
    bulk; the rest, and any whose double the bulk path cannot prove, one at
    a time."""
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
