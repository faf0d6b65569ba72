"""The reader of an instance document's ``per_epoch_packages`` array, for
:func:`docscan.read_instance`, in memory that grows with the ids only by
their int64 column.

``docscan`` imports this module only for a document that holds catalogs,
so a command on an instance without them never compiles it.
"""

from __future__ import annotations

import re

import numpy as np

from .docscan import (
    _CLOSE,
    _MAX_TOKEN,
    _OPEN,
    _WHITESPACE,
    _holds,
    _integer_block,
    _layout,
    _number_bytes,
    _parses_as,
    _without_keys,
)

__all__ = ["read_catalogs"]

#: The end of a list of lists: a close bracket, then the next one.
_LISTS_END = re.compile(rb"\][ \t\n\r]*\]")

#: Bytes of a catalog span read per pass of :func:`read_catalogs`.  An id
#: takes two bytes at least, with its comma, so a pass reads at most about
#: half as many ids, and its temporaries stay within a fixed size.
_CATALOG_BLOCK = 1 << 15


def read_catalogs(data: bytes, buf: np.ndarray, pos: int):
    """The ``per_epoch_packages`` array at ``pos`` as a list of int64
    arrays, and the position after it; None unless it is a list of lists
    of integers, all laid out alike.

    The span runs to the first ``]`` that follows a ``]``, and its other
    brackets must open and close one list after another.  Its layout is
    the bytes before the first list, from a list's ``[`` to its first id,
    between two ids, from a list's last id to its ``]``, of an empty list,
    between two lists, and after the last list.  A list of each length
    that the span holds (two or more ids, one, none), or two lists if it
    holds several of one length, must parse as such in that layout.

    The ids are read a block of the span at a time (:func:`_number_blocks`)
    into one int64 column.  Each block checks that its ids lie inside their
    lists' brackets and that the gaps between two ids of a list, the one
    from the previous block's last id included, hold the same bytes; it
    keeps of its ids only the per-list counts and the first id's start and
    the last id's end of each list, for the other kinds of gap.  So the
    memory that grows with the ids is the column alone."""
    empty = _WHITESPACE.match(data, pos + 1).end()
    if data[empty:empty + 1] == b"]":
        return [], empty + 1
    found = _LISTS_END.search(data, pos)
    if found is None:
        return None
    span = buf[pos:found.end()]
    # Without the outer "[" and "]".
    opens, closes = _positions(span, _OPEN)[1:], _positions(span, _CLOSE)[:-1]
    lists = opens.size
    if not lists or closes.size != lists or not ((opens < closes).all() and (closes[:-1] < opens[1:]).all()):
        return None
    # Two ids of a list that parses have a comma between them, so the ids
    # are at most the commas plus the lists; more, and the span is declined.
    ids = np.empty(data.count(b",", pos, found.end()) + lists, np.int64)
    sizes = np.zeros(lists, np.intp)
    first_start, last_end = np.zeros(lists, np.intp), np.zeros(lists, np.intp)
    between = None  # the bytes between two ids of a list
    count, owner_before, end_before = 0, -1, 0  # the ids read, and the list and end of the last one
    for runs in _number_blocks(span):
        if runs is None:
            return None
        starts, ends = runs
        if not starts.size:
            continue
        owner = np.searchsorted(opens, starts) - 1  # the list of each id
        if owner[0] < 0 or (ends > closes[owner]).any():
            return None
        same = owner[1:] == owner[:-1]
        change = np.flatnonzero(~same)
        firsts, lasts = np.concatenate(([0], change + 1)), np.concatenate((change, [owner.size - 1]))
        sizes[owner[firsts]] += lasts - firsts + 1
        continued = owner[0] == owner_before  # the block's first list began in an earlier block
        begun = firsts[1:] if continued else firsts
        first_start[owner[begun]] = starts[begun]
        last_end[owner[lasts]] = ends[lasts]
        # The gaps between two ids of a list, the one from the previous block's last id included.
        after, before = ends[:-1][same], starts[1:][same]
        if continued:
            after, before = np.concatenate(([end_before], after)), np.concatenate(([starts[0]], before))
        if after.size:
            if between is None:
                between = span[after[0]:before[0]].tobytes()
            if not _holds(span, after, before, between):
                return None
        owner_before, end_before = owner[-1], ends[-1]
        block = _integer_block(span, starts, ends)
        if block is None or count + block.size > ids.size:
            return None
        ids[count:count + block.size] = block
        count += block.size
    full, none = np.flatnonzero(sizes), np.flatnonzero(sizes == 0)
    kinds = {
        "head": (np.zeros(1, np.intp), opens[:1]),
        "open": (opens[full], first_start[full]),
        "close": (last_end[full], closes[full] + 1),
        "empty": (opens[none], closes[none] + 1),
        "next": (closes[:-1] + 1, opens[1:]),
        "tail": (closes[-1:] + 1, np.full(1, span.size)),
    }
    kinds = {kind: gaps for kind, gaps in kinds.items() if gaps[0].size}
    pieces = _layout(span, list(kinds.values()))
    if pieces is None:
        return None
    piece = dict(zip(kinds, pieces))
    if between is not None:
        piece["between"] = between
    shown = [size for size in (2, 1, 0) if (np.minimum(sizes, 2) == size).any()]
    if lists > 1 and len(shown) == 1:
        shown *= 2
    text = {2: piece.get("open", b"") + b"0" + piece.get("between", b"") + b"0" + piece.get("close", b""),
            1: piece.get("open", b"") + b"0" + piece.get("close", b""),
            0: piece.get("empty", b"")}
    shown_text = piece["head"] + piece.get("next", b"").join(text[size] for size in shown) + piece["tail"]
    if not _parses_as([shown_text], [[0] * size for size in shown]):
        return None
    ids = ids[:count]
    ids.flags.writeable = False  # so that Instance keeps each catalog without a copy
    return np.split(ids, np.cumsum(sizes)[:-1]), pos + len(span)


def _positions(span: np.ndarray, byte: int) -> np.ndarray:
    """Where ``span`` holds ``byte``, found a block at a time."""
    return np.concatenate([np.flatnonzero(span[at:at + _CATALOG_BLOCK] == byte) + at
                           for at in range(0, span.size, _CATALOG_BLOCK)])


def _number_blocks(span: np.ndarray):
    """:func:`docscan._numbers` of ``span``, a block of
    :data:`_CATALOG_BLOCK` bytes at a time: for each block, its runs'
    starts and ends, where a run that crosses the block's end is read whole
    with its block.  A run that does not end within :data:`_MAX_TOKEN`
    bytes of the block's end yields None, and the blocks stop: ``docscan``
    declines a token that long, and a run that starts with ``e`` is in no
    layout that :func:`docscan._parses_as` accepts."""
    at = 0
    while at < span.size:
        stop = at + _CATALOG_BLOCK
        number = _number_bytes(span[at:stop + _MAX_TOKEN + 1])
        edges = np.flatnonzero(number[1:] != number[:-1])
        edges += at + 1
        if number[0]:
            edges = np.concatenate(([at], edges))
        starts, ends = edges[0::2], edges[1::2]
        taken = int(np.searchsorted(starts, stop))  # the runs that start in the block
        if taken > ends.size:
            yield None
            return
        starts, ends = starts[:taken], ends[:taken]
        yield _without_keys(span, starts, ends)
        at = max(stop, int(ends[-1])) if taken else stop
