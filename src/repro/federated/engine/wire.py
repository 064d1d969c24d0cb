"""Array messages: pool payloads as a JSON skeleton plus raw array segments.

The commands and replies of a training round are built from a closed set of
types — ``dict`` / ``list`` / ``tuple`` / ``numpy.ndarray`` / ``str`` /
``int`` / ``float`` / ``bool`` / ``None``, the set
:func:`~repro.federated.engine.faults.payload_checksum` walks.  Such a
message needs no pickle: its *shape* is a small JSON tree and its *bulk* is
the arrays' own memory.  One message is laid out as::

    u32 head length | head | pad to 64 | segment | pad to 64 | segment ...

``head`` is the JSON text ``[tree, table]``.  In ``tree`` scalars stand for
themselves and every container is a tagged JSON array — ``["l", ...]`` list,
``["t", ...]`` tuple, ``["d", key, value, ...]`` dict (keys of any scalar or
tuple type, in order), ``["a", i]`` the ``i``-th array.  ``table[i]`` is
``[dtype.str, shape, offset]`` with ``offset`` counted from the first
segment.  :func:`encode_message` returns the pieces without joining them, so
a socket can write the arrays from where they lie; :func:`decode_message`
returns arrays that are *views* into the payload buffer.

Only exact types are accepted (a ``numpy.float64`` is not a ``float`` here),
so what :func:`decode_message` returns is what ``pickle`` would have
round-tripped; anything else makes :func:`encode_message` return ``None``
and the caller falls back to a pickled control frame.
"""

from __future__ import annotations

import json
import struct
import zlib
from math import prod
from typing import List, Optional, Tuple

import numpy as np

#: segments start on multiples of this, counted from the payload's start
ALIGN = 64
_PAD = bytes(ALIGN)
_LENGTH = struct.Struct("!I")
_SCALARS = frozenset((type(None), bool, int, float, str))
#: array kinds that are plain memory: bool, ints, floats, complex
_KINDS = "biufc"


class _Unsupported(Exception):
    """The object holds a type outside the closed set."""


def _skeleton(obj, arrays: List[np.ndarray]):
    kind = type(obj)
    if kind in _SCALARS:
        return obj
    if kind is np.ndarray:
        if obj.dtype.kind not in _KINDS:
            raise _Unsupported
        arrays.append(obj)
        return ["a", len(arrays) - 1]
    if kind is list or kind is tuple:
        return ["l" if kind is list else "t",
                *[_skeleton(item, arrays) for item in obj]]
    if kind is dict:
        node = ["d"]
        for key, value in obj.items():
            node.append(_skeleton(key, arrays))
            node.append(_skeleton(value, arrays))
        return node
    raise _Unsupported


def encode_message(obj) -> Optional[Tuple[list, int, int]]:
    """``(pieces, nbytes, crc32)`` of ``obj``, or ``None`` outside the set.

    ``pieces`` are buffers whose concatenation is the payload; the array
    pieces are the arrays' own memory (a non-contiguous array is copied
    once), so they must not change until the payload has been delivered.
    """
    arrays: List[np.ndarray] = []
    try:
        tree = _skeleton(obj, arrays)
    except _Unsupported:
        return None
    table, segments, offset = [], [], 0
    for array in arrays:
        pad = -offset % ALIGN
        if pad:
            segments.append(_PAD[:pad])
        table.append([array.dtype.str, list(array.shape), offset + pad])
        if array.size:
            segments.append(
                np.ascontiguousarray(array).reshape(-1).view(np.uint8))
        offset += pad + array.nbytes
    head = json.dumps([tree, table], separators=(",", ":")).encode()
    pieces = [_LENGTH.pack(len(head)), head]
    if table:
        pieces.append(_PAD[:-(_LENGTH.size + len(head)) % ALIGN])
        pieces.extend(segments)
    crc = nbytes = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
        nbytes += len(piece)
    return pieces, nbytes, crc


def _rebuild(node, arrays: List[np.ndarray]):
    kind = type(node)
    if kind is not list:
        if kind is dict:
            raise ValueError("JSON object in a message tree")
        return node
    tag, items = node[0], node[1:]
    if tag == "a":
        (index,) = items
        if type(index) is not int or index < 0:
            raise ValueError(f"array reference {index!r}")
        return arrays[index]
    if tag == "l":
        return [_rebuild(item, arrays) for item in items]
    if tag == "t":
        return tuple(_rebuild(item, arrays) for item in items)
    if tag == "d":
        if len(items) % 2:
            raise ValueError("dict node with a key and no value")
        return {_rebuild(key, arrays): _rebuild(value, arrays)
                for key, value in zip(items[::2], items[1::2])}
    raise ValueError(f"unknown node tag {tag!r}")


def decode_message(payload):
    """Invert :func:`encode_message`; arrays are views into ``payload``.

    ``payload`` is any buffer (a writable one gives writable arrays).  Every
    table entry is checked before a view is taken: a plain dtype, a
    non-negative shape, and a byte range that lies inside the payload and
    after the previous array's — no view can reach past its segment or into
    another's.  Raises :class:`ValueError` on anything malformed.
    """
    buffer = payload if isinstance(payload, np.ndarray) \
        else np.frombuffer(payload, dtype=np.uint8)
    try:
        (head_len,) = _LENGTH.unpack(buffer[:_LENGTH.size])
        start = _LENGTH.size + head_len
        if start > buffer.size:
            raise ValueError(f"head of {head_len} bytes in a payload of "
                             f"{buffer.size}")
        tree, table = json.loads(buffer[_LENGTH.size:start].tobytes())
        start += -start % ALIGN
        arrays, floor = [], 0
        for dtype_str, shape, offset in table:
            if type(dtype_str) is not str or len(dtype_str) > 8:
                raise ValueError(f"dtype {dtype_str!r}")
            dtype = np.dtype(dtype_str)
            if dtype.kind not in _KINDS or type(offset) is not int or any(
                    type(dim) is not int or dim < 0 for dim in shape):
                raise ValueError(
                    f"array entry {[dtype_str, shape, offset]!r}")
            end = offset + prod(shape) * dtype.itemsize
            if offset < floor or start + end > buffer.size:
                raise ValueError(
                    f"array bytes [{offset}, {end}) outside its segment "
                    f"(previous array ends at {floor}, segments hold "
                    f"{max(0, buffer.size - start)})")
            arrays.append(buffer[start + offset:start + end]
                          .view(dtype).reshape(shape))
            floor = end
        return _rebuild(tree, arrays)
    except (ValueError, TypeError, KeyError, IndexError, OverflowError,
            RecursionError, struct.error) as error:
        raise ValueError(f"malformed array message: {error}") from error
