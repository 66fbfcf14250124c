"""Bit-packed binary codes and popcount Hamming distances.

In memory a code matrix is an ``(r, n)`` integer array over {-1, +1} with
one column per sample. Packed form stores each column as ``ceil(r / 8)``
bytes, LSB-first: bit ``i`` of a column sits at byte ``i // 8``, bit
``i % 8``, with +1 mapped to 1 and -1 to 0. Padding bits are zero on both
sides of a comparison, so packed distances are exact.

The packed ``(ceil(r/8), n)`` matrix is item-major: it is the transpose of a
C-order ``(n, ceil(r/8))`` array, so each code's bytes are contiguous, as in
a code file. Ranking reads those bytes as ``(n, k)`` machine words without a
copy (see :func:`_words`).

A code matrix read from a file is a :class:`CodeMatrix`: a read-only int8
``(r, n)`` array whose ``packed`` attribute holds the ``(ceil(r/8), n)``
bytes it was unpacked from. :func:`pack_codes` returns those bytes instead
of validating and packing the matrix again, so ranking a stored database
never repacks it. Every array derived from a ``CodeMatrix`` (a slice, a
copy, a ufunc result, ``np.array(...)``) carries ``packed = None`` and is
packed from scratch.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidParameterError, ShapeError


class CodeMatrix(np.ndarray):
    """Read-only int8 ``(r, n)`` code matrix that carries its packed bytes.

    ``packed`` is the read-only item-major ``(ceil(r/8), n)`` uint8 form of
    the matrix with zero padding bits, or None on any array derived from it.
    """

    packed: np.ndarray | None

    def __array_finalize__(self, obj) -> None:
        self.packed = None


def _code_matrix(packed: np.ndarray, code_length: int) -> CodeMatrix:
    """Unpack validated bytes into a read-only :class:`CodeMatrix` carrying them."""
    out = unpack_codes(packed, code_length).view(CodeMatrix)
    for arr in (out, packed):
        while isinstance(arr, np.ndarray):  # a view of a read-only base cannot be unlocked
            arr.flags.writeable = False
            arr = arr.base
    out.packed = packed
    return out


def sign_to_pm1(values) -> np.ndarray:
    """Elementwise sign with the deterministic tie rule sign(0) = +1.

    The comparison's boolean mask becomes the int8 result in place, so no
    other array of the input's size is built.
    """
    arr = np.asarray(values)
    codes = np.asarray(arr >= 0).view(np.int8)  # a 0-d input compares to a scalar
    codes += codes  # 2 or 0
    codes -= 1
    return codes


def _require_pm1(arr: np.ndarray) -> None:
    if not np.all(np.abs(arr) == 1):
        raise InvalidParameterError("code entries must be -1 or +1")


def pack_codes(codes) -> np.ndarray:
    """Pack an ``(r, n)`` matrix over {-1, +1} into item-major ``(ceil(r/8), n)`` uint8.

    A :class:`CodeMatrix` that carries its packed bytes returns them as they
    are (read-only); any other input is validated and packed.
    """
    if isinstance(codes, CodeMatrix) and codes.packed is not None:
        return codes.packed
    arr = np.asarray(codes)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d code matrix, got shape {arr.shape}")
    _require_pm1(arr)
    return np.packbits(np.ascontiguousarray(arr.T) > 0, axis=1, bitorder="little").T


def _words(packed: np.ndarray) -> np.ndarray:
    """View item-major packed codes as ``(n, k)`` unsigned machine words.

    The word is the widest of 8, 4, 2 or 1 bytes that divides ``ceil(r/8)``,
    so the view covers each code exactly and copies nothing when
    ``packed.T`` is C-contiguous, as it is for every :func:`pack_codes`
    result. Popcounts of XORed words do not depend on byte order.
    """
    size = next(size for size in (8, 4, 2, 1) if packed.shape[0] % size == 0)
    return np.ascontiguousarray(packed.T).view(np.dtype(f"u{size}"))


def unpack_codes(packed, code_length: int) -> np.ndarray:
    """Inverse of :func:`pack_codes` for a known code length."""
    arr = np.asarray(packed, dtype=np.uint8)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d packed matrix, got shape {arr.shape}")
    if code_length < 1 or arr.shape[0] != (code_length + 7) // 8:
        raise ShapeError(
            f"{arr.shape[0]} packed rows cannot hold {code_length} code bits"
        )
    codes = np.unpackbits(arr, axis=0, count=code_length, bitorder="little").view(np.int8)
    codes *= 2  # bits 0/1 become -1/+1 in place, without a wider temporary
    codes -= 1
    return codes


def packed_hamming(query, database) -> np.ndarray:
    """Hamming distances between one packed column and every packed column.

    ``query`` is the ``(bytes,)`` packed form of a single code, ``database``
    the ``(bytes, n)`` packed form of ``n`` codes with the same length.
    """
    q = np.asarray(query, dtype=np.uint8)
    db = np.asarray(database, dtype=np.uint8)
    if q.ndim != 1 or db.ndim != 2 or q.shape[0] != db.shape[0]:
        raise ShapeError(
            f"packed shapes {q.shape} and {db.shape} are not comparable"
        )
    xored = np.bitwise_xor(db, q[:, None])
    return np.bitwise_count(xored).sum(axis=0, dtype=np.int64)
