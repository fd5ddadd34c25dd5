"""The one little-endian container of clip, heatmap and checkpoint files: a
4-byte magic, a u16 version, then fixed-width integers, u16-length UTF-8 text
and float arrays in the format's order. A defect (short or overlong file,
non-finite float, bad text) raises FormatError naming the file and byte offset.
"""
from __future__ import annotations

import functools
import io
import math
import struct

import numpy as np


class FormatError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _struct(fmt):
    return struct.Struct("<" + fmt)


class Writer(io.BufferedWriter):
    """A file written field by field; use it as a context manager."""

    def __init__(self, path, magic, version):
        super().__init__(io.FileIO(path, "wb"))
        self.write(magic)
        self.pack("H", version)

    def pack(self, fmt, *values):
        try:
            self.write(_struct(fmt).pack(*values))
        except struct.error as exc:
            raise FormatError(f"{self.name}: cannot store {values} as {fmt!r}: {exc}") from None

    def text(self, value: str):
        raw = value.encode("utf-8")
        self.pack("H", len(raw))
        self.write(raw)

    def array(self, values, dtype):
        self.write(np.ascontiguousarray(values, dtype=dtype).tobytes())


class Reader:
    """Reads one file field by field; `kind` names the format in errors."""

    def __init__(self, path, magic, version, kind):
        with open(path, "rb") as fh:
            self._raw = fh.read()
        self.path, self.offset = path, 4
        if self._raw[:4] != magic:
            raise FormatError(f"{path}: not a {kind}: {self._raw[:4]!r} at byte 0, "
                              f"expected {magic!r}")
        (found,) = self.unpack("H")
        if found != version:
            raise FormatError(f"{path}: unsupported {kind} version {found} at byte 4")

    def _take(self, size):
        start, left = self.offset, len(self._raw) - self.offset
        if left < size:
            raise FormatError(f"{self.path}: truncated at byte {start}: "
                              f"{size} bytes needed, {left} left")
        self.offset += size
        return start

    def unpack(self, fmt) -> tuple:
        layout = _struct(fmt)
        return layout.unpack_from(self._raw, self._take(layout.size))

    def text(self, what) -> str:
        (size,) = self.unpack("H")
        start = self._take(size)
        try:
            return self._raw[start:start + size].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: {what} at byte {start} is not UTF-8") from None

    def array(self, dtype, shape, what) -> np.ndarray:
        """A float64 copy of `shape` finite values; `what` names one in errors."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)  # a Python int: large dims cannot wrap around
        start = self._take(count * dtype.itemsize)
        values = np.frombuffer(self._raw, dtype=dtype, count=count, offset=start)
        finite = np.isfinite(values)
        if not finite.all():
            at = start + dtype.itemsize * int(np.argmin(finite))
            raise FormatError(f"{self.path}: non-finite {what} at byte {at}")
        try:  # numpy refuses too many axes, or empty shapes whose other axes overflow
            return values.reshape(shape).astype(np.float64)
        except ValueError:
            raise FormatError(f"{self.path}: unsupported {len(shape)}-axis shape "
                              f"of the {what} at byte {start}") from None

    def end(self, after):
        """Require the whole file to be consumed; `after` names its last part."""
        if self.offset != len(self._raw):
            raise FormatError(f"{self.path}: {len(self._raw) - self.offset} unexpected "
                              f"bytes after {after}, at byte {self.offset}")
