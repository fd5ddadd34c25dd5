import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avsol import tensor as T
from avsol.binfile import FormatError, Reader, Writer

NAMES_AN_OFFSET = re.compile(r" at byte \d+")


class TestContainer:
    def write(self, path, *fields):
        with Writer(path, b"TEST", 3) as out:
            for method, *args in fields:
                getattr(out, method)(*args)

    def test_round_trip_of_every_field_kind(self, tmp_path):
        path = tmp_path / "f.bin"
        values = np.arange(6, dtype=np.float64).reshape(2, 3) / 7
        self.write(path, ("pack", "IHB", 70000, 2, 3), ("text", "héllo"),
                   ("array", values, "<f8"))
        reader = Reader(path, b"TEST", 3, "test file")
        assert reader.unpack("IHB") == (70000, 2, 3)
        assert reader.text("name") == "héllo"
        assert np.array_equal(reader.array("<f8", (2, 3), "value"), values)
        reader.end("the values")

    def test_foreign_magic_and_other_version(self, tmp_path):
        path = tmp_path / "f.bin"
        self.write(path)
        with pytest.raises(FormatError, match=r"not a x file: b'TEST' at byte 0"):
            Reader(path, b"XXXX", 3, "x file")
        with pytest.raises(FormatError, match="unsupported x file version 3 at byte 4"):
            Reader(path, b"TEST", 4, "x file")

    def test_sizes_are_python_ints(self, tmp_path):
        # int64 arithmetic would wrap 65535**4 * 4 to a small or negative size
        path = tmp_path / "f.bin"
        self.write(path, ("pack", "4H", *(65535,) * 4))
        reader = Reader(path, b"TEST", 3, "test file")
        shape = reader.unpack("4H")
        with pytest.raises(FormatError, match=f"truncated at byte 14: {4 * 65535 ** 4} bytes"):
            reader.array("<f4", shape, "value")

    def test_value_that_does_not_fit_its_field(self, tmp_path):
        path = tmp_path / "f.bin"
        with pytest.raises(FormatError, match=f"{path}: cannot store \\(70000,\\) as 'H'"):
            self.write(path, ("pack", "H", 70000))
        with pytest.raises(FormatError, match="cannot store"):
            self.write(path, ("text", "x" * 70000))


def small_checkpoint(root):
    rng = np.random.default_rng(5)
    path = Path(root) / "ck.avwt"
    T.save_checkpoint(path, [T.Parameter("a_conv1_w", rng.normal(size=(2, 3))),
                             T.Parameter("a_conv2_w", rng.normal(size=(3,))),
                             T.Parameter("scale", np.array(2.0))])
    return path


class TestCheckpointDefects:
    """Every defect of a checkpoint raises FormatError naming the file and a byte offset."""

    def assert_format_error(self, path):
        with pytest.raises(FormatError) as info:
            T.load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")
        assert NAMES_AN_OFFSET.search(str(info.value))

    def test_intact_file_loads(self, tmp_path):
        state = T.load_checkpoint(small_checkpoint(tmp_path))
        assert list(state) == ["a_conv1_w", "a_conv2_w", "scale"]
        assert state["scale"].shape == ()
        assert state["a_conv1_w"].flags.writeable

    def test_every_truncation(self, tmp_path):
        path = small_checkpoint(tmp_path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            self.assert_format_error(path)

    @settings(max_examples=50, deadline=None)
    @given(tail=st.binary(min_size=1, max_size=64))
    def test_appended_bytes(self, tail):
        with tempfile.TemporaryDirectory() as root:
            path = small_checkpoint(root)
            path.write_bytes(path.read_bytes() + tail)
            self.assert_format_error(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_byte_flips(self, data):
        with tempfile.TemporaryDirectory() as root:
            path = small_checkpoint(root)
            blob = bytearray(path.read_bytes())
            at = data.draw(st.integers(0, len(blob) - 1))
            blob[at] ^= data.draw(st.integers(1, 255))
            path.write_bytes(bytes(blob))
            try:
                T.load_checkpoint(path)  # a flipped name byte or value may still be valid
            except FormatError as exc:
                assert str(exc).startswith(f"{path}: ")
                assert NAMES_AN_OFFSET.search(str(exc))
