"""Tests for the page format and codec."""

import io
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import CorruptPageError, Page, PageCodec


def make_page(**columns):
    return Page(page_id=3, start_row=384, columns=columns)


class TestPage:
    def test_row_counts(self):
        page = make_page(a=np.arange(10.0), b=np.arange(10))
        assert page.num_rows == 10
        assert page.end_row == 394

    def test_empty_page(self):
        page = Page(page_id=0, start_row=0, columns={})
        assert page.num_rows == 0

    def test_row_ids_global(self):
        page = make_page(a=np.arange(4.0))
        assert page.row_ids().tolist() == [384, 385, 386, 387]

    def test_slice(self):
        page = make_page(a=np.arange(10.0))
        view = page.slice(2, 5)
        assert view["a"].tolist() == [2.0, 3.0, 4.0]

    def test_nbytes_positive(self):
        page = make_page(a=np.arange(10.0))
        assert page.nbytes() == 80


class TestPageCodec:
    def test_roundtrip_mixed_dtypes(self):
        rng = np.random.default_rng(0)
        page = make_page(
            floats=rng.normal(size=100),
            ints=rng.integers(0, 1000, 100),
            small=rng.integers(0, 100, 100).astype(np.int32),
            blobs=np.array([b"x" * 8] * 100, dtype="S8"),
        )
        decoded = PageCodec.decode(PageCodec.encode(page))
        assert decoded.page_id == page.page_id
        assert decoded.start_row == page.start_row
        for name, arr in page.columns.items():
            assert decoded.columns[name].dtype == arr.dtype
            assert np.array_equal(decoded.columns[name], arr)

    def test_rejects_object_dtype(self):
        page = make_page(bad=np.array([object()]))
        with pytest.raises(TypeError):
            PageCodec.encode(page)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            PageCodec.decode(b"NOPE" + b"\x00" * 40)

    def test_decoded_arrays_are_read_only_views(self):
        page = make_page(a=np.arange(5.0))
        decoded = PageCodec.decode(PageCodec.encode(page))
        assert not decoded.columns["a"].flags.writeable
        assert not decoded.columns["a"].flags.owndata
        with pytest.raises(ValueError):
            decoded.columns["a"][0] = 99.0

    def test_empty_columns_roundtrip(self):
        page = make_page(a=np.empty(0, dtype=np.float64))
        decoded = PageCodec.decode(PageCodec.encode(page))
        assert decoded.num_rows == 0
        assert decoded.columns["a"].dtype == np.float64


# -- the layout-cached decoder against the parse-every-page one -------------


def _reference_decode(data: bytes) -> Page:
    """The decoder the layout cache replaced: parse every descriptor, copy."""
    magic = data[:4]
    if magic == b"RPG2":
        body = data[8:]
        assert zlib.crc32(body) == struct.unpack("<I", data[4:8])[0]
    elif magic == b"RPGZ":
        assert zlib.crc32(data[8:]) == struct.unpack("<I", data[4:8])[0]
        body = zlib.decompress(data[8:])
    else:
        assert magic == b"RPG1"
        body = data[4:]
    buf = io.BytesIO(body)
    page_id, start_row, ncols = struct.unpack("<qqi", buf.read(20))
    columns = {}
    for _ in range(ncols):
        (name_len,) = struct.unpack("<i", buf.read(4))
        name = buf.read(name_len).decode("utf-8")
        (dtype_len,) = struct.unpack("<i", buf.read(4))
        dtype = np.dtype(buf.read(dtype_len).decode("ascii"))
        nrows, nbytes = struct.unpack("<qq", buf.read(16))
        arr = np.frombuffer(buf.read(nbytes), dtype=dtype).copy()
        assert len(arr) == nrows
        columns[name] = arr
    return Page(page_id=page_id, start_row=start_row, columns=columns)


DTYPES = ["<f8", "<f4", "i1", "<i8", ">f8", "S8"]


def _column(rng: np.random.Generator, dtype: str, rows: int) -> np.ndarray:
    if dtype == "S8":
        return rng.integers(0, 256, (rows, 8), dtype=np.uint8).view("S8").ravel()
    if dtype == "i1":
        return rng.integers(-128, 128, rows).astype(dtype)
    if dtype == "<i8":
        return rng.integers(-(2**62), 2**62, rows).astype(dtype)
    return rng.normal(size=rows).astype(dtype)


def _page(schema, rows: int, seed: int, page_id: int = 7, compress: bool = False) -> Page:
    rng = np.random.default_rng(seed)
    return Page(
        page_id=page_id,
        start_row=page_id * 64,
        columns={name: _column(rng, dtype, rows) for name, dtype in schema},
        compress=compress,
    )


def _legacy(data: bytes) -> bytes:
    """An ``RPG2`` encoding re-framed as a pre-checksum ``RPG1`` page."""
    assert data[:4] == b"RPG2"
    return b"RPG1" + data[8:]


def _assert_decodes_like_reference(data: bytes) -> Page:
    decoded = PageCodec.decode(data)
    expected = _reference_decode(data)
    assert (decoded.page_id, decoded.start_row) == (expected.page_id, expected.start_row)
    assert list(decoded.columns) == list(expected.columns)
    for name, arr in expected.columns.items():
        got = decoded.columns[name]
        assert got.dtype == arr.dtype
        assert got.tobytes() == arr.tobytes()
        assert got.flags.writeable is False
    return decoded


_schemas = st.lists(
    st.tuples(st.text("abcxyz_", min_size=1, max_size=6), st.sampled_from(DTYPES)),
    min_size=1,
    max_size=5,
    unique_by=lambda column: column[0],
)


class TestLayoutCachedDecode:
    @settings(max_examples=60, deadline=None)
    @given(
        schema=_schemas,
        rows=st.sampled_from([0, 1, 5, 64]),
        short=st.integers(1, 63),
        seed=st.integers(0, 2**16),
        framing=st.sampled_from(["RPG2", "RPGZ", "RPG1"]),
    )
    def test_matches_reference_decoder(self, schema, rows, short, seed, framing):
        # A full page, a short last page, the full shape again: the
        # second full page decodes over the layout the first one cached.
        for n, s in ((rows, seed), (min(short, rows), seed + 1), (rows, seed + 2)):
            page = _page(schema, n, s, compress=framing == "RPGZ")
            data = PageCodec.encode(page)
            if framing == "RPG1":
                data = _legacy(data)
            decoded = _assert_decodes_like_reference(data)
            assert decoded.compress == (framing == "RPGZ")
            for name, arr in page.columns.items():
                assert decoded.columns[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize(
        "first, second",
        [
            ([("ab", "<f8")], [("ba", "<f8")]),  # same length, other name
            ([("a", "<f8")], [("a", ">f8")]),  # same length, other byte order
            ([("a", "<f8")], [("a", "<i8")]),  # same length, other kind
            ([("a", "<f8"), ("b", "i1")], [("a", "i1"), ("b", "<f8")]),
        ],
    )
    def test_equal_length_schemas_never_share_a_layout(self, first, second):
        pages = [_page(first, 16, 1), _page(second, 16, 2)]
        blobs = [PageCodec.encode(page) for page in pages]
        assert len(blobs[0]) == len(blobs[1])
        for framed in (blobs, [_legacy(b) for b in blobs]):
            for _ in range(3):  # interleaved: each decode follows the other schema
                for page, data in zip(pages, framed):
                    decoded = _assert_decodes_like_reference(data)
                    assert list(decoded.columns) == list(page.columns)
                    for name, arr in page.columns.items():
                        assert decoded.columns[name].dtype == arr.dtype
                        assert decoded.columns[name].tobytes() == arr.tobytes()

    def test_flipped_byte_anywhere_raises(self):
        page = _page([("mag", "<f8"), ("oid", "<i8")], 8, 3)
        data = PageCodec.encode(page)
        PageCodec.decode(data)  # caches this shape's layout
        header, descriptor, payload = 10, 8 + 20 + 2, len(data) - 3
        for at in (0, 5, header, descriptor, payload):
            torn = bytearray(data)
            torn[at] ^= 0xFF
            with pytest.raises(CorruptPageError):
                PageCodec.decode(bytes(torn))

    @pytest.mark.parametrize("field", ["name_len", "dtype", "rows", "nbytes"])
    def test_corrupt_legacy_descriptor_raises_over_a_cached_layout(self, field):
        # No CRC to catch it: the descriptor check must.
        page = _page([("mag", "<f8"), ("oid", "<i8")], 8, 3)
        data = _legacy(PageCodec.encode(page))
        PageCodec.decode(data)
        first = 4 + 20  # first column's descriptor, after magic and header
        at = {
            "name_len": first,
            "dtype": first + 4 + 3 + 4 + 1,  # the "f" of "<f8"
            "rows": first + 4 + 3 + 4 + 3,
            "nbytes": first + 4 + 3 + 4 + 3 + 8,
        }[field]
        torn = bytearray(data)
        torn[at] ^= 0x7F
        with pytest.raises(CorruptPageError):
            PageCodec.decode(bytes(torn))

    def test_trailing_bytes_after_the_layout_raise(self):
        data = _legacy(PageCodec.encode(_page([("a", "<f8")], 4, 0)))
        with pytest.raises(CorruptPageError):
            PageCodec.decode(data + b"\x00" * 8)
