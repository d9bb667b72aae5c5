"""Fuzz tests for the loaders: arbitrary structured garbage, and every
malformed packed snapshot, must raise a clean ValueError (or json
error), never crash oddly or return corrupt objects."""

import gzip
import json
import os
import struct
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CAFCConfig
from repro.core.form_page import FormPage
from repro.datasets import load_dataset, load_result
from repro.service import snapshot as snapshot_module
from repro.service.snapshot import Snapshot, _layout, snapshot_info
from repro.vsm.vector import SparseVector

json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=10), inner, max_size=4),
    ),
    max_leaves=12,
)


def _write_payload(payload) -> str:
    handle = tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False, encoding="utf-8"
    )
    with handle:
        json.dump(payload, handle)
    return handle.name


class TestLoaderFuzz:
    @settings(max_examples=40, deadline=None)
    @given(json_values)
    def test_load_dataset_rejects_garbage_cleanly(self, payload):
        path = _write_payload(payload)
        try:
            try:
                pages = load_dataset(path)
            except ValueError:
                return  # clean rejection
            # Acceptance is only possible for a well-formed payload.
            assert isinstance(pages, list)
            for page in pages:
                assert isinstance(page.url, str)
                assert isinstance(page.html, str)
        finally:
            os.unlink(path)

    @settings(max_examples=40, deadline=None)
    @given(json_values)
    def test_load_result_rejects_garbage_cleanly(self, payload):
        path = _write_payload(payload)
        try:
            try:
                result = load_result(path)
            except ValueError:
                return
            assert result.n_clusters >= 0
        finally:
            os.unlink(path)

    @settings(max_examples=60, deadline=None)
    @given(json_values, json_values)
    def test_json_snapshot_rejects_garbage_cleanly(self, clusters, config):
        """The version-1/2 JSON loader, which still reads old files."""
        payload = {
            "kind": "repro-directory-snapshot", "format_version": 2,
            "clusters": clusters, "config": config,
        }
        try:
            snapshot = Snapshot.from_payload(payload)
        except ValueError:
            return
        assert snapshot.n_clusters >= 1

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_dataset(path)


# ---------------------------------------------------------------------
# Hostile version-3 snapshots: every malformed file is refused with a
# ValueError (DatasetFormatError is one), never an IndexError, a NumPy
# error or an allocation sized by a declared length.
# ---------------------------------------------------------------------

_PREFIX = struct.Struct("<8sII")


def _tiny_snapshot() -> Snapshot:
    pages = [
        FormPage(
            url=f"http://site{i}.example/search",
            pc=SparseVector({"flight": 1.0 + i, "city": 0.5, f"p{i}": 0.25}),
            fc=SparseVector({"depart": 2.0, "return": 0.75 * (i + 1)}),
            backlinks=frozenset({f"http://hub{i % 2}.example/"}),
            form_term_count=3, page_term_count=7, attribute_count=2,
        )
        for i in range(5)
    ]
    return Snapshot(
        clusters=[pages[:3], pages[3:]],
        vectorizer_state={},
        config=CAFCConfig(k=2),
        top_terms=[["flight"], ["depart"]],
        meta={"journal_position": 4},
        created_unix=1_700_000_000.0,
    )


def _pack():
    """(raw version-3 bytes, header dict, buffer byte offsets)."""
    data = _tiny_snapshot().to_bytes(compress=False)
    _, header_len, _ = _PREFIX.unpack_from(data)
    header = json.loads(data[_PREFIX.size:_PREFIX.size + header_len])
    position = _PREFIX.size + header_len
    offsets = {}
    for name, dtype, count in _layout(
        sum(header["cluster_sizes"]), len(header["cluster_sizes"]),
        header["page_nnz"], header["centroid_nnz"], len(header["terms"]),
    ):
        offsets[name] = (position, dtype, count)
        position += dtype.itemsize * count
    assert position == len(data)
    return data, header, offsets


@pytest.fixture(scope="module")
def packed():
    return _pack()


@pytest.fixture
def wide_packed(monkeypatch):
    """The fixture written with four-byte term indices, as a table of
    more than 65,536 terms is; the threshold stays patched while the
    test loads it."""
    monkeypatch.setattr(snapshot_module, "_SHORT_TERM_TABLE", 4)
    return _pack()


def _repack(header: dict, buffers: bytes) -> bytes:
    """A well-framed version-3 file (valid checksum) around ``header``
    and ``buffers`` — so only the structural checks can catch it."""
    encoded = json.dumps(header).encode("utf-8")
    encoded += b" " * (-len(encoded) % 8)
    body = encoded + buffers
    return _PREFIX.pack(b"RPDSNAP\x03", len(encoded), zlib.crc32(body)) + body


def _buffers(data: bytes) -> bytes:
    """The packed buffers of a raw version-3 file."""
    _, header_len, _ = _PREFIX.unpack_from(data)
    return data[_PREFIX.size + header_len:]


def _with_buffer(packed, name, index, value) -> bytes:
    """The file with item ``index`` of buffer ``name`` set to ``value``."""
    data, header, offsets = packed
    start, dtype, _ = offsets[name]
    body = bytearray(data)
    item = np.array([value]).astype(dtype).tobytes()
    at = start + index * dtype.itemsize
    body[at:at + dtype.itemsize] = item
    return _repack(header, bytes(body[offsets["contributions"][0]:]))


def _refused(data: bytes) -> ValueError:
    with pytest.raises(ValueError) as info:
        Snapshot.from_bytes(data)
    return info.value


class TestHostileSnapshots:
    def test_the_fixture_loads(self, packed):
        data, header, _ = packed
        loaded = Snapshot.from_bytes(data)
        assert loaded.n_pages == 5
        assert loaded.meta == {"journal_position": 4}
        assert Snapshot.from_bytes(_repack(header, _buffers(data))) \
            .n_pages == 5

    def test_every_truncation_is_refused(self, packed):
        data, _, _ = packed
        for cut in range(len(data)):
            _refused(data[:cut])

    def test_truncated_gzip_is_refused(self, packed):
        zipped = gzip.compress(packed[0])
        for cut in (2, 10, len(zipped) // 2, len(zipped) - 1):
            _refused(zipped[:cut])

    def test_every_flipped_body_byte_is_refused(self, packed):
        data, _, _ = packed
        for at in range(_PREFIX.size, len(data)):
            flipped = bytearray(data)
            flipped[at] ^= 0x40
            assert "checksum" in str(_refused(bytes(flipped)))

    def test_flipped_gzip_byte_is_refused(self, packed):
        zipped = bytearray(gzip.compress(packed[0]))
        zipped[len(zipped) // 2] ^= 0x01
        _refused(bytes(zipped))

    def test_trailing_bytes_after_gzip_are_refused(self, packed):
        _refused(gzip.compress(packed[0]) + b"\x00")

    @pytest.mark.parametrize("prefix", [b"", b"RPDSNAP\x03", b'{"kind": '])
    def test_compression_bomb_is_refused(self, packed, tmp_path, prefix):
        """40 MiB of zeros gzip to about 40 KB; the load stops at its
        16 MiB inflation ceiling instead of allocating all of it."""
        deflater = zlib.compressobj(9, zlib.DEFLATED, 16 + zlib.MAX_WBITS)
        chunk = bytes(1 << 20)
        bomb = deflater.compress(prefix) + b"".join(
            deflater.compress(chunk) for _ in range(40)
        ) + deflater.flush()
        assert len(bomb) < 64 << 10
        assert "inflates past" in str(_refused(bomb))
        path = tmp_path / "bomb.gz"
        path.write_bytes(bomb)
        with pytest.raises(ValueError):
            snapshot_info(path)

    def test_inflation_ceiling_scales_with_the_file(self, packed, monkeypatch):
        monkeypatch.setattr(snapshot_module, "_INFLATE_FLOOR", 0)
        zipped = gzip.compress(packed[0])
        assert Snapshot.from_bytes(zipped).n_pages == 5
        assert "inflates past" in str(_refused(gzip.compress(bytes(1 << 20))))

    def test_header_length_beyond_the_file(self, packed):
        data = bytearray(packed[0])
        struct.pack_into("<I", data, 8, 0xFFFFFFFF)
        assert "declared" in str(_refused(bytes(data)))

    @pytest.mark.parametrize("field, value", [
        ("page_nnz", 10**12),
        ("centroid_nnz", 2**62),
        ("cluster_sizes", [3, 10**15]),
        ("page_nnz", -1),
        ("centroid_nnz", 1.5),
    ])
    def test_declared_sizes_beyond_the_file(self, packed, field, value):
        data, header, _ = packed
        _refused(_repack({**header, field: value}, _buffers(data)))

    def test_page_count_mismatch(self, packed):
        data, header, _ = packed
        body = _buffers(data)
        _refused(_repack({**header, "cluster_sizes": [3, 1]}, body))
        _refused(_repack({**header, "urls": header["urls"][:-1]}, body))
        _refused(_repack({**header, "labels": header["labels"] + [None]}, body))

    def test_cluster_count_mismatch(self, packed):
        data, header, _ = packed
        body = _buffers(data)
        _refused(_repack({**header, "cluster_sizes": [3, 2, 0]}, body))
        _refused(_repack({**header, "top_terms": header["top_terms"][:1]}, body))
        _refused(_repack({**header, "cluster_sizes": []}, body))

    def test_non_monotone_offsets(self, packed):
        assert "offsets" in str(_refused(_with_buffer(packed, "page_offsets", 2, 0)))
        _refused(_with_buffer(packed, "page_offsets", 0, 1))
        _refused(_with_buffer(packed, "centroid_offsets", 1, 10**9))

    def test_out_of_range_term_id(self, packed):
        n_terms = len(packed[1]["terms"])
        assert "term" in str(_refused(
            _with_buffer(packed, "page_terms", 0, n_terms)
        ))
        _refused(_with_buffer(packed, "centroid_terms", 1, 65535))

    def test_repeated_term_in_a_row(self, packed):
        data, header, offsets = packed
        start, dtype, _ = offsets["page_terms"]
        second = int(np.frombuffer(data, dtype, 2, start)[1])
        _refused(_with_buffer(packed, "page_terms", 0, second))

    def test_repeated_term_in_the_table(self, packed):
        data, header, _ = packed
        terms = list(header["terms"])
        terms[1] = terms[0]
        _refused(_repack({**header, "terms": terms}, _buffers(data)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_weights(self, packed, value):
        assert "weight" in str(_refused(
            _with_buffer(packed, "page_weights", 1, value)
        ))
        _refused(_with_buffer(packed, "centroid_weights", 0, value))

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_bad_contribution(self, packed, value):
        _refused(_with_buffer(packed, "contributions", 0, value))

    def test_bad_header_fields(self, packed):
        data, header, _ = packed
        body = _buffers(data)
        for edit in (
            {"kind": "other"},
            {"urls": [1, 2, 3, 4, 5]},
            {"backlinks": [[1]] * 5},
            {"form_term_counts": [-1] * 5},
            {"terms": header["terms"][:-1] + [7]},
            {"meta": []},
            {"config": {"k": "many", "bogus": 1}},
            {"vectorizer": None},
        ):
            _refused(_repack({**header, **edit}, body))
        _refused(_repack([1, 2], body))

    def test_future_version_is_a_format_error(self, packed):
        data, header, _ = packed
        from repro.datasets.store import DatasetFormatError

        with pytest.raises(DatasetFormatError):
            Snapshot.from_bytes(
                _repack({**header, "format_version": 4}, _buffers(data))
            )

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 255)),
            min_size=1, max_size=6,
        )
    )
    def test_random_buffer_edits_load_or_are_refused(self, packed, edits):
        """Arbitrary bytes in the buffers behind a valid checksum: a
        load either succeeds or raises ValueError, nothing else."""
        data, header, offsets = packed
        body = bytearray(data[offsets["contributions"][0]:])
        for at, value in edits:
            body[at % len(body)] = value
        try:
            loaded = Snapshot.from_bytes(_repack(header, bytes(body)))
        except ValueError:
            return
        assert loaded.n_pages == 5


class TestWideTermIndices:
    """Term tables of more than 65,536 terms store four-byte indices."""

    def test_wide_file_loads_bit_identically(self, packed):
        narrow, header, offsets = packed
        theirs = Snapshot.from_bytes(narrow)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(snapshot_module, "_SHORT_TERM_TABLE", 4)
            wide, wide_header, wide_offsets = _pack()
            ours = Snapshot.from_bytes(wide)
        assert wide_header == header
        assert wide_offsets["page_terms"][1] == np.dtype("<u4")
        assert offsets["page_terms"][1] == np.dtype("<u2")
        assert len(wide) - len(narrow) == 2 * (
            header["page_nnz"] + header["centroid_nnz"]
        )
        for mine, twin in zip(ours.clusters, theirs.clusters):
            for page, other in zip(mine, twin):
                assert page.pc.id_arrays() == other.pc.id_arrays()
                assert page.fc.id_arrays() == other.fc.id_arrays()
        (centroids, contributions), (their_centroids, their_contributions) = (
            ours.settle(), theirs.settle()
        )
        assert contributions == their_contributions
        for pair, twin in zip(centroids, their_centroids):
            assert pair.pc.id_arrays() == twin.pc.id_arrays()
            assert pair.fc.id_arrays() == twin.fc.id_arrays()

    @pytest.mark.parametrize("buffer", ["page_terms", "centroid_terms"])
    @pytest.mark.parametrize("shift", [0, 1 << 16, (1 << 32) - 1])
    def test_out_of_range_term_index(self, wide_packed, buffer, shift):
        n_terms = len(wide_packed[1]["terms"])
        value = max(n_terms, shift)
        assert "term" in str(_refused(
            _with_buffer(wide_packed, buffer, 0, value)
        ))
