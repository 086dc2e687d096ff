"""Tests for the on-disk stored-reference container.

Saving and mapping must be a bit-exact, zero-copy, encode-free
roundtrip, and every corrupted / truncated / foreign / stale file
must fail loudly with :class:`~repro.errors.RefStoreError` — never
with silently wrong mismatch counts.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cam.array import StoredReference
from repro.errors import CamConfigError, RefStoreError
from repro.kernels import ENCODED_REFERENCE_FIELDS, encoded_reference_arrays
from repro.refstore import (
    REFSTORE_MAGIC,
    open_stored_reference,
    save_stored_reference,
    slice_stored_reference,
)
from repro.refstore.header import HEADER, aligned


@pytest.fixture(scope="module")
def reference() -> StoredReference:
    rng = np.random.default_rng(42)
    segments = rng.integers(0, 4, size=(32, 96), dtype=np.uint8)
    return StoredReference.encode(segments)


@pytest.fixture()
def store(tmp_path, reference) -> str:
    path = str(tmp_path / "ref.asmcap")
    save_stored_reference(path, reference)
    return path


def _file_layout(path: str) -> "tuple[int, int]":
    """``(payload_start, payload_length)`` parsed from a store file."""
    with open(path, "rb") as handle:
        header = handle.read(HEADER.size)
    _, _, meta_length, _, _, payload_length = HEADER.unpack_from(header, 0)
    return aligned(HEADER.size + meta_length), payload_length


def _corrupt(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xFF]))


def _assert_bit_exact(ours: StoredReference, theirs: StoredReference):
    original = dict(encoded_reference_arrays(theirs.encoded()))
    mirrored = dict(encoded_reference_arrays(ours.encoded()))
    assert tuple(mirrored) == ENCODED_REFERENCE_FIELDS
    for name in ENCODED_REFERENCE_FIELDS:
        assert original[name].dtype == mirrored[name].dtype
        np.testing.assert_array_equal(original[name], mirrored[name])


class TestRoundtrip:
    def test_open_is_bit_exact(self, store, reference):
        with open_stored_reference(store) as mapped:
            _assert_bit_exact(mapped.reference, reference)

    def test_opened_reference_is_sealed_without_encoding(self, store):
        with open_stored_reference(store) as mapped:
            opened = mapped.reference
            assert opened.sealed
            assert opened.n_encodes == 0
            opened.encoded()
            # Reading the cached encoding must never count as an
            # encode pass — the warm-boot encode-free evidence.
            assert opened.n_encodes == 0

    def test_opened_views_are_read_only(self, store):
        with open_stored_reference(store) as mapped:
            arrays = dict(encoded_reference_arrays(
                mapped.reference.encoded()
            ))
            for name in ENCODED_REFERENCE_FIELDS:
                with pytest.raises(ValueError):
                    arrays[name].flat[0] = 0

    def test_accepts_str_and_pathlike(self, store, tmp_path):
        with open_stored_reference(store) as mapped:
            assert mapped.reference.sealed
            assert mapped.path == store
        with open_stored_reference(tmp_path / "ref.asmcap") as mapped:
            assert mapped.reference.sealed
            assert mapped.path == store

    def test_save_returns_file_size(self, tmp_path, reference):
        import os

        path = str(tmp_path / "sized.asmcap")
        nbytes = save_stored_reference(path, reference)
        assert nbytes == os.path.getsize(path)
        with open_stored_reference(path) as mapped:
            assert mapped.nbytes == nbytes

    def test_save_overwrites_atomically(self, tmp_path):
        rng = np.random.default_rng(7)
        path = str(tmp_path / "ref.asmcap")
        first = StoredReference.encode(
            rng.integers(0, 4, size=(8, 16), dtype=np.uint8))
        second = StoredReference.encode(
            rng.integers(0, 4, size=(12, 20), dtype=np.uint8))
        save_stored_reference(path, first)
        save_stored_reference(path, second)
        with open_stored_reference(path) as mapped:
            _assert_bit_exact(mapped.reference, second)


class TestSlicing:
    def test_slice_matches_fresh_encode(self, store):
        rng = np.random.default_rng(42)
        segments = rng.integers(0, 4, size=(32, 96), dtype=np.uint8)
        with open_stored_reference(store) as mapped:
            shards = slice_stored_reference(
                mapped.reference, [(0, 10), (10, 25), (25, 32)]
            )
            for shard, (start, stop) in zip(
                    shards, [(0, 10), (10, 25), (25, 32)], strict=True):
                assert shard.sealed
                assert shard.n_encodes == 0
                _assert_bit_exact(
                    shard, StoredReference.encode(segments[start:stop])
                )

    def test_nested_slice_matches_fresh_encode(self, store):
        rng = np.random.default_rng(42)
        segments = rng.integers(0, 4, size=(32, 96), dtype=np.uint8)
        with open_stored_reference(store) as mapped:
            outer = slice_stored_reference(mapped.reference,
                                           [(8, 28)])[0]
            inner = slice_stored_reference(outer, [(2, 9)])[0]
            assert inner.n_encodes == 0
            _assert_bit_exact(
                inner, StoredReference.encode(segments[10:17]))

    def test_bad_ranges_rejected(self, store):
        with open_stored_reference(store) as mapped:
            with pytest.raises(RefStoreError):
                slice_stored_reference(mapped.reference, [(10, 5)])
            with pytest.raises(RefStoreError):
                slice_stored_reference(mapped.reference, [(0, 1000)])

    def test_unsealed_reference_rejected(self):
        with pytest.raises(RefStoreError, match="sealed"):
            slice_stored_reference(StoredReference(rows=4, cols=8),
                                   [(0, 2)])


class TestSavePreconditions:
    def test_unsealed_reference_rejected(self, tmp_path):
        with pytest.raises(RefStoreError, match="sealed"):
            save_stored_reference(tmp_path / "x.asmcap",
                                  StoredReference(rows=4, cols=8))

    def test_refstore_error_is_a_cam_config_error(self):
        # One except clause catches the whole config-fault family.
        assert issubclass(RefStoreError, CamConfigError)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(RefStoreError, match="no reference store"):
            open_stored_reference(tmp_path / "absent.asmcap")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.asmcap"
        path.write_bytes(b"")
        with pytest.raises(RefStoreError, match="could not map"):
            open_stored_reference(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.asmcap"
        path.write_bytes(b"\x00" * 4)
        with pytest.raises(RefStoreError, match="smaller than a header"):
            open_stored_reference(path)

    def test_bad_magic(self, store):
        _corrupt(store, 0)
        with pytest.raises(RefStoreError, match="bad magic"):
            open_stored_reference(store)

    def test_version_skew(self, store):
        # The version field sits right after the 8-byte magic.
        _corrupt(store, len(REFSTORE_MAGIC))
        with pytest.raises(RefStoreError, match="header version"):
            open_stored_reference(store)

    def test_version_one_file_names_both_versions(self, store):
        # A store written before the bitplanes left the payload.
        with open(store, "r+b") as handle:
            handle.seek(len(REFSTORE_MAGIC))
            handle.write(struct.pack("<I", 1))
        with pytest.raises(RefStoreError,
                           match="header version 1; this build reads "
                                 "version 2"):
            open_stored_reference(store)

    def test_meta_corruption(self, store):
        _corrupt(store, HEADER.size)
        with pytest.raises(RefStoreError, match="meta checksum"):
            open_stored_reference(store)

    def test_payload_corruption(self, store):
        payload_start, payload_length = _file_layout(store)
        assert payload_length > 0
        _corrupt(store, payload_start + payload_length - 1)
        with pytest.raises(RefStoreError, match="payload checksum"):
            open_stored_reference(store)

    def test_truncated_payload(self, store):
        # Chop the file mid-payload: the header's promised length no
        # longer fits (a torn copy / partial download).
        payload_start, payload_length = _file_layout(store)
        with open(store, "r+b") as handle:
            handle.truncate(payload_start + payload_length // 2)
        with pytest.raises(RefStoreError, match="truncated"):
            open_stored_reference(store)

    def test_payload_length_lie(self, store):
        # Promise more bytes than the file holds.
        with open(store, "r+b") as handle:
            handle.seek(HEADER.size - 8)
            handle.write(struct.pack("<Q", 1 << 62))
        with pytest.raises(RefStoreError, match="truncated"):
            open_stored_reference(store)

    def test_error_names_the_file(self, store):
        _corrupt(store, 0)
        with pytest.raises(RefStoreError, match="ref.asmcap"):
            open_stored_reference(store)


class TestLifecycle:
    def test_close_is_idempotent_and_invalidates(self, store):
        mapped = open_stored_reference(store)
        assert not mapped.closed
        assert mapped.nbytes > 0
        mapped.close()
        mapped.close()
        assert mapped.closed
        assert mapped.nbytes == 0
        with pytest.raises(RefStoreError, match="closed"):
            mapped.reference

    def test_close_never_deletes_the_file(self, store):
        import os

        with open_stored_reference(store):
            pass
        assert os.path.isfile(store)
        with open_stored_reference(store) as mapped:
            assert mapped.reference.sealed

    def test_independent_opens_share_the_file(self, store):
        first = open_stored_reference(store)
        second = open_stored_reference(store)
        np.testing.assert_array_equal(
            first.reference.encoded().segments,
            second.reference.encoded().segments,
        )
        first.close()
        # The second mapping is untouched by the first's close.
        assert second.reference.sealed
        second.close()


class TestRoundtripProperty:
    @given(
        n_rows=st.integers(min_value=1, max_value=24),
        cols=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_save_open_roundtrip(self, tmp_path_factory, n_rows, cols,
                                 seed):
        rng = np.random.default_rng(seed)
        segments = rng.integers(0, 4, size=(n_rows, cols),
                                dtype=np.uint8)
        reference = StoredReference.encode(segments)
        path = tmp_path_factory.mktemp("prop") / "ref.asmcap"
        save_stored_reference(path, reference)
        with open_stored_reference(path) as mapped:
            _assert_bit_exact(mapped.reference, reference)
            assert mapped.reference.n_encodes == 0
            assert mapped.reference.n_segments == n_rows
            assert mapped.reference.cols == cols
