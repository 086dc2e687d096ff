"""The container codec of the on-disk reference store.

A sealed :class:`~repro.cam.array.StoredReference` payload crosses the
boot boundary in the store files of :mod:`repro.refstore.format`, and
this module is the single definition of their layout::

    magic (REFSTORE_MAGIC)                   8 bytes
    version, meta_length                     2 x uint32 (little-endian)
    meta_crc32, payload_crc32                2 x uint32
    payload_length                           uint64
    meta JSON                                meta_length bytes
    ... 64-byte alignment padding ...
    payload arrays (fixed field order of
    repro.kernels.ENCODED_REFERENCE_FIELDS)  payload_length bytes

The meta JSON records each array's name/dtype/shape/offset/nbytes.
Payload arrays start on 64-byte boundaries (cache-line aligned).  One
CRC32 covers the whole payload region — alignment padding included,
which is why writers must zero-initialise it — and a second covers the
meta JSON, so a torn, truncated or foreign container fails loudly at
open instead of producing silently wrong mismatch counts.

The codec is buffer-agnostic: :func:`plan_layout` sizes a container
for a set of arrays, :func:`write_payload` + :func:`seal_header` fill
any writable buffer (a pre-sized ``bytearray`` destined for disk), and
:func:`open_container` validates any readable buffer (an ``mmap``) and
returns read-only, zero-copy array views over it.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Sequence, Type

import numpy as np

__all__ = [
    "ALIGN",
    "HEADER",
    "ContainerLayout",
    "aligned",
    "open_container",
    "plan_layout",
    "seal_header",
    "write_payload",
]

#: ``magic | version | meta_length | meta_crc32 | payload_crc32 |
#: payload_length`` — little-endian, fixed width.
HEADER = struct.Struct("<8sIIIIQ")

#: Payload arrays start on this alignment (numpy views over float32
#: need 4; 64 keeps rows cache-line aligned).
ALIGN = 64


def aligned(offset: int) -> int:
    """Round *offset* up to the next :data:`ALIGN` boundary."""
    return (offset + ALIGN - 1) // ALIGN * ALIGN


@dataclass(frozen=True)
class ContainerLayout:
    """The resolved geometry of one container.

    ``specs`` mirrors the meta JSON's ``arrays`` list (name, dtype,
    shape, offset, nbytes — offsets relative to ``payload_start``);
    ``meta`` is the encoded JSON; ``total`` the container size in
    bytes.
    """

    specs: "tuple[dict, ...]"
    meta: bytes
    payload_start: int
    payload_length: int

    @property
    def total(self) -> int:
        return self.payload_start + self.payload_length


def plan_layout(
        arrays: "Sequence[tuple[str, np.ndarray]]") -> ContainerLayout:
    """Size a container for *arrays* (name, array) pairs, in order."""
    specs = []
    offset = 0
    for name, array in arrays:
        offset = aligned(offset)
        specs.append({
            "name": name,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
        })
        offset += array.nbytes
    meta = json.dumps({"arrays": specs}).encode("ascii")
    return ContainerLayout(
        specs=tuple(specs), meta=meta,
        payload_start=aligned(HEADER.size + len(meta)),
        payload_length=offset,
    )


def write_payload(buf, layout: ContainerLayout,
                  arrays: "Sequence[tuple[str, np.ndarray]]") -> None:
    """Copy every array into its planned slot of *buf*.

    *buf* must be zero-initialised and at least ``layout.total`` bytes
    — the payload CRC covers the alignment padding between arrays.
    """
    for spec, (_, array) in zip(layout.specs, arrays, strict=True):
        array = np.ascontiguousarray(array)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=buf,
                          offset=layout.payload_start + spec["offset"])
        view[...] = array


def seal_header(buf, layout: ContainerLayout, *, magic: bytes,
                version: int) -> None:
    """Checksum the written payload and stamp header + meta into *buf*.

    Called after :func:`write_payload`: one CRC over the whole payload
    region (zero padding included), matching what
    :func:`open_container` verifies.
    """
    payload_crc = zlib.crc32(
        buf[layout.payload_start:layout.payload_start
            + layout.payload_length]
    )
    buf[:HEADER.size] = HEADER.pack(
        magic, version, len(layout.meta),
        zlib.crc32(layout.meta), payload_crc, layout.payload_length,
    )
    buf[HEADER.size:HEADER.size + len(layout.meta)] = layout.meta


def open_container(buf, *, magic: bytes, version: int, describe: str,
                   error: Type[Exception],
                   expected_fields: "tuple[str, ...] | None" = None,
                   ) -> "dict[str, np.ndarray]":
    """Validate a container buffer and return zero-copy array views.

    The full validation ladder — size, magic, version, truncation,
    meta CRC32, payload CRC32, field names — runs before any view is
    built, raising *error* with *describe* naming the container (e.g.
    ``"reference store '/p'"``) on the first violation.  Every returned array is a read-only view over
    *buf*; the caller owns keeping the buffer mapped while they live.
    """
    if len(buf) < HEADER.size:
        raise error(f"{describe} is smaller than a header")
    got_magic, got_version, meta_length, meta_crc, payload_crc, \
        payload_length = HEADER.unpack_from(buf, 0)
    if got_magic != magic:
        raise error(
            f"{describe} is not an ASMCap reference "
            f"(bad magic {got_magic!r})"
        )
    if got_version != version:
        raise error(
            f"{describe} has header version {got_version}; "
            f"this build reads version {version}"
        )
    meta_end = HEADER.size + meta_length
    payload_start = aligned(meta_end)
    if len(buf) < payload_start + payload_length:
        raise error(
            f"{describe} is truncated "
            f"({len(buf)} bytes, header promises "
            f"{payload_start + payload_length})"
        )
    meta_bytes = bytes(buf[HEADER.size:meta_end])
    if zlib.crc32(meta_bytes) != meta_crc:
        raise error(f"{describe} failed the meta checksum")
    if zlib.crc32(buf[payload_start:payload_start + payload_length]) \
            != payload_crc:
        raise error(f"{describe} failed the payload checksum")
    meta = json.loads(meta_bytes.decode("ascii"))
    arrays: "dict[str, np.ndarray]" = {}
    for spec in meta["arrays"]:
        view = np.ndarray(
            tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]),
            buffer=buf, offset=payload_start + spec["offset"],
        )
        view.setflags(write=False)
        arrays[spec["name"]] = view
    if expected_fields is not None and tuple(arrays) != expected_fields:
        raise error(
            f"{describe} carries arrays "
            f"{tuple(arrays)}, expected {expected_fields}"
        )
    return arrays
