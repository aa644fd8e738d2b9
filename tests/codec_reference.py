"""Straight-line reference encoders for the WAL and remote-write codecs.

The production encoders cache each series' label block across records
and frames.  These pack every record and every block from scratch, one
field at a time, exactly as the documented formats read; the
differential tests hold the cached encoders byte-identical to them.
"""

import base64
import struct
import zlib

from repro.errors import WalError
from repro.pmag.remote_write import FRAME_MAGIC
from repro.pmag.storage import series_fingerprint
from repro.pmag.wal import MAX_RECORD_BYTES, RECORD_SAMPLE


def pack_text(text):
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WalError(f"label component too long: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def encode_record(labels, time_ns, value):
    """One framed WAL record: ``u32 len | u32 crc32(payload) | payload``."""
    items = labels.items()
    pieces = [struct.pack("<BI", RECORD_SAMPLE, len(items))]
    for key, val in items:
        pieces.append(pack_text(key))
        pieces.append(pack_text(val))
    pieces.append(struct.pack("<qd", time_ns, value))
    payload = b"".join(pieces)
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(f"record payload too large: {len(payload)} bytes")
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def encode_frame(sender, epoch, seq, entries):
    """One remote-write frame, every series block packed from scratch."""
    groups = {}
    for labels, time_ns, value in entries:
        groups.setdefault(labels, []).append((time_ns, value))
    pieces = []
    for labels, samples in groups.items():
        items = labels.items()
        parts = [struct.pack("<II", series_fingerprint(labels), len(items))]
        for key, val in items:
            parts.append(pack_text(key))
            parts.append(pack_text(val))
        parts.append(struct.pack("<I", len(samples)))
        for time_ns, value in samples:
            parts.append(struct.pack("<qd", time_ns, value))
        block = b"".join(parts)
        pieces.append(struct.pack("<II", len(block), zlib.crc32(block)))
        pieces.append(block)
    body = base64.b64encode(zlib.compress(b"".join(pieces), 6)).decode("ascii")
    return f"{FRAME_MAGIC} {sender} {epoch} {seq} {len(entries)}\n{body}"


def reseal_blocks(body, edit):
    """Rewrite every series block of a frame with ``edit(bytearray)`` and
    re-seal it with a valid CRC: a forgery that the transport checks
    (length, CRC, compression) cannot see."""
    header, payload = body.split("\n", 1)
    raw = zlib.decompress(base64.b64decode(payload))
    out, pos = [], 0
    while pos < len(raw):
        (length,) = struct.unpack_from("<I", raw, pos)
        block = bytearray(raw[pos + 8:pos + 8 + length])
        edit(block)
        out.append(struct.pack("<II", len(block), zlib.crc32(block)))
        out.append(bytes(block))
        pos += 8 + length
    sealed = base64.b64encode(zlib.compress(b"".join(out))).decode("ascii")
    return f"{header}\n{sealed}"
