"""The cached label-block codecs against their straight-line references.

The WAL writer and the remote-write client cache each series' encoded
label block; the receiver caches each block's decoded labels.  These
tests hold the cached paths byte-identical (and decode-identical) to
encoding everything from scratch, try to fool the receiver's memo with
collisions and damaged labels, and check that every memo stays bounded
while retention churns series through the stores.
"""

import base64
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TsdbError, WalError
from repro.net.http import HttpNetwork
from repro.pmag import remote_write, wal
from repro.pmag.model import Labels
from repro.pmag.remote_write import (
    RemoteWriteClient,
    RemoteWriteReceiver,
    decode_frame_blocks,
    encode_frame,
)
from repro.pmag.storage import series_fingerprint
from repro.pmag.tsdb import Tsdb
from repro.pmag.wal import WalWriter
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.disk import SimDisk
from repro.simkernel.rng import DeterministicRng
from tests import codec_reference as reference

#: A small pool of label sets, so random streams revisit series.
SERIES = [
    Labels.of("m_total", job="sgx", instance=f"n{i}") for i in range(4)
] + [
    Labels.of("other", zone="eu-é", k=""),
    Labels.of("x"),
]

samples = st.tuples(
    st.integers(min_value=0, max_value=len(SERIES) - 1),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False),
)
batches = st.lists(samples, min_size=0, max_size=12)


def _entries(batch):
    return [(SERIES[i], time_ns, value) for i, time_ns, value in batch]


def _disk_files(disk):
    return {name: disk.read(name) for name in disk.list_files("")}


# ---------------------------------------------------------------------------
# WAL: cached, batched writer == per-record reference encoder
# ---------------------------------------------------------------------------
wal_ops = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), batches),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(st.just("checkpoint"), st.none()),
    ),
    max_size=12,
)


def _drive_wal(ops, flush_every, segment_max, batched):
    disk = SimDisk()
    writer = WalWriter(disk, flush_every_records=flush_every,
                       segment_max_records=segment_max)
    tsdb = Tsdb()
    tsdb.attach_wal(writer)
    for kind, arg in ops:
        if kind == "batch":
            entries = _entries(arg)
            if batched:
                tsdb.append_batch(entries)
            else:
                for labels, time_ns, value in entries:
                    try:
                        tsdb.append(labels, time_ns, value)
                    except TsdbError:
                        pass  # out of order: rejected on both paths
        elif kind == "flush":
            writer.flush()
        else:
            writer.checkpoint(tsdb)
            assert writer._prefixes == {}  # noqa: SLF001 - reset per checkpoint
    return _disk_files(disk)


@settings(deadline=None)
@given(wal_ops, st.sampled_from([0, 1, 3]), st.sampled_from([1, 2, 5, 64]))
def test_wal_segments_equal_reference_records(ops, flush_every, segment_max):
    cached = _drive_wal(ops, flush_every, segment_max, batched=True)
    mp = pytest.MonkeyPatch()
    mp.setattr(wal, "encode_record_cached",
               lambda labels, time_ns, value, cache:
               reference.encode_record(labels, time_ns, value))
    try:
        expected = _drive_wal(ops, flush_every, segment_max, batched=False)
    finally:
        mp.undo()
    assert cached == expected


# ---------------------------------------------------------------------------
# Remote write: warm memos == no memos == reference
# ---------------------------------------------------------------------------
@settings(deadline=None)
@given(st.lists(batches, min_size=1, max_size=6))
def test_warm_encoder_memo_equals_reference(frames):
    prefixes = {}
    for seq, batch in enumerate(frames, start=1):
        entries = _entries(batch)
        assert encode_frame("leaf-0", 7, seq, entries, prefixes) == \
            reference.encode_frame("leaf-0", 7, seq, entries)
    assert set(prefixes) <= set(SERIES)


@settings(deadline=None)
@given(st.lists(batches, min_size=1, max_size=6))
def test_memo_decode_equals_memoless_decode(frames):
    memo = {}
    for seq, batch in enumerate(frames, start=1):
        body = reference.encode_frame("leaf-0", 7, seq, _entries(batch))
        assert decode_frame_blocks(body, memo) == decode_frame_blocks(body)


def test_colliding_memo_key_decodes_the_right_labels():
    # Two series with the same label count; the second block's
    # fingerprint is forged to the first's, so both share one memo key
    # (fingerprint + label count) but differ in label bytes.
    first, second = SERIES[0], SERIES[1]
    forged_fp = series_fingerprint(first)
    memo = {}
    decode_frame_blocks(encode_frame("leaf-0", 0, 1, [(first, 1, 1.0)]), memo)

    def forge(block):
        struct.pack_into("<I", block, 0, forged_fp)

    body = reference.reseal_blocks(
        encode_frame("leaf-0", 0, 2, [(second, 2, 2.0)]), forge)
    _s, _e, _q, blocks = decode_frame_blocks(body, memo)
    assert blocks == [(forged_fp, second, [(2, 2.0)])]
    # The entry now holds the newer labels; the original still decodes.
    _s, _e, _q, blocks = decode_frame_blocks(
        encode_frame("leaf-0", 0, 3, [(first, 3, 3.0)]), memo)
    assert blocks == [(forged_fp, first, [(3, 3.0)])]


def test_damaged_label_after_memo_hit_is_not_trusted():
    labels = SERIES[0]
    memo = {}
    body = encode_frame("leaf-0", 0, 1, [(labels, 1, 1.0)])
    decode_frame_blocks(body, memo)  # warm: the next decode is a memo hit
    label_start = 8 + 2  # fingerprint, label count, first key length

    # A flipped label byte with the CRC left alone: the CRC catches it.
    header, payload = body.split("\n", 1)
    raw = bytearray(zlib.decompress(base64.b64decode(payload)))
    raw[8 + label_start] ^= 0x01
    torn = base64.b64encode(zlib.compress(bytes(raw))).decode("ascii")
    with pytest.raises(WalError, match="CRC"):
        decode_frame_blocks(f"{header}\n{torn}", memo)

    # Re-sealed with invalid UTF-8: the memo must not paper over it.
    def poison(block):
        block[label_start] = 0xFF

    with pytest.raises(WalError):
        decode_frame_blocks(reference.reseal_blocks(body, poison), memo)

    # Re-sealed with a different valid label: decoded as sent, not as
    # the cached labels.
    def rename(block):
        block[label_start] = ord("a")  # "__name__" -> "a_name__"

    renamed = reference.reseal_blocks(body, rename)
    assert decode_frame_blocks(renamed, memo) == decode_frame_blocks(renamed)
    assert decode_frame_blocks(renamed)[3][0][1] != labels


# ---------------------------------------------------------------------------
# Memo bounds under retention churn
# ---------------------------------------------------------------------------
PER_ROUND = 6


def _churn(rounds, capture):
    """Leaf -> receiver (with a checkpointed WAL), each round shipping a
    fresh set of series while retention drops the previous rounds'."""
    clock = VirtualClock()
    network = HttpNetwork()
    retention = seconds(3)
    leaf = Tsdb(retention_ns=retention)
    upstream = Tsdb(retention_ns=retention)
    disk = SimDisk()
    writer = WalWriter(disk, segment_max_records=16)
    upstream.attach_wal(writer)
    receiver = RemoteWriteReceiver(upstream)
    receiver.expose(network, "global-0")
    client = RemoteWriteClient(clock, network, leaf, receiver.url, "leaf-0",
                               max_frame_samples=8, rng=DeterministicRng(5))
    sizes = []
    for round_ in range(rounds):
        clock.advance(seconds(1))
        now = clock.now_ns
        for i in range(PER_ROUND):
            for k in range(3):
                leaf.append_sample("churn_total", now - 2 + k, float(k),
                                   instance=f"r{round_}-{i}")
        client.flush()
        # Series counts as the memo checks saw them: before this round's
        # retention pass drops the oldest round.
        sizes.append((
            len(client._prefixes), leaf.series_count(),  # noqa: SLF001
            len(receiver._labels_memo), upstream.series_count(),  # noqa: SLF001
            len(writer._prefixes),  # noqa: SLF001
        ))
        leaf.enforce_retention(now)
        upstream.enforce_retention(now)
        if round_ % 4 == 3:
            writer.checkpoint(upstream)
    assert receiver.frames_rejected == 0
    assert receiver.samples_applied == rounds * PER_ROUND * 3
    return capture, _disk_files(disk), sizes


def test_memos_stay_bounded_and_bytes_stay_identical_under_churn(monkeypatch):
    rounds = 60
    frames = []

    def record(encode):
        def wrapper(sender, epoch, seq, entries, *memo):
            body = encode(sender, epoch, seq, entries, *memo)
            frames.append(body)
            return body
        return wrapper

    monkeypatch.setattr(remote_write, "encode_frame", record(encode_frame))
    cached_frames, cached_disk, sizes = _churn(rounds, frames)

    frames = []
    monkeypatch.setattr(
        remote_write, "encode_frame",
        record(lambda sender, epoch, seq, entries, *_memo:
               reference.encode_frame(sender, epoch, seq, entries)))
    monkeypatch.setattr(
        wal, "encode_record_cached",
        lambda labels, time_ns, value, cache:
        reference.encode_record(labels, time_ns, value))
    ref_frames, ref_disk, _ = _churn(rounds, frames)

    assert cached_frames == ref_frames
    assert cached_disk == ref_disk
    # A frame adds at most its own series past a check, and every check
    # clears a memo that passed twice the local series count.
    for client_memo, leaf_series, receiver_memo, upstream_series, _ in sizes:
        assert client_memo <= 2 * leaf_series + PER_ROUND
        assert receiver_memo <= 2 * upstream_series + PER_ROUND
    seen = rounds * PER_ROUND
    assert max(size[0] for size in sizes) < seen // 4
    assert max(size[2] for size in sizes) < seen // 4
    # The WAL prefix memo never outlives a checkpoint interval.
    assert max(size[4] for size in sizes) <= 4 * PER_ROUND + 4
