#!/usr/bin/env python3
"""Expected bytes of the two checksummed envelopes, built from their layout
comments (src/stream/report_log.h, src/net/frame.h) with a bitwise CRC-32C
that shares no code with the codec (src/cache/crc32c.cpp).

    python3 tests/support/envelope_pins.py [--version 2]
        The frames of ReportLogTest.WritesTheDocumentedBytes and
        FrameTest.EncodesTheDocumentedBytes, as hex. --version 1 prints the
        u64 FNV-1a framing that version 1 wrote, which those tests keep as
        rejection fixtures.

    python3 tests/support/envelope_pins.py --reframe OLD.vdrlog [NEW.vdrlog]
        Verify a version 1 log's FNV-1a trailers, frame the same records as
        version 2, print stream::file_digest (FNV-1a 64 of the whole file)
        of the result, and write it to NEW.vdrlog when given. Fed the log of
        StreamPipelineTest's small_spec() from a build that writes version
        1, this gives RecordedLogHasThePinnedBytes' digest.
"""
import argparse
import struct
import sys

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
CASTAGNOLI_REFLECTED = 0x82F63B78


def fnv1a64(data, state=FNV_OFFSET):
    for byte in data:
        state = ((state ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return state


def crc32c(data):
    """CRC-32C one bit at a time: reflected, initial and final xor ~0."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (CASTAGNOLI_REFLECTED if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def trailer(data, version):
    """A frame's checksum trailer in the given format version."""
    if version == 1:
        return struct.pack("<Q", fnv1a64(data))
    return struct.pack("<I", crc32c(data))


# --- VDRLOG01 report log (src/stream/report_log.h) -------------------------

def log_header(version):
    return b"VDRLOG01" + struct.pack("<II", version, 0)


def segment_frame(tag, version):
    body = b"\x01" + struct.pack("<Q", tag)
    return body + trailer(body, version)


def chunk_frame(first_site, records, version):
    """records: (service, site, truth, claimed) tuples, 10 bytes each."""
    body = b"\x02" + struct.pack("<IQ", len(records), first_site)
    for service, site, truth, claimed in records:
        body += struct.pack("<IIBB", service, site, truth, claimed)
    return body + trailer(body, version)


def report_log_pin(version):
    two = [(0x0A0B0C0D, 0x00010203, 3, 0xFF), (1, 0x00040000, 0xFF, 2)]
    return [
        ("header", log_header(version)),
        ("segment", segment_frame(0x0102030405060708, version)),
        ("chunk", chunk_frame(0x1122334455667788, two, version)),
        ("empty chunk", chunk_frame(0x0000000100000002, [], version)),
    ]


def reframe(old):
    """Version 1 log bytes -> the same frames as version 2."""
    if old[:8] != b"VDRLOG01" or struct.unpack_from("<I", old, 8)[0] != 1:
        sys.exit("not a version 1 report log")
    out, pos = bytearray(log_header(2)), 16
    while pos < len(old):
        if old[pos] == 1:
            end = pos + 9
        elif old[pos] == 2:
            count = struct.unpack_from("<I", old, pos + 1)[0]
            end = pos + 13 + 10 * count
        else:
            sys.exit(f"unknown frame type {old[pos]} at {pos}")
        body = old[pos:end]
        if len(body) != end - pos or old[end:end + 8] != trailer(body, 1):
            sys.exit(f"damaged version 1 frame at {pos}")
        out += body + trailer(body, 2)
        pos = end + 8
    return bytes(out)


# --- VDNF wire frame (src/net/frame.h) -------------------------------------

FRAME_CASES = [
    (1, b'{"experiments":"e1"}'),
    (2, b"ok\n"),
    (3, b""),
    (4, b"{}"),
    (5, b"s" * 258),
]


def wire_frame(frame_type, payload, version):
    checked = struct.pack("<BBHI", version, frame_type, 0, len(payload))
    checked += payload
    return b"VDNF" + checked + trailer(checked, version)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", type=int, choices=(1, 2), default=2)
    parser.add_argument("--reframe", nargs="+", metavar="LOG")
    args = parser.parse_args()

    if args.reframe:
        with open(args.reframe[0], "rb") as f:
            new = reframe(f.read())
        if len(args.reframe) > 1:
            with open(args.reframe[1], "wb") as f:
                f.write(new)
        print(f"file_digest 0x{fnv1a64(new):016x} ({len(new)} bytes)")
        return

    trailer_bytes = 8 if args.version == 1 else 4
    print(f"report log, version {args.version}:")
    for name, frame in report_log_pin(args.version):
        print(f"  {name:12} {frame.hex()}")
    print(f"wire frames, version {args.version} (head, then trailer):")
    for frame_type, payload in FRAME_CASES:
        frame = wire_frame(frame_type, payload, args.version)
        head, tail = frame[:12].hex(), frame[-trailer_bytes:].hex()
        print(f"  type {frame_type}  {head}  {tail}")


if __name__ == "__main__":
    main()
