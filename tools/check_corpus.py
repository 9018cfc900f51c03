#!/usr/bin/env python3
"""Validator for the fuzz corpus (stdlib only).

A corpus directory holds QTRC v1 traces: seeds recorded by `engine_fuzz
--save-corpus=DIR` plus minimized reproducers of any divergence the fuzzer
ever found (checked in under tests/corpus/). corpus_replay_test replays
them through the differential oracles on every CI run, so a rotted file
would fail late and noisily;
this checker fails fast instead, and — unlike the C++ loader — runs
without a build, so the docs/trace_format.md layout is independently
cross-checked from a second implementation.

Usage: tools/check_corpus.py [corpus_dir]   (default: tests/corpus)

Checks per file: magic/version, plausible distance, check/data counts
consistent with the distance (planar lattice: d*(d-1) checks, d^2+(d-1)^2
data qubits), nonzero lanes/rounds, exact payload length, and the FNV-1a
64 footer checksum over the payload.
"""
import struct
import sys
from pathlib import Path

MAGIC = 0x43525451  # "QTRC", LSB first
VERSION = 1
HEADER = struct.Struct("<7I Q d d")  # magic..data_qubits, seed, p_data, p_meas


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def check_file(path):
    blob = path.read_bytes()
    if len(blob) < HEADER.size + 8:
        return f"{path.name}: truncated ({len(blob)} bytes)"
    (magic, version, distance, lanes, rounds, checks, data_qubits,
     _seed, p_data, p_meas) = HEADER.unpack_from(blob)
    if magic != MAGIC:
        return f"{path.name}: bad magic 0x{magic:08x}"
    if version != VERSION:
        return f"{path.name}: unsupported version {version}"
    if not 2 <= distance <= 1000:
        return f"{path.name}: implausible distance {distance}"
    if checks != distance * (distance - 1):
        return f"{path.name}: checks {checks} != d*(d-1)"
    if data_qubits != distance * distance + (distance - 1) * (distance - 1):
        return f"{path.name}: data_qubits {data_qubits} != d^2+(d-1)^2"
    if lanes == 0 or rounds == 0:
        return f"{path.name}: empty lane or round count"
    if not (0.0 <= p_data <= 1.0 and 0.0 <= p_meas <= 1.0):
        return f"{path.name}: provenance p outside [0, 1]"
    layer_bytes = (checks + 7) // 8
    error_bytes = (data_qubits + 7) // 8
    payload = rounds * lanes * layer_bytes + lanes * error_bytes
    expected = HEADER.size + payload + 8
    if len(blob) != expected:
        return f"{path.name}: {len(blob)} bytes, layout says {expected}"
    stored = struct.unpack_from("<Q", blob, HEADER.size + payload)[0]
    actual = fnv1a64(blob[HEADER.size:HEADER.size + payload])
    if stored != actual:
        return f"{path.name}: checksum 0x{stored:016x} != 0x{actual:016x}"
    return None


def main():
    corpus = Path(sys.argv[1] if len(sys.argv) > 1 else "tests/corpus")
    files = sorted(corpus.glob("*.qtrc"))
    if not files:
        print(f"check_corpus: no *.qtrc under {corpus}", file=sys.stderr)
        return 1
    errors = [e for e in (check_file(f) for f in files) if e]
    for error in errors:
        print(f"check_corpus: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_corpus: {len(files)} corpus file(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
