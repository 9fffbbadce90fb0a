import json
import re

import numpy as np
import pytest

from dsga import fileio
from dsga.fileio import (
    FileFormatError,
    read_mask,
    read_saliency,
    read_tns,
    write_mask_pbm,
    write_mask_pgm,
    write_saliency_pgm,
    write_tns,
)


class TestTns:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2, 3, 4)).astype(dtype)
        path = tmp_path / "t.tns"
        write_tns(path, arr)
        back = read_tns(path)
        assert back.dtype == dtype
        assert np.array_equal(back, arr)

    def test_scalar_round_trip(self, tmp_path):
        path = tmp_path / "s.tns"
        write_tns(path, np.array(2.5))
        back = read_tns(path)
        assert back.shape == () and back[()] == 2.5

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(path, np.zeros((2, 2), dtype=np.float32))
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        meta = json.loads(header)
        assert meta == {"shape": [2, 2], "dtype": "f32"}
        assert len(payload) == 16

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(path, np.zeros(4, dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FileFormatError, match="bytes"):
            read_tns(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        for header in (b"not json", b"[" * 100_000):  # the second nests past the recursion limit
            path.write_bytes(header + b"\n\x00\x00\x00\x00")
            # anchored: the temporary directory's name holds "header" too
            with pytest.raises(FileFormatError, match="^" + re.escape(f"{path}: TNS1 header: ")):
                read_tns(path)

    @pytest.mark.parametrize("header, message", [
        (b'{"shape": [1], "dtype": "f32"}\xff', "not UTF-8 text"),
        (b'{"shape": [1], "dtype": "f32"', "invalid JSON"),
        (b"[" * 100_000, "JSON nested too deeply"),
        (b'{"shape": [' + b"1" * 5001 + b'], "dtype": "f32"}', "integer literal too long"),
    ], ids=["not_utf8", "invalid_json", "nested_too_deeply", "integer_literal_too_long"])
    def test_undecodable_header_names_its_failure(self, tmp_path, header, message):
        path = tmp_path / "t.tns"
        path.write_bytes(header + b"\n\x00\x00\x00\x00")
        with pytest.raises(FileFormatError) as info:
            read_tns(path)
        assert str(info.value) == f"{path}: TNS1 header: {message}"

    def test_longest_decodable_integer(self):
        # int()'s default limit is 4300 digits: one more raises FileFormatError
        assert fileio.decode_json(b"9" * 4300, "x") == 10**4300 - 1
        with pytest.raises(FileFormatError, match="^x: integer literal too long$"):
            fileio.decode_json(b"9" * 4301, "x")

    def test_utf8_header_accepted(self, tmp_path):
        # the header is UTF-8 JSON like every other JSON input
        path = tmp_path / "t.tns"
        path.write_bytes('{"shape": [1], "dtype": "f32", "note": "\u00e9"}\n'.encode() + bytes(4))
        assert read_tns(path).tolist() == [0.0]

    # each header with the payload it would imply if read loosely: [2.7] as
    # [2] and [true, 2] as [1, 2] (two float32 zeros), and the huge shapes as
    # empty, which np.prod's wrap to 0 (or a zero extent) would accept
    @pytest.mark.parametrize(
        "header, payload",
        [
            ('{"shape": 5, "dtype": "f32"}', 20),
            ('{"shape": null, "dtype": "f32"}', 0),
            ("[1, 2]", 8),
            ('{"shape": [2], "dtype": ["f32"]}', 8),
            ('{"shape": [2.7], "dtype": "f32"}', 8),
            ('{"shape": [true, 2], "dtype": "f32"}', 8),
            ('{"shape": [4294967296, 4294967296], "dtype": "f32"}', 0),
            ('{"shape": [0, 1180591620717411303424], "dtype": "f32"}', 0),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, header, payload):
        path = tmp_path / "t.tns"
        path.write_bytes(header.encode("ascii") + b"\n" + bytes(payload))
        with pytest.raises(FileFormatError):
            read_tns(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        header = b'{"shape": [1], "dtype": "f64"}\n'
        path.write_bytes(header + np.array([np.inf]).tobytes())
        with pytest.raises(FileFormatError, match="non-finite"):
            read_tns(path)


class TestMasks:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.random((5, 7)) < 0.5
        path = tmp_path / "m.pgm"
        write_mask_pgm(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_pbm_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = rng.random((4, 6)) < 0.5
        path = tmp_path / "m.pbm"
        write_mask_pbm(path, mask)
        assert np.array_equal(read_mask(path), mask)

    def test_pgm_header_comments_skipped(self, tmp_path):
        path = tmp_path / "m.pgm"
        payload = bytes([255, 0, 0, 255])
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
        mask = read_mask(path)
        assert np.array_equal(mask, [[True, False], [False, True]])

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(FileFormatError, match="magic"):
            read_mask(path)

    def test_truncated_pgm(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(FileFormatError, match="truncated"):
            read_mask(path)


class TestSaliency:
    def test_pgm_values_scaled(self, tmp_path):
        path = tmp_path / "s.pgm"
        sal = np.array([[0.0, 0.5, 1.0]])
        write_saliency_pgm(path, sal)
        back = read_saliency(path)
        assert back.shape == (1, 3)
        assert np.allclose(back, [[0.0, 128 / 255, 1.0]], atol=1e-12)

    def test_tns_saliency(self, tmp_path):
        path = tmp_path / "s.tns"
        sal = np.linspace(0, 1, 12).reshape(3, 4)
        write_tns(path, sal)
        assert np.allclose(read_saliency(path), sal, atol=1e-12)

    def test_tns_saliency_requires_rank_two(self, tmp_path):
        path = tmp_path / "s.tns"
        write_tns(path, np.zeros((2, 2, 2)))
        with pytest.raises(FileFormatError, match="rank 2"):
            read_saliency(path)


# the PNM reader as it was before it parsed one read of the file (one byte
# per read(1) call, a Python list for PBM pixels), kept as the oracle


def streamed_pnm_header(fh, path):
    magic = fh.read(2)
    if magic not in (b"P5", b"P1"):
        raise FileFormatError(f"{path}: unsupported PNM magic {magic!r}")
    tokens = []
    want = 3 if magic == b"P5" else 2
    while len(tokens) < want:
        ch = fh.read(1)
        if not ch:
            raise FileFormatError(f"{path}: truncated PNM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            continue
        tok = b""
        while ch and not ch.isspace():
            tok += ch
            ch = fh.read(1)
        tokens.append(tok)
    try:
        nums = [int(t) for t in tokens]
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad PNM header tokens {tokens}") from exc
    if magic == b"P5":
        w, h, maxval = nums
    else:
        (w, h), maxval = nums, 1
    if w <= 0 or h <= 0:
        raise FileFormatError(f"{path}: bad PNM dimensions {w}x{h}")
    return magic, w, h, maxval


def streamed_pgm_gray(path):
    with open(path, "rb") as fh:
        magic, w, h, maxval = streamed_pnm_header(fh, path)
        if magic == b"P1":
            text = fh.read().decode("ascii", errors="replace")
            bits = [c for c in text if c in "01"]
            if len(bits) < w * h:
                raise FileFormatError(f"{path}: PBM has too few pixels")
            arr = np.array([int(c) for c in bits[: w * h]], dtype=np.uint8)
            return arr.reshape(h, w) * 255
        if maxval != 255:
            raise FileFormatError(f"{path}: only maxval 255 PGM supported, got {maxval}")
        raw = fh.read(w * h)
        if len(raw) != w * h:
            raise FileFormatError(f"{path}: PGM payload truncated")
        return np.frombuffer(raw, dtype=np.uint8).reshape(h, w).copy()


def pnm_variants(rng):
    """Well-formed and broken PGM/PBM byte strings: comments, odd spacing,
    bad tokens, short payloads, stray and non-ASCII bytes in PBM text."""
    spaces = [b" ", b"\n", b"\t", b"\r\n", b"  \n", b"\n# note\n", b" #x\n "]
    for _ in range(300):
        magic = [b"P5", b"P1", b"P6", b"P"][int(rng.choice(4, p=[0.45, 0.45, 0.05, 0.05]))]
        h, w = (int(v) if rng.random() < 0.9 else 0 for v in rng.integers(1, 6, size=2))
        fields = [str(w).encode(), str(h).encode()]
        if magic != b"P1":
            fields.append(b"255" if rng.random() < 0.9 else b"15")
        if rng.random() < 0.05:
            fields[int(rng.integers(len(fields)))] = b"1x"
        head = magic
        for f in fields:
            head += spaces[int(rng.integers(len(spaces)))] + f
        cut = rng.random() < 0.1
        head += b"" if cut else spaces[int(rng.integers(3))][:1]
        if magic == b"P1":
            symbols = [b"0", b"1", b" ", b"\n", b"2", b"\xff"]
            count = int(rng.integers(w * h // 2, 4 * w * h + 2))
            body = b"".join(symbols[i] for i in rng.integers(0, 6, size=count))
        else:
            count = int(rng.integers(w * h - 1, w * h + 3))
            body = rng.integers(0, 256, size=max(count, 0), dtype=np.uint8).tobytes()
        if rng.random() < 0.05:
            head, body = head[: int(rng.integers(2, len(head) + 1))], b""
        yield head + body


class TestPnmOracle:
    def test_reader_matches_streamed_parser(self, tmp_path):
        rng = np.random.default_rng(80)
        path = tmp_path / "m.pnm"
        outcomes = set()
        for data in pnm_variants(rng):
            path.write_bytes(data)
            try:
                ref = streamed_pgm_gray(path)
            except FileFormatError as exc:
                with pytest.raises(FileFormatError) as got:
                    fileio._read_pgm_gray(path)
                assert str(got.value) == str(exc), data
                outcomes.add(str(exc).split(": ", 1)[1][:12])
                continue
            got = fileio._read_pgm_gray(path)
            assert got.dtype == ref.dtype and got.shape == ref.shape, data
            assert np.array_equal(got, ref), data
            outcomes.add("ok")
        # every branch of the parser was exercised
        assert len(outcomes) >= 6, outcomes

    def test_pgm_payload_not_copied(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n3 1\n255\n\x00\x80\xff trailing")
        gray = fileio._read_pgm_gray(path)
        assert not gray.flags.owndata and not gray.flags.writeable
        assert gray.tolist() == [[0, 128, 255]]
        assert read_mask(path).tolist() == [[False, True, True]]
