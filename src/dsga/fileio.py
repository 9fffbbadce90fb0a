"""File formats used by the CLI and pipeline.

TNS1 tensors: one JSON header line ``{"shape":[...],"dtype":"f32"|"f64"}``
terminated by a newline, followed immediately by raw little-endian scalars
in row-major order.

JSON inputs (configs, manifests, trace lines, TNS1 headers) are UTF-8 text,
decoded by ``decode_json``.

Masks: binary PGM (P5, maxval 255, foreground = 255) or plain-text PBM (P1,
1 = foreground). Saliency maps: 8-bit PGM read as value/255, or TNS1.

Prompts: JSON lines ``{"x":int,"y":int,"confidence":real,"cell":[i,j]}``.
Instance manifests: JSON object with an ``"instances"`` list of
``{"mask": path, "score": real}`` entries (optional ``"prompt_index"``).
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .numerics import check_finite

__all__ = [
    "FileFormatError",
    "read_tns",
    "write_tns",
    "read_mask",
    "write_mask_pgm",
    "write_mask_pbm",
    "read_saliency",
    "write_saliency_pgm",
    "write_json",
    "decode_json",
    "read_json",
    "write_prompts_jsonl",
]

_TNS_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
# PNM header lexing: runs of whitespace (bytes.isspace) and of anything else
_SPACES = re.compile(rb"\s*")
_TOKEN = re.compile(rb"\S*")


class FileFormatError(Exception):
    """Raised for corrupt or unsupported input files."""


def write_tns(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.dtype == np.float64:
        code, dt = "f64", _TNS_DTYPES["f64"]
    else:
        code, dt = "f32", _TNS_DTYPES["f32"]
    header = json.dumps({"shape": list(arr.shape), "dtype": code}) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(arr, dtype=dt).tobytes())


def read_tns(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = decode_json(fh.readline(), f"{path}: TNS1 header")
        if not isinstance(header, dict):
            raise FileFormatError(f"{path}: TNS1 header is not a JSON object")
        shape, code = header.get("shape"), header.get("dtype")
        # JSON true and 2.7 are no extents: a bool is an int, and int() truncates
        if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
            raise FileFormatError(f"{path}: bad TNS1 shape {shape!r}")
        if code not in ("f32", "f64"):
            raise FileFormatError(f"{path}: bad TNS1 dtype {code!r}")
        dt = _TNS_DTYPES[code]
        raw = fh.read()
    expected = math.prod(shape) * dt.itemsize  # exact: np.prod wraps at 2**64
    if len(raw) != expected:
        raise FileFormatError(
            f"{path}: payload is {len(raw)} bytes, header implies {expected}"
        )
    try:  # an empty payload can still claim extents numpy cannot index
        arr = np.frombuffer(raw, dtype=dt).reshape(shape)
    except ValueError as exc:
        raise FileFormatError(f"{path}: shape {shape} is too large") from exc
    # native byte order + writable copy; construction validates finiteness
    arr = arr.astype(dt.newbyteorder("="), copy=True)
    try:
        check_finite(arr, str(path))
    except Exception as exc:
        raise FileFormatError(f"{path}: non-finite scalar in payload") from exc
    return arr


def _read_pnm_header(data: bytes, path) -> tuple[bytes, int, int, int, int]:
    """Parse magic, width, height (and maxval for PGM) from the file's bytes,
    skipping # comments; also returns the payload offset, one whitespace
    byte past the last header token."""
    magic = data[:2]
    if magic not in (b"P5", b"P1"):
        raise FileFormatError(f"{path}: unsupported PNM magic {magic!r}")
    tokens = []
    want = 3 if magic == b"P5" else 2
    pos = 2
    while len(tokens) < want:
        pos = _SPACES.match(data, pos).end()
        if pos == len(data):
            raise FileFormatError(f"{path}: truncated PNM header")
        if data[pos : pos + 1] == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol < 0 else eol + 1
            continue
        end = _TOKEN.match(data, pos).end()
        tokens.append(data[pos:end])
        pos = end + 1
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
    return magic, w, h, maxval, min(pos, len(data))


def _read_pgm_gray(path) -> np.ndarray:
    """Gray levels [H, W] uint8 of a PGM or PBM file (PBM 1 -> 255), read-only:
    a PGM payload is a view of the file's bytes, not a copy."""
    with open(path, "rb", buffering=0) as fh:  # one read of the whole file
        data = fh.read()
    magic, w, h, maxval, offset = _read_pnm_header(data, path)
    if magic == b"P1":
        text = np.frombuffer(data, dtype=np.uint8, offset=offset)
        bits = text[(text == ord("0")) | (text == ord("1"))]
        if bits.size < w * h:
            raise FileFormatError(f"{path}: PBM has too few pixels")
        return ((bits[: w * h] - ord("0")) * 255).reshape(h, w)
    if maxval != 255:
        raise FileFormatError(f"{path}: only maxval 255 PGM supported, got {maxval}")
    if len(data) - offset < w * h:
        raise FileFormatError(f"{path}: PGM payload truncated")
    return np.frombuffer(data, dtype=np.uint8, count=w * h, offset=offset).reshape(h, w)


def read_mask(path) -> np.ndarray:
    """Read a PGM/PBM mask as a bool [H, W] array (foreground = value > 127)."""
    return _read_pgm_gray(path) > 127


def _write_pgm(path, gray: np.ndarray) -> None:
    """A [H, W] uint8 array as binary PGM (P5, maxval 255)."""
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def write_mask_pgm(path, mask: np.ndarray) -> None:
    _write_pgm(path, np.asarray(mask).astype(np.uint8) * 255)


def write_mask_pbm(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask).astype(np.uint8)
    h, w = mask.shape
    lines = [f"P1\n{w} {h}\n"]
    for row in mask:
        lines.append(" ".join(str(int(v)) for v in row) + "\n")
    Path(path).write_bytes("".join(lines).encode("ascii"))


def read_saliency(path) -> np.ndarray:
    """Read a saliency map: 8-bit PGM (value/255) or TNS1, as float64 [H, W]."""
    path = Path(path)
    if path.suffix.lower() in (".pgm", ".pbm"):
        return _read_pgm_gray(path).astype(np.float64) / 255.0
    arr = read_tns(path).astype(np.float64)
    if arr.ndim != 2:
        raise FileFormatError(f"{path}: saliency TNS1 must be rank 2, got {arr.shape}")
    return arr


def write_saliency_pgm(path, sal: np.ndarray) -> None:
    sal = np.clip(np.asarray(sal, dtype=np.float64), 0.0, 1.0)
    _write_pgm(path, np.rint(sal * 255.0).astype(np.uint8))


def write_json(path, obj) -> None:
    """Indented JSON with sorted keys, so repeated runs are byte-identical; a
    path of None (or empty) writes it to stdout."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def decode_json(data: bytes, where):
    """The JSON value in the UTF-8 bytes ``data``; other bytes, JSON nested
    too deeply, or an integer past Python's int string limit (4300 digits by
    default) raise FileFormatError naming ``where`` and the failure."""
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{where}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{where}: invalid JSON") from exc
    except ValueError as exc:  # the one other ValueError: int() refusing the digits
        raise FileFormatError(f"{where}: integer literal too long") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{where}: JSON nested too deeply") from exc


def read_json(path):
    """The JSON value in the UTF-8 file ``path`` (see decode_json)."""
    return decode_json(Path(path).read_bytes(), path)


def write_prompts_jsonl(path, prompts) -> None:
    """One ``{"x","y","confidence","cell"}`` JSON line per point prompt."""
    with open(path, "w") as fh:
        for p in prompts:
            fh.write(
                '{"x":%d,"y":%d,"confidence":%.6f,"cell":[%d,%d]}\n'
                % (p.x, p.y, p.confidence, p.source_cell[0], p.source_cell[1])
            )
