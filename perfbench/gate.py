"""Correctness gate: the program's outputs against ``exact_density``.

Run outside every timed window. Each check samples pixels with a seeded
generator and compares the served value with the brute-force density:

* ε values must satisfy ``|v - F| <= eps * F + atol`` (plus a 1e-12
  relative allowance for the two summation orders), or for coreset-tier
  tiles the documented absolute form ``|v - F| <= eps * F_cap + atol``;
* τ masks must equal ``F >= tau``, except pixels whose density lies
  within 1e-9 relative of ``tau``, where the engine's tree-order sum and
  the scan's matrix-order sum may round to different sides;
* PNG tiles are decoded here, with no help from the program.

Every function returns a list of failure messages (empty when the check
passes).
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, List, Optional, Tuple

import numpy as np

#: Relative allowance for summation-order rounding in ε checks.
EPS_ROUNDING = 1e-12
#: Relative band around τ in which a mask pixel is a floating-point tie.
TAU_TIE = 1e-9

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def sample_pixels(num_pixels: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted distinct flat pixel indices."""
    count = min(count, num_pixels)
    return np.sort(rng.choice(num_pixels, size=count, replace=False))


def exact_at(renderer: Any, centers: np.ndarray) -> np.ndarray:
    """Brute-force density of ``renderer``'s data at ``centers``."""
    from repro.core.exact import exact_density

    return np.asarray(
        exact_density(
            renderer.points,
            centers,
            renderer.kernel,
            renderer.gamma,
            renderer.weight,
            point_weights=renderer.point_weights,
        )
    )


def check_eps(
    label: str,
    values: np.ndarray,
    exact: np.ndarray,
    eps: float,
    atol: float,
    cap: Optional[float] = None,
) -> List[str]:
    """ε contract on sampled pixels: ``|v - F| <= eps*F + atol``.

    A coreset-tier tile carries the absolute form instead,
    ``|v - F| <= eps*F_cap + atol``, with ``cap`` the density ceiling
    ``F_cap`` (docs/bounds.md, section 6).
    """
    values = np.asarray(values, dtype=np.float64)
    scale = exact if cap is None else cap
    allowed = eps * scale + atol + EPS_ROUNDING * np.abs(exact)
    bad = np.abs(values - exact) > allowed
    if not bad.any():
        return []
    worst = int(np.argmax(np.abs(values - exact) - allowed))
    return [
        f"{label}: {int(bad.sum())}/{bad.size} sampled pixels outside the "
        f"eps={eps} envelope; e.g. value {values[worst]!r} vs exact {exact[worst]!r}"
    ]


def check_tau(label: str, mask: np.ndarray, exact: np.ndarray, tau: float) -> List[str]:
    """τ predicate on sampled pixels, ties within :data:`TAU_TIE` excused."""
    mask = np.asarray(mask, dtype=bool)
    expected = exact >= tau
    tie = np.abs(exact - tau) <= TAU_TIE * abs(tau)
    bad = (mask != expected) & ~tie
    if not bad.any():
        return []
    return [
        f"{label}: {int(bad.sum())}/{bad.size} sampled pixels disagree with F >= tau"
    ]


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB/RGBA, non-interlaced PNG to ``(h, w, 3)`` uint8."""
    if not data.startswith(PNG_SIGNATURE):
        raise ValueError("not a PNG")
    offset = len(PNG_SIGNATURE)
    header = b""
    idat = []
    while offset < len(data):
        (length,) = struct.unpack(">I", data[offset:offset + 4])
        tag = data[offset + 4:offset + 8]
        payload = data[offset + 8:offset + 8 + length]
        (crc,) = struct.unpack(">I", data[offset + 8 + length:offset + 12 + length])
        if zlib.crc32(tag + payload) != crc:
            raise ValueError(f"bad CRC in {tag!r} chunk")
        if tag == b"IHDR":
            header = payload
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
        offset += 12 + length
    width, height, depth, colour, _comp, _filt, interlace = struct.unpack(">IIBBBBB", header)
    if depth != 8 or colour not in (2, 6) or interlace != 0:
        raise ValueError(f"unsupported PNG: depth={depth} colour={colour} interlace={interlace}")
    channels = 3 if colour == 2 else 4
    stride = width * channels
    raw = zlib.decompress(b"".join(idat))
    if len(raw) != height * (stride + 1):
        raise ValueError("PNG data length does not match its header")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = np.zeros((height, stride), dtype=np.uint8)
    previous = np.zeros(stride, dtype=np.int64)
    for y in range(height):
        kind = int(rows[y, 0])
        line = rows[y, 1:].astype(np.int64)
        if kind == 0:
            current = line
        elif kind == 2:
            current = (line + previous) % 256
        elif kind in (1, 3, 4):
            current = np.zeros(stride, dtype=np.int64)
            for i in range(stride):
                left = int(current[i - channels]) if i >= channels else 0
                up = int(previous[i])
                if kind == 1:
                    pred = left
                elif kind == 3:
                    pred = (left + up) // 2
                else:
                    upleft = int(previous[i - channels]) if i >= channels else 0
                    pred = _paeth(left, up, upleft)
                current[i] = (int(line[i]) + pred) % 256
        else:
            raise ValueError(f"unknown PNG filter {kind}")
        out[y] = current
        previous = current
    return out.reshape(height, width, channels)[:, :, :3]


def tau_tile_mask(data: bytes) -> Tuple[np.ndarray, List[str]]:
    """The hot mask a τ tile's PNG shows, plus any colour it should not have."""
    from repro.visual.colormap import two_color_map

    hot, cold = two_color_map(np.array([True, False]))
    rgb = decode_png(data)
    is_hot = np.all(rgb == hot, axis=2)
    is_cold = np.all(rgb == cold, axis=2)
    stray = int((~is_hot & ~is_cold).sum())
    problems = [f"{stray} pixels are neither the hot nor the cold colour"] if stray else []
    return is_hot, problems
