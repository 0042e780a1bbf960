"""Binary container for ball data: samples, coefficients, or wavelet sets.

Layout, all little-endian:
  magic "FLB1" | version u16 | kind u8 | flags u8 | L u32 | P u32 | tau f64
  kind 0 (samples):      n_r u32, n_theta u32, n_phi u32, payload
  kind 1 (coefficients): payload of P*L*L values, p-major
  kind 2 (wavelet set):  lambda f64, nu f64, J0 u32, J0p u32, multires u8,
                         n_scales u32, scaling block, then per scale, in
                         ascending (j, jp) order and each scale once,
                         j u32, jp u32, followed by its own sample block
Sample blocks are n_r u32, n_theta u32, n_phi u32 and the row-major payload.
flags bit 0 set means complex values stored as interleaved f64 pairs; clear
means plain f64. Writing what was read reproduces the bytes exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"FLB1"
VERSION = 1

KIND_SAMPLES = 0
KIND_COEFFS = 1
KIND_WAVELETS = 2

_HEADER = struct.Struct("<4sHBBIId")
_DIMS = struct.Struct("<III")
_TILING = struct.Struct("<ddIIBI")
_SCALE = struct.Struct("<II")


class BallFileError(Exception):
    """Malformed or truncated container."""


@dataclass
class BallFile:
    """Parsed container; exactly the fields for its kind are populated."""

    kind: int
    L: int
    P: int
    tau: float
    complex_payload: bool
    samples: np.ndarray = None
    coeffs: np.ndarray = None
    lam: float = None
    nu: float = None
    J0: int = None
    J0p: int = None
    multires: bool = None
    scaling: np.ndarray = None
    wavelets: dict = None


def _encode_array(arr, complex_payload):
    if complex_payload:
        return np.ascontiguousarray(arr, dtype="<c16").tobytes()
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _sample_block(arr, complex_payload):
    if arr.ndim != 3:
        raise BallFileError("sample arrays must be (n_r, n_theta, n_phi)")
    return _DIMS.pack(*arr.shape) + _encode_array(arr, complex_payload)


def to_bytes(bf):
    flags = 1 if bf.complex_payload else 0
    out = [_HEADER.pack(MAGIC, VERSION, bf.kind, flags, bf.L, bf.P, bf.tau)]
    if bf.kind == KIND_SAMPLES:
        out.append(_sample_block(bf.samples, bf.complex_payload))
    elif bf.kind == KIND_COEFFS:
        if bf.coeffs.shape != (bf.P, bf.L * bf.L):
            raise BallFileError("coefficient array shape does not match header")
        out.append(_encode_array(bf.coeffs, bf.complex_payload))
    elif bf.kind == KIND_WAVELETS:
        keys = sorted(bf.wavelets)
        out.append(_TILING.pack(bf.lam, bf.nu, bf.J0, bf.J0p,
                                1 if bf.multires else 0, len(keys)))
        out.append(_sample_block(bf.scaling, bf.complex_payload))
        for j, jp in keys:
            out.append(_SCALE.pack(j, jp))
            out.append(_sample_block(bf.wavelets[(j, jp)], bf.complex_payload))
    else:
        raise BallFileError("unknown kind %d" % bf.kind)
    return b"".join(out)


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.buf):
            raise BallFileError("truncated file while reading %s" % what)
        piece = self.buf[self.pos:self.pos + n]
        self.pos += n
        return piece

    def unpack(self, st, what):
        return st.unpack(self.take(st.size, what))

    def array(self, count, complex_payload, what):
        if complex_payload:
            raw = self.take(16 * count, what)
            return np.frombuffer(raw, dtype="<c16").astype(np.complex128)
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def sample_block(self, complex_payload, what):
        dims = self.unpack(_DIMS, what + " dims")
        arr = self.array(dims[0] * dims[1] * dims[2], complex_payload, what)
        try:
            return arr.reshape(dims)
        except ValueError:  # an empty block whose other dims overflow
            raise BallFileError("%s dims %r too large" % (what, dims)) from None


def from_bytes(buf):
    rd = _Reader(buf)
    magic, version, kind, flags, L, P, tau = rd.unpack(_HEADER, "header")
    if magic != MAGIC:
        raise BallFileError("bad magic %r" % magic)
    if version != VERSION:
        raise BallFileError("unsupported version %d" % version)
    if flags & ~1:
        raise BallFileError("unknown flag bits 0x%x" % flags)
    if L == 0 or P == 0:
        raise BallFileError("band-limits must be >= 1, got L=%d P=%d" % (L, P))
    if not (np.isfinite(tau) and tau > 0):
        raise BallFileError("tau must be positive and finite, got %r" % tau)
    cplx = bool(flags & 1)
    bf = BallFile(kind=kind, L=L, P=P, tau=tau, complex_payload=cplx)
    if kind == KIND_SAMPLES:
        bf.samples = rd.sample_block(cplx, "samples")
    elif kind == KIND_COEFFS:
        bf.coeffs = rd.array(P * L * L, cplx, "coefficients").reshape(P, L * L)
    elif kind == KIND_WAVELETS:
        lam, nu, J0, J0p, multires, n_scales = rd.unpack(_TILING, "tiling")
        if multires not in (0, 1):
            raise BallFileError("multires byte must be 0 or 1, got %d" % multires)
        bf.lam, bf.nu, bf.J0, bf.J0p = lam, nu, J0, J0p
        bf.multires = bool(multires)
        bf.scaling = rd.sample_block(cplx, "scaling")
        bf.wavelets = {}
        prev = None
        for _ in range(n_scales):
            key = rd.unpack(_SCALE, "scale index")
            if prev is not None and key <= prev:
                raise BallFileError("scale (%d,%d) repeated or out of order" % key)
            bf.wavelets[key] = rd.sample_block(cplx, "scale (%d,%d)" % key)
            prev = key
    else:
        raise BallFileError("unknown kind %d" % kind)
    if rd.pos != len(buf):
        raise BallFileError("%d trailing bytes" % (len(buf) - rd.pos))
    return bf


def write_ballfile(path, bf):
    data = to_bytes(bf)
    with open(path, "wb") as fh:
        fh.write(data)


def read_ballfile(path):
    with open(path, "rb") as fh:
        return from_bytes(fh.read())


# ---------------------------------------------------------------------------
# Converters between containers and the in-memory types


def pack_samples(signal):
    vals = signal.values
    return BallFile(kind=KIND_SAMPLES, L=signal.scheme.L, P=signal.scheme.P,
                    tau=signal.scheme.tau, complex_payload=np.iscomplexobj(vals),
                    samples=vals)


def _check_grid(arr, L, P, what):
    """Tie a sample block to band-limits (L, P) without building a scheme of
    them: its dims must be (P, L, 2L-1)."""
    if arr.shape != (P, L, 2 * L - 1):
        raise BallFileError("%s grid mismatch: %r at L=%d, P=%d" % (what, arr.shape, L, P))


def unpack_samples(bf):
    from . import flag

    if bf.kind != KIND_SAMPLES:
        raise BallFileError("not a samples file")
    _check_grid(bf.samples, bf.L, bf.P, "sample")
    return flag.BallSignal(scheme=flag.build_ball_scheme(bf.L, bf.P, bf.tau),
                           values=bf.samples)


def _file_tau(tau):
    """tau as a float that from_bytes accepts; ValueError otherwise."""
    tau = float(tau)
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError("tau must be positive and finite, got %r" % tau)
    return tau


def pack_coeffs(coeffs, tau=1.0):
    return BallFile(kind=KIND_COEFFS, L=coeffs.L, P=coeffs.P, tau=_file_tau(tau),
                    complex_payload=np.iscomplexobj(coeffs.values),
                    coeffs=coeffs.values)


def unpack_coeffs(bf):
    from . import flag

    if bf.kind != KIND_COEFFS:
        raise BallFileError("not a coefficient file")
    return flag.FlagCoeffs(L=bf.L, P=bf.P, values=bf.coeffs), bf.tau


def pack_wavelets(ws, tau):
    return BallFile(kind=KIND_WAVELETS, L=ws.params.L, P=ws.params.P,
                    tau=_file_tau(tau), complex_payload=not ws.real,
                    lam=ws.params.lam, nu=ws.params.nu,
                    J0=ws.params.J0, J0p=ws.params.J0p, multires=ws.multires,
                    scaling=ws.scaling, wavelets=dict(ws.wavelets))


def unpack_wavelets(bf):
    from . import flaglet, tiling

    if bf.kind != KIND_WAVELETS:
        raise BallFileError("not a wavelet-set file")
    _check_grid(bf.scaling, bf.L, bf.P, "scaling")
    try:
        params = tiling.make_tiling_params(bf.lam, bf.nu, bf.L, bf.P,
                                           J0=bf.J0, J0p=bf.J0p)
    except ValueError as exc:
        raise BallFileError("invalid tiling header: %s" % exc)
    if sorted(bf.wavelets) != params.scales:
        raise BallFileError("scale list does not match tiling header")
    for key, arr in bf.wavelets.items():
        _check_grid(arr, *flaglet.scale_bandlimits(params, *key, bf.multires),
                    "scale (%d,%d)" % key)
    ws = flaglet.WaveletCoeffSet(params=params, scaling=bf.scaling,
                                 wavelets=dict(bf.wavelets), multires=bf.multires)
    return ws, bf.tau
