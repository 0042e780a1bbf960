import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ballwav import ballfile, denoise, flag, flaglet, sht, tiling


def _wavelet_set(multires, real=False, tau=1.0):
    scheme = flag.build_ball_scheme(8, 8, tau)
    kern = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, 8, 8))
    f = flag.random_coeffs(8, 8, seed=6, real=real).values
    sig = flag.flag_synthesis(scheme, f)
    vals = sig.real if real else sig
    return scheme, kern, flaglet.flaglet_analysis(scheme, vals, kern,
                                                  multires=multires)


def test_samples_round_trip_bytes_identical(tmp_path):
    scheme = flag.build_ball_scheme(6, 5, tau=0.7)
    sig = flag.BallSignal(scheme=scheme, values=flag.flag_synthesis(
        scheme, flag.random_coeffs(6, 5, seed=0).values))
    bf = ballfile.pack_samples(sig)
    data = ballfile.to_bytes(bf)
    back = ballfile.from_bytes(data)
    assert ballfile.to_bytes(back) == data
    sig2 = ballfile.unpack_samples(back)
    assert np.array_equal(sig2.values, sig.values)
    assert sig2.scheme.L == 6 and sig2.scheme.tau == 0.7
    path = tmp_path / "s.flb"
    ballfile.write_ballfile(path, bf)
    assert ballfile.to_bytes(ballfile.read_ballfile(path)) == data


def test_real_samples_round_trip(tmp_path):
    scheme = flag.build_ball_scheme(4, 4)
    f = flag.random_coeffs(4, 4, seed=1, real=True).values
    sig = flag.flag_synthesis(scheme, f)
    real_sig = flag.BallSignal(scheme=scheme, values=sig.real)
    bf = ballfile.pack_samples(real_sig)
    assert not bf.complex_payload
    back = ballfile.from_bytes(ballfile.to_bytes(bf))
    assert back.samples.dtype == np.float64
    assert np.array_equal(back.samples, real_sig.values)


def test_coeffs_round_trip(tmp_path):
    f = flag.random_coeffs(5, 7, seed=2)
    bf = ballfile.pack_coeffs(f, tau=1.25)
    data = ballfile.to_bytes(bf)
    back = ballfile.from_bytes(data)
    assert ballfile.to_bytes(back) == data
    f2, tau = ballfile.unpack_coeffs(back)
    assert tau == 1.25
    assert np.array_equal(f2.values, f.values)
    assert (f2.L, f2.P) == (5, 7)


@pytest.mark.parametrize("multires", [False, True])
def test_wavelet_set_round_trip(multires, tmp_path):
    scheme, kern, w = _wavelet_set(multires)
    bf = ballfile.pack_wavelets(w, scheme.tau)
    data = ballfile.to_bytes(bf)
    back = ballfile.from_bytes(data)
    assert ballfile.to_bytes(back) == data
    w2, _ = ballfile.unpack_wavelets(back)
    assert w2.multires == multires
    assert w2.params == w.params
    assert np.array_equal(w2.scaling, w.scaling)
    for key in w.wavelets:
        assert np.array_equal(w2.wavelets[key], w.wavelets[key])
    # reconstruction from the reloaded set matches
    r1 = flaglet.flaglet_synthesis(w, kern, scheme)
    r2 = flaglet.flaglet_synthesis(w2, kern, scheme)
    assert np.max(np.abs(r1.values - r2.values)) == 0.0


def test_real_wavelet_set_payload_flag():
    scheme, _, w = _wavelet_set(True, real=True)
    bf = ballfile.pack_wavelets(w, scheme.tau)
    assert not bf.complex_payload
    back = ballfile.from_bytes(ballfile.to_bytes(bf))
    w2, _ = ballfile.unpack_wavelets(back)
    assert w2.scaling.dtype == np.float64


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4),
                                        st.integers(1, 4)),
                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
@settings(max_examples=40)
def test_any_sample_array_survives(arr):
    bf = ballfile.BallFile(kind=ballfile.KIND_SAMPLES, L=3, P=arr.shape[0],
                           tau=1.0, complex_payload=False, samples=arr)
    back = ballfile.from_bytes(ballfile.to_bytes(bf))
    assert np.array_equal(back.samples, arr)


def _coeff_bytes():
    f = flag.random_coeffs(3, 3, seed=3)
    return ballfile.to_bytes(ballfile.pack_coeffs(f))


def test_corrupted_magic_rejected():
    data = bytearray(_coeff_bytes())
    data[:4] = b"NOPE"
    with pytest.raises(ballfile.BallFileError):
        ballfile.from_bytes(bytes(data))


def test_unsupported_version_rejected():
    data = bytearray(_coeff_bytes())
    data[4] = 99
    with pytest.raises(ballfile.BallFileError):
        ballfile.from_bytes(bytes(data))


def test_unknown_flag_bits_rejected():
    data = bytearray(_coeff_bytes())
    data[7] |= 0x80
    with pytest.raises(ballfile.BallFileError):
        ballfile.from_bytes(bytes(data))


def test_unknown_kind_rejected():
    data = bytearray(_coeff_bytes())
    data[6] = 7
    with pytest.raises(ballfile.BallFileError):
        ballfile.from_bytes(bytes(data))
    with pytest.raises(ballfile.BallFileError):
        ballfile.to_bytes(ballfile.BallFile(kind=7, L=2, P=2, tau=1.0,
                                            complex_payload=False))


def test_truncated_and_trailing_bytes_rejected():
    data = _coeff_bytes()
    with pytest.raises(ballfile.BallFileError):
        ballfile.from_bytes(data[:-8])
    with pytest.raises(ballfile.BallFileError):
        ballfile.from_bytes(data[: ballfile._HEADER.size - 2])
    with pytest.raises(ballfile.BallFileError):
        ballfile.from_bytes(data + b"\x00")


def test_unpack_grid_shape_validation():
    scheme = flag.build_ball_scheme(4, 4)
    sig = flag.BallSignal(scheme=scheme, values=flag.flag_synthesis(
        scheme, flag.random_coeffs(4, 4, seed=4).values))
    bf = ballfile.pack_samples(sig)
    wrong = ballfile.BallFile(kind=bf.kind, L=8, P=bf.P, tau=bf.tau,
                              complex_payload=bf.complex_payload,
                              samples=bf.samples)
    with pytest.raises(ballfile.BallFileError):
        ballfile.unpack_samples(ballfile.from_bytes(ballfile.to_bytes(wrong)))
    with pytest.raises(ballfile.BallFileError):
        ballfile.unpack_coeffs(bf)


def test_unpack_wavelets_header_validation():
    scheme, _, w = _wavelet_set(True)
    bf = ballfile.pack_wavelets(w, scheme.tau)
    # drop one scale: the list no longer matches the tiling header
    short = dict(bf.wavelets)
    short.pop(sorted(short)[0])
    bad = ballfile.BallFile(kind=bf.kind, L=bf.L, P=bf.P, tau=bf.tau,
                            complex_payload=bf.complex_payload, lam=bf.lam,
                            nu=bf.nu, J0=bf.J0, J0p=bf.J0p,
                            multires=bf.multires, scaling=bf.scaling,
                            wavelets=short)
    with pytest.raises(ballfile.BallFileError):
        ballfile.unpack_wavelets(ballfile.from_bytes(ballfile.to_bytes(bad)))
    # dilation below 1 cannot produce valid params
    bad2 = ballfile.BallFile(kind=bf.kind, L=bf.L, P=bf.P, tau=bf.tau,
                             complex_payload=bf.complex_payload, lam=0.5,
                             nu=bf.nu, J0=bf.J0, J0p=bf.J0p,
                             multires=bf.multires, scaling=bf.scaling,
                             wavelets=bf.wavelets)
    with pytest.raises(ballfile.BallFileError):
        ballfile.unpack_wavelets(ballfile.from_bytes(ballfile.to_bytes(bad2)))


def test_unpack_wavelets_returns_packed_tau():
    _, _, w = _wavelet_set(True, tau=0.7)
    back = ballfile.from_bytes(ballfile.to_bytes(ballfile.pack_wavelets(w, 0.7)))
    _, tau = ballfile.unpack_wavelets(back)
    assert tau == 0.7


def test_unpack_wavelets_rejects_part_on_wrong_grid():
    # a full-grid part in a multires set: scale_scheme says it is too large
    scheme, _, w = _wavelet_set(True)
    bf = ballfile.pack_wavelets(w, scheme.tau)
    bf.wavelets[(1, 1)] = np.zeros(scheme.grid_shape, dtype=complex)
    with pytest.raises(ballfile.BallFileError, match="grid mismatch"):
        ballfile.unpack_wavelets(ballfile.from_bytes(ballfile.to_bytes(bf)))


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0])
def test_pack_rejects_tau_the_reader_refuses(tau):
    with pytest.raises(ValueError, match="tau"):
        ballfile.pack_coeffs(flag.random_coeffs(4, 4, seed=0), tau)
    _, _, w = _wavelet_set(False)
    with pytest.raises(ValueError, match="tau"):
        ballfile.pack_wavelets(w, tau)


def test_write_is_deterministic(tmp_path):
    scheme, _, w = _wavelet_set(False)
    bf = ballfile.pack_wavelets(w, scheme.tau)
    p1, p2 = tmp_path / "a.flb", tmp_path / "b.flb"
    ballfile.write_ballfile(p1, bf)
    ballfile.write_ballfile(p2, bf)
    assert p1.read_bytes() == p2.read_bytes()


def _small_wavelet_bytes():
    scheme = flag.build_ball_scheme(4, 4)
    kern = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, 4, 4))
    sig = flag.flag_synthesis(scheme, flag.random_coeffs(4, 4, seed=8, real=True).values)
    w = flaglet.flaglet_analysis(scheme, sig.real, kern, multires=True)
    return ballfile.to_bytes(ballfile.pack_wavelets(w, scheme.tau))


def _sample_bytes():
    scheme = flag.build_ball_scheme(3, 2)
    sig = flag.BallSignal(scheme=scheme, values=flag.flag_synthesis(
        scheme, flag.random_coeffs(3, 2, seed=9).values))
    return ballfile.to_bytes(ballfile.pack_samples(sig))


# valid containers of all three kinds: samples, coefficients, wavelet set
VALID = (_sample_bytes(), _coeff_bytes(), _small_wavelet_bytes())
_HEADER_FIELDS = (("magic", 0, "<4s"), ("version", 4, "<H"), ("kind", 6, "<B"),
                  ("flags", 7, "<B"), ("L", 8, "<I"), ("P", 12, "<I"),
                  ("tau", 16, "<d"))
_TILING_FIELDS = (("lam", 0, "<d"), ("nu", 8, "<d"), ("J0", 16, "<I"),
                  ("J0p", 20, "<I"), ("multires", 24, "<B"), ("n_scales", 25, "<I"))


def _fields(buf):
    """(name, offset, struct format) of every header and index field of a
    valid container, found by walking its layout."""
    fields = list(_HEADER_FIELDS)
    _, _, kind, flags, _, _, _ = ballfile._HEADER.unpack_from(buf)
    item = 16 if flags & 1 else 8
    pos = ballfile._HEADER.size

    def block(pos):
        fields.extend((name, pos + 4 * i, "<I")
                      for i, name in enumerate(("n_r", "n_theta", "n_phi")))
        n_r, n_t, n_p = ballfile._DIMS.unpack_from(buf, pos)
        return pos + ballfile._DIMS.size + item * n_r * n_t * n_p

    if kind == ballfile.KIND_SAMPLES:
        block(pos)
    elif kind == ballfile.KIND_WAVELETS:
        fields.extend((name, pos + off, fmt) for name, off, fmt in _TILING_FIELDS)
        n_scales = ballfile._TILING.unpack_from(buf, pos)[-1]
        pos = block(pos + ballfile._TILING.size)
        for _ in range(n_scales):
            fields.extend((("j", pos, "<I"), ("jp", pos + 4, "<I")))
            pos = block(pos + ballfile._SCALE.size)
    return fields


def _field_value(fmt):
    code = fmt[-1]
    if code == "s":
        return st.binary(min_size=4, max_size=4)
    if code == "d":
        return st.floats()
    bits = {"B": 8, "H": 16, "I": 32}[code]
    return st.one_of(st.integers(0, 8), st.integers(0, 2**bits - 1))


@st.composite
def _mutated(draw, buf):
    """buf with one to three bit flips, truncations or appended bytes."""
    buf = bytearray(buf)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "truncate", "append")))
        if op == "flip" and buf:
            bit = draw(st.integers(0, 8 * len(buf) - 1))
            buf[bit // 8] ^= 1 << (bit % 8)
        elif op == "truncate":
            del buf[draw(st.integers(0, len(buf))):]
        elif op == "append":
            buf += draw(st.binary(min_size=1, max_size=24))
    return bytes(buf)


@st.composite
def _field_set(draw, buf):
    """buf with one header or index field overwritten; the field name is
    drawn first, so that each kind of field is hit as often."""
    buf = bytearray(buf)
    fields = _fields(buf)
    name = draw(st.sampled_from(sorted({f[0] for f in fields})))
    _, off, fmt = draw(st.sampled_from([f for f in fields if f[0] == name]))
    struct.pack_into(fmt, buf, off, draw(_field_value(fmt)))
    return bytes(buf)


def _parses_or_rejects(buf):
    """from_bytes either raises BallFileError or returns a file that writes
    back to exactly the same bytes."""
    try:
        bf = ballfile.from_bytes(buf)
    except ballfile.BallFileError:
        return
    assert ballfile.to_bytes(bf) == buf


@given(st.one_of(st.binary(max_size=96),
                 st.builds(bytes.__add__,
                           st.sampled_from([b[:ballfile._HEADER.size] for b in VALID]),
                           st.binary(max_size=96))))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_fuzz_random_bytes(buf):
    _parses_or_rejects(buf)


@pytest.mark.parametrize("kind", range(3))
@given(data=st.data())
@settings(max_examples=150, derandomize=True, deadline=None)
def test_fuzz_header_fields(kind, data):
    _parses_or_rejects(data.draw(_field_set(VALID[kind])))


@given(st.sampled_from(VALID).flatmap(_mutated))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_fuzz_mutated_containers(buf):
    _parses_or_rejects(buf)


def _field_offset(buf, name, nth=0):
    return [off for n, off, _ in _fields(buf) if n == name][nth]


def test_repeated_scale_rejected():
    data = bytearray(VALID[2])
    first, second = _field_offset(data, "j", 0), _field_offset(data, "j", 1)
    data[second:second + 8] = data[first:first + 8]
    with pytest.raises(ballfile.BallFileError, match="repeated"):
        ballfile.from_bytes(bytes(data))


@pytest.mark.parametrize("value", [1.0 + 2.0**-52, 1e300, 1e308, np.inf, np.nan])
@pytest.mark.parametrize("name", ["lam", "nu"])
def test_unpack_wavelets_rejects_dilation_out_of_range(name, value):
    # a dilation of 1 + 2^-52 would list about 1e16 scales before any check
    data = bytearray(VALID[2])
    struct.pack_into("<d", data, _field_offset(data, name), value)
    with pytest.raises(ballfile.BallFileError, match="tiling header"):
        ballfile.unpack_wavelets(ballfile.from_bytes(bytes(data)))


@pytest.mark.parametrize("byte", [2, 255])
def test_multires_byte_must_be_0_or_1(byte):
    data = bytearray(VALID[2])
    data[_field_offset(data, "multires")] = byte
    with pytest.raises(ballfile.BallFileError, match="multires"):
        ballfile.from_bytes(bytes(data))


def test_empty_block_with_overflowing_dims_rejected():
    head = VALID[0][:ballfile._HEADER.size]
    with pytest.raises(ballfile.BallFileError):
        ballfile.from_bytes(head + ballfile._DIMS.pack(0, 2**32 - 1, 2**32 - 1))


# a header band-limit whose scheme could never be built: the readers must
# reject the grid from the header and the dims before they try
HUGE_L = 10**5


def test_unpack_samples_checks_the_grid_before_building_a_scheme():
    data = ballfile.to_bytes(ballfile.BallFile(
        kind=ballfile.KIND_SAMPLES, L=HUGE_L, P=1, tau=1.0, complex_payload=False,
        samples=np.zeros((1, 1, 1))))
    with pytest.raises(ballfile.BallFileError, match="sample grid"):
        ballfile.unpack_samples(ballfile.from_bytes(data))


def test_unpack_wavelets_checks_the_grid_before_building_a_scheme():
    # a scale list that matches the tiling header, all parts 1x1x1
    params = tiling.make_tiling_params(2.0, 2.0, HUGE_L, 3)
    tiny = np.zeros((1, 1, 1))
    data = ballfile.to_bytes(ballfile.BallFile(
        kind=ballfile.KIND_WAVELETS, L=HUGE_L, P=3, tau=1.0,
        complex_payload=False, lam=2.0, nu=2.0, J0=0, J0p=0, multires=True,
        scaling=tiny, wavelets={s: tiny for s in params.scales}))
    with pytest.raises(ballfile.BallFileError, match="scaling grid"):
        ballfile.unpack_wavelets(ballfile.from_bytes(data))


@pytest.mark.parametrize("multires", [False, True])
def test_unpack_wavelets_checks_every_part_without_a_scheme(monkeypatch, multires):
    # each part's grid follows from its band-limits alone; no table is built
    _, _, w = _wavelet_set(multires)
    bf = ballfile.from_bytes(ballfile.to_bytes(ballfile.pack_wavelets(w, 1.0)))

    def build(*args):
        raise AssertionError("a scheme was built")

    monkeypatch.setattr(flag, "build_ball_scheme", build)
    monkeypatch.setattr(sht, "build_angular_scheme", build)
    ws, _ = ballfile.unpack_wavelets(bf)
    assert ws.wavelets.keys() == w.wavelets.keys()
    for key, part in w.wavelets.items():
        for axis in range(3):
            shape = list(part.shape)
            shape[axis] += 1
            bad = ballfile.from_bytes(ballfile.to_bytes(ballfile.pack_wavelets(
                dataclasses.replace(w, wavelets={**w.wavelets, key: np.zeros(shape)}),
                1.0)))
            with pytest.raises(ballfile.BallFileError, match="grid mismatch"):
                ballfile.unpack_wavelets(bad)


def test_to_bytes_rejects_a_sample_block_that_is_not_3d():
    bf = ballfile.BallFile(kind=ballfile.KIND_SAMPLES, L=2, P=1, tau=1.0,
                           complex_payload=False, samples=np.zeros((2, 3)))
    with pytest.raises(ballfile.BallFileError,
                       match=r"sample arrays must be \(n_r, n_theta, n_phi\)"):
        ballfile.to_bytes(bf)


def test_to_bytes_rejects_coefficients_off_the_header():
    bf = ballfile.BallFile(kind=ballfile.KIND_COEFFS, L=3, P=2, tau=1.0,
                           complex_payload=True, coeffs=np.zeros((2, 8), dtype=complex))
    with pytest.raises(ballfile.BallFileError,
                       match="coefficient array shape does not match header"):
        ballfile.to_bytes(bf)


def test_unpack_samples_rejects_a_file_of_another_kind():
    coeffs = flag.random_coeffs(3, 2, seed=0)
    bf = ballfile.from_bytes(ballfile.to_bytes(ballfile.pack_coeffs(coeffs)))
    with pytest.raises(ballfile.BallFileError, match="not a samples file"):
        ballfile.unpack_samples(bf)


def test_unpack_wavelets_rejects_a_file_of_another_kind():
    coeffs = flag.random_coeffs(3, 2, seed=0)
    bf = ballfile.from_bytes(ballfile.to_bytes(ballfile.pack_coeffs(coeffs)))
    with pytest.raises(ballfile.BallFileError, match="not a wavelet-set file"):
        ballfile.unpack_wavelets(bf)
