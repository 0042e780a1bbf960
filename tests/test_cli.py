import contextlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballwav import ballfile, cli, flag


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_roundtrip_flag_ok(capsys):
    rc, out, _ = run(capsys, "roundtrip", "--transform", "flag",
                     "--L", "8", "--P", "8")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "8" and fields[1] == "8"
    assert int(fields[2]) == 8 * 8 * 15
    assert float(fields[-1]) < 1e-10


def test_roundtrip_flaglet_multires_ok(capsys):
    rc, out, _ = run(capsys, "roundtrip", "--transform", "flaglet",
                     "--L", "8", "--P", "8", "--multires")
    assert rc == 0
    assert float(out.strip().splitlines()[1].split(",")[-1]) < 1e-9


def test_roundtrip_impossible_tolerance(capsys):
    rc, out, err = run(capsys, "roundtrip", "--transform", "flag",
                       "--L", "8", "--P", "8", "--tol", "1e-30")
    assert rc == 1
    assert "tolerance exceeded" in err


@pytest.mark.parametrize("option, value", [
    ("--tol", "nan"),
    ("--tol", "-1"),
    # tau**1.5 or tau**-1.5 leaves double range
    ("--tau", "1e250"),
    ("--tau", "1e-250"),
])
def test_roundtrip_bad_numeric_argument_is_usage_error(capsys, option, value):
    rc, out, err = run(capsys, "roundtrip", "--L", "4", "--P", "4", option, value)
    assert rc == 2 and out == ""
    assert err.startswith("error: ")


def test_roundtrip_nan_error_exceeds_tolerance(capsys, monkeypatch):
    rec = cli.BenchRecord(L=4, P=4, N_samples=112, t_synthesis_s=0.0,
                          t_analysis_s=0.0, t_c_s=0.0, epsilon_max=float("nan"))
    monkeypatch.setattr(cli, "time_flag_roundtrip", lambda *args, **kwargs: rec)
    rc, _, err = run(capsys, "roundtrip", "--L", "4", "--P", "4")
    assert rc == 1
    assert "tolerance exceeded" in err


def test_roundtrip_bad_band_limit(capsys):
    rc, _, err = run(capsys, "roundtrip", "--transform", "flag",
                     "--L", "0", "--P", "8")
    assert rc == 2
    assert "error" in err


def test_bench_sweep_and_slope(capsys):
    rc, out, _ = run(capsys, "bench", "--transform", "flag",
                     "--Lmin", "4", "--Lmax", "8", "--reps", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert lines[1].startswith("4,4,") and lines[2].startswith("8,8,")
    assert lines[3].startswith("# fitted_slope=")
    float(lines[3].split("=")[1])


def test_bench_usage_errors(capsys):
    assert run(capsys, "bench", "--reps", "0")[0] == 2
    assert run(capsys, "bench", "--Lmin", "6")[0] == 2
    assert run(capsys, "bench", "--Lmin", "16", "--Lmax", "8")[0] == 2


def test_synth_writes_coefficient_file(tmp_path, capsys):
    out = tmp_path / "sig.flb"
    rc, text, _ = run(capsys, "synth", "--kind", "sparse", "--L", "16",
                      "--P", "16", "--out", str(out))
    assert rc == 0
    assert "wrote" in text
    bf = ballfile.read_ballfile(out)
    assert bf.kind == ballfile.KIND_COEFFS
    coeffs, tau = ballfile.unpack_coeffs(bf)
    assert (coeffs.L, coeffs.P, tau) == (16, 16, 1.0)
    assert np.sum(np.abs(coeffs.values) ** 2) == pytest.approx(1.0, rel=1e-12)

    out2 = tmp_path / "g.flb"
    rc2, _, _ = run(capsys, "synth", "--kind", "gaussian", "--L", "8",
                    "--P", "8", "--out", str(out2))
    assert rc2 == 0
    assert ballfile.read_ballfile(out2).kind == ballfile.KIND_COEFFS


@pytest.mark.parametrize("tau", ["nan", "0"])
def test_synth_rejects_tau_the_reader_refuses(tmp_path, capsys, tau):
    out = tmp_path / "sig.flb"
    rc, text, err = run(capsys, "synth", "--kind", "gaussian", "--L", "8",
                        "--P", "8", "--tau", tau, "--out", str(out))
    assert rc == 2 and text == ""
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("atoms", ["0", "-2"])
def test_synth_rejects_a_sparse_signal_without_atoms(tmp_path, capsys, atoms):
    out = tmp_path / "sig.flb"
    rc, text, err = run(capsys, "synth", "--kind", "sparse", "--L", "8",
                        "--P", "8", "--atoms=" + atoms, "--out", str(out))
    assert rc == 2 and text == ""
    assert err.startswith("error: ")
    assert not out.exists()


def _synth(tmp_path, capsys, L="32"):
    path = tmp_path / "clean.flb"
    rc, _, _ = run(capsys, "synth", "--kind", "sparse", "--L", L, "--P", L,
                   "--seed", "1", "--out", str(path))
    assert rc == 0
    return path


@pytest.mark.parametrize("seed", ["1", "2"])
def test_denoise_improves_snr(tmp_path, capsys, seed):
    clean = _synth(tmp_path, capsys)
    out = tmp_path / "den.flb"
    rc, text, _ = run(capsys, "denoise", "--input", str(clean),
                      "--output", str(out), "--snr-in", "5", "--seed", seed)
    assert rc == 0
    lines = text.strip().splitlines()
    assert lines[0] == "snr_in_db,snr_out_db"
    snr_in, snr_out = (float(v) for v in lines[1].split(","))
    assert snr_in == pytest.approx(5.0, abs=1e-3)
    assert snr_out > snr_in
    assert out.exists()


def test_denoise_takes_the_real_path_for_a_real_coeff_file(tmp_path, capsys, monkeypatch):
    # a coefficient file carries no real flag; synth writes conjugate-symmetric
    # coefficients, so denoise must read the flag off them
    from ballwav import sht

    clean = _synth(tmp_path, capsys, L="8")
    seen, checks = [], []
    sample, check = flag.flag_synthesis, sht.check_real

    def sample_spy(scheme, coeffs, real=False, **kwargs):
        seen.append(real)
        return sample(scheme, coeffs, real, **kwargs)

    def check_spy(coeffs):
        checks.append(coeffs.shape)
        return check(coeffs)

    monkeypatch.setattr(flag, "flag_synthesis", sample_spy)
    monkeypatch.setattr(sht, "check_real", check_spy)
    rc, text, _ = run(capsys, "denoise", "--input", str(clean),
                      "--output", str(tmp_path / "den.flb"), "--snr-in", "5",
                      "--seed", "1")
    # every part is sampled on the real path; the coefficients are checked
    # twice: once to read the flag off the file, once by the pipeline
    assert rc == 0 and seen and all(seen)
    assert checks == [(8, 64)] * 2
    # the SNRs the complex path printed for this input and seed
    assert text.strip().splitlines()[1] == "5.0000,11.7435"


def test_denoise_zero_sigma_passthrough(tmp_path, capsys):
    clean = _synth(tmp_path, capsys, L="16")
    out = tmp_path / "den.flb"
    rc, text, _ = run(capsys, "denoise", "--input", str(clean),
                      "--output", str(out), "--sigma", "0")
    assert rc == 0
    assert text.strip().splitlines()[1] == "inf,inf"
    orig, _ = ballfile.unpack_coeffs(ballfile.read_ballfile(clean))
    den, _ = ballfile.unpack_coeffs(ballfile.read_ballfile(out))
    assert np.array_equal(orig.values, den.values)


def test_denoise_samples_input_round_trips_kind(tmp_path, capsys):
    scheme = flag.build_ball_scheme(16, 16)
    f = flag.random_coeffs(16, 16, seed=0, real=True).values
    sig = flag.BallSignal(scheme=scheme, values=flag.flag_synthesis(scheme, f))
    src = tmp_path / "grid.flb"
    ballfile.write_ballfile(src, ballfile.pack_samples(sig))
    out = tmp_path / "den.flb"
    rc, _, _ = run(capsys, "denoise", "--input", str(src),
                   "--output", str(out), "--sigma", "0")
    assert rc == 0
    assert ballfile.read_ballfile(out).kind == ballfile.KIND_SAMPLES


def test_denoise_keeps_a_real_samples_file_real(tmp_path, capsys):
    # the noise is real, so denoising a float-payload grid gives one back
    scheme = flag.build_ball_scheme(8, 8)
    f = flag.random_coeffs(8, 8, seed=1, real=True).values
    grid = flag.flag_synthesis(scheme, f).real
    src = tmp_path / "grid.flb"
    ballfile.write_ballfile(src, ballfile.pack_samples(
        flag.BallSignal(scheme=scheme, values=grid)))
    out = tmp_path / "den.flb"
    rc, _, _ = run(capsys, "denoise", "--input", str(src),
                   "--output", str(out), "--snr-in", "5")
    assert rc == 0
    bf = ballfile.read_ballfile(out)
    assert bf.kind == ballfile.KIND_SAMPLES and not bf.complex_payload
    assert out.stat().st_size == src.stat().st_size


def test_denoise_rejects_corrupt_input(tmp_path, capsys):
    bad = tmp_path / "bad.flb"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    rc, _, err = run(capsys, "denoise", "--input", str(bad),
                     "--output", str(tmp_path / "o.flb"))
    assert rc == 3
    assert "format error" in err


def test_denoise_rejects_a_grid_off_the_header(tmp_path, capsys):
    # the samples grid is 1x1x1 under a header of L=10**5: a format error
    # before any scheme of that band-limit is built
    src = tmp_path / "in.flb"
    ballfile.write_ballfile(src, ballfile.BallFile(
        kind=ballfile.KIND_SAMPLES, L=10**5, P=1, tau=1.0,
        complex_payload=False, samples=np.zeros((1, 1, 1))))
    out = tmp_path / "o.flb"
    rc, _, err = run(capsys, "denoise", "--input", str(src), "--output", str(out))
    assert rc == 3
    assert "format error" in err
    assert not out.exists()


@pytest.mark.parametrize("L, P, tau, code", [
    (4, 4, float("nan"), 3),
    (4, 4, float("inf"), 3),
    (4, 4, -1.0, 3),
    (4, 4, 0.0, 3),
    (0, 4, 1.0, 3),
    (4, 0, 1.0, 3),
    # well formed, but a single radial order cannot be tiled: a usage error
    (4, 1, 1.0, 2),
])
def test_denoise_header_values_exit_code(tmp_path, capsys, L, P, tau, code):
    src = tmp_path / "in.flb"
    ballfile.write_ballfile(src, ballfile.BallFile(
        kind=ballfile.KIND_COEFFS, L=L, P=P, tau=tau, complex_payload=True,
        coeffs=np.ones((P, L * L), dtype=complex)))
    rc, _, err = run(capsys, "denoise", "--input", str(src),
                     "--output", str(tmp_path / "o.flb"))
    assert rc == code
    assert ("format error" in err) == (code == 3)


@pytest.mark.parametrize("option, value", [
    ("--sigma", "nan"),
    ("--sigma", "inf"),
    ("--snr-in", "nan"),
    # the noise scale would overflow or flush to zero
    ("--snr-in", "1e6"),
    ("--snr-in", "-1e6"),
    ("--multiplier", "nan"),
    ("--multiplier", "-1"),
])
def test_denoise_bad_numeric_argument_is_usage_error(tmp_path, capsys, option, value):
    clean = _synth(tmp_path, capsys, L="8")
    out = tmp_path / "den.flb"
    # option=value, since argparse reads a bare -1e6 as an option name
    rc, text, err = run(capsys, "denoise", "--input", str(clean),
                        "--output", str(out), "%s=%s" % (option, value))
    assert rc == 2 and text == ""
    assert err.startswith("error: ")
    assert not out.exists()


def test_denoise_prints_snrs_beyond_double_range(tmp_path, capsys):
    # the noise power 1e400 overflows; its decibels do not
    clean = tmp_path / "g.flb"
    assert run(capsys, "synth", "--kind", "gaussian", "--L", "4", "--P", "4",
               "--out", str(clean))[0] == 0
    rc, text, _ = run(capsys, "denoise", "--input", str(clean),
                      "--output", str(tmp_path / "d.flb"), "--sigma", "1e200")
    assert rc == 0
    assert text.splitlines()[1].startswith("-3993.6200,")
    # a zero signal has -inf dB against any noise
    zero = tmp_path / "z.flb"
    ballfile.write_ballfile(zero, ballfile.pack_coeffs(
        flag.FlagCoeffs(L=4, P=4, values=np.zeros((4, 16), dtype=complex))))
    rc, text, _ = run(capsys, "denoise", "--input", str(zero),
                      "--output", str(tmp_path / "d.flb"))
    assert rc == 0
    assert text.splitlines()[1] == "-inf,-inf"


@pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
def test_denoise_reaches_the_target_snr_at_any_noise_scale(tmp_path, capsys, sigma):
    # the noise power overflows or underflows; the scale to the target does not
    clean = tmp_path / "g.flb"
    assert run(capsys, "synth", "--kind", "gaussian", "--L", "4", "--P", "4",
               "--out", str(clean))[0] == 0
    rc, text, _ = run(capsys, "denoise", "--input", str(clean),
                      "--output", str(tmp_path / "d.flb"), "--sigma", sigma,
                      "--snr-in", "5")
    assert rc == 0
    assert text.splitlines()[1].startswith("5.0000,")


def test_denoise_missing_input_is_format_exit(tmp_path, capsys):
    rc, _, err = run(capsys, "denoise", "--input", str(tmp_path / "none.flb"),
                     "--output", str(tmp_path / "o.flb"))
    assert rc == 3
    assert "error" in err


def test_kernels_report(tmp_path, capsys):
    rc, out, _ = run(capsys, "kernels", "--L", "16", "--P", "16")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# J=4 Jp=4"
    assert lines[1] == "kind,j,jp,ell,p,value"
    psi_rows = [ln for ln in lines if ln.startswith("psi,")]
    phi_rows = [ln for ln in lines if ln.startswith("phi,")]
    assert psi_rows and phi_rows
    assert all(float(ln.rsplit(",", 1)[1]) != 0.0 for ln in psi_rows)
    resid = float(lines[-1].split("=")[1])
    assert resid < 1e-10

    path = tmp_path / "k.csv"
    rc2, out2, _ = run(capsys, "kernels", "--L", "16", "--P", "16",
                       "--out", str(path))
    assert rc2 == 0 and out2 == ""
    assert path.read_text().splitlines()[0] == "# J=4 Jp=4"


def test_kernels_bad_dilation(capsys):
    rc, _, err = run(capsys, "kernels", "--L", "16", "--P", "16",
                     "--lambda", "1")
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize("value", [repr(1.0 + 2.0**-52), "1e300", "1e308", "inf",
                                   "nan"])
@pytest.mark.parametrize("option", ["--lambda", "--nu"])
def test_kernels_dilation_out_of_range(capsys, option, value):
    # 1 + 2^-52 ran for minutes, 1e300 ended in a traceback and inf exited 0
    rc, out, err = run(capsys, "kernels", "--L", "4", "--P", "4", option, value)
    assert rc == 2 and out == ""
    assert err.startswith("error: ")


def test_threads_flag_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "0", "kernels", "--L", "4", "--P", "4"])
    assert exc.value.code == 2


def test_import_defers_numpy_until_threads_are_pinned():
    # a fresh interpreter: importing the CLI loads no numpy, so --threads can
    # still set the BLAS pool size that numpy reads when it first loads
    code = (
        "import os, sys\n"
        "import ballwav.cli as cli\n"
        "assert 'numpy' not in sys.modules\n"
        "rc = cli.main(['--threads', '2', 'roundtrip', '--L', '4', '--P', '4'])\n"
        "assert rc == 0, rc\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n"
        "assert 'numpy' in sys.modules\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(cli.CSV_HEADER)


def test_fit_loglog_slope_recovers_power():
    sizes = [4, 8, 16, 32]
    times = [2.0 * s**3 for s in sizes]
    assert cli.fit_loglog_slope(sizes, times) == pytest.approx(3.0, abs=1e-12)


def test_bench_record_csv_fields():
    rec = cli.BenchRecord(L=4, P=4, N_samples=112, t_synthesis_s=0.5,
                          t_analysis_s=1.5, t_c_s=1.0, epsilon_max=1e-12)
    row = rec.csv_row()
    assert row.split(",")[0] == "4"
    assert float(row.split(",")[5]) == 1.0
    assert cli.CSV_HEADER.split(",")[5] == "t_c_s"


# Every float option of every subcommand, on L=P=4 runs; the values are the
# edges of double range, 1 + 2^-52 and the usual defaults. The 272 cases are
# few enough for max_examples to reach each of them.
_EDGE_FLOATS = ["0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1", "-1",
                repr(1.0 + 2.0**-52), "2", "1e300", "-1e300", "1e308", "-1e308",
                "inf", "-inf", "nan"]
_TILING_OPTIONS = ["--lambda", "--nu"]
_FLOAT_OPTIONS = {
    "roundtrip": ["--tau", "--tol"] + _TILING_OPTIONS,
    "bench": ["--tau"] + _TILING_OPTIONS,
    "denoise": ["--sigma", "--snr-in", "--multiplier"] + _TILING_OPTIONS,
    "kernels": _TILING_OPTIONS,
    "synth": ["--tau"] + _TILING_OPTIONS,
}
_EDGE_CASES = [(c, o) for c, opts in _FLOAT_OPTIONS.items() for o in opts]


def _edge_argv(command, directory):
    """argv of a small run of command, and the file it writes or None."""
    out = directory / "out"
    if command == "roundtrip":
        return ["roundtrip", "--transform", "flaglet", "--L", "4", "--P", "4"], None
    if command == "bench":
        return ["bench", "--Lmin", "4", "--Lmax", "4", "--reps", "1"], None
    if command == "denoise":
        clean = directory / "clean.flb"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["synth", "--kind", "gaussian", "--L", "4", "--P", "4",
                             "--out", str(clean)]) == 0
        return ["denoise", "--input", str(clean), "--output", str(out)], out
    return [command, "--L", "4", "--P", "4", "--out", str(out)], out


def _only_finite_values(path):
    data = path.read_bytes()
    if not data.startswith(ballfile.MAGIC):  # the kernels CSV
        return b"nan" not in data and b"inf" not in data
    bf = ballfile.from_bytes(data)
    parts = [bf.samples, bf.coeffs, bf.scaling, *(bf.wavelets or {}).values()]
    return all(np.all(np.isfinite(a)) for a in parts if a is not None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(case=st.sampled_from(_EDGE_CASES), value=st.sampled_from(_EDGE_FLOATS))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_exit_codes_on_edge_floats(case, value):
    command, option = case
    with tempfile.TemporaryDirectory() as tmp:
        argv, out = _edge_argv(command, pathlib.Path(tmp))
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv + ["%s=%s" % (option, value)])
        assert rc in (0, 1, 2, 3)
        if rc != 0:
            assert out is None or not out.exists()
        else:
            assert "nan" not in text.getvalue().lower()
            assert out is None or _only_finite_values(out)
