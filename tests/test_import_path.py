import os
import pathlib
import subprocess
import sys

from ballwav import flag

L = P = 16
JLP_ARGS = (3, 5, 0.75)  # (l, p, k) of the one overlap taken after the check


def test_transform_paths_load_no_scipy():
    # a fresh interpreter, so that sys.modules holds only what the library loads
    code = """
import contextlib
import io
import sys

import numpy as np

from ballwav import laguerre, sht, flag, tiling, flaglet, denoise, ballfile, cli

L = P = %d
scheme = flag.build_ball_scheme(L, P)
kernels = tiling.build_tiling(tiling.make_tiling_params(2.0, 2.0, L, P))
grid = flag.flag_synthesis(scheme, flag.random_coeffs(L, P, 1, real=True).values,
                           real=True)
for multires in (False, True):
    ws = flaglet.flaglet_analysis(scheme, grid, kernels, multires=multires)
    back = flaglet.flaglet_synthesis(ws, kernels, scheme).values
    assert np.max(np.abs(back - grid)) < 1e-10 * np.max(np.abs(grid)), multires
clean = denoise.make_sparse_signal(scheme, kernels, seed=2)
noise = denoise.generate_noise(denoise.NoiseModel(1.0, L, P, seed=2))
noise, alpha = denoise.scale_noise_to_snr(clean, noise, 5.0)
noisy = flag.FlagCoeffs(L, P, clean.values + noise.values, real=True)
den, snr_in, snr_out = denoise.denoise_pipeline(
    scheme, kernels, clean, noisy, denoise.NoiseModel(alpha, L, P, seed=2))
assert snr_out > snr_in
data = ballfile.to_bytes(ballfile.pack_coeffs(den))
back, _ = ballfile.unpack_coeffs(ballfile.from_bytes(data))
assert np.array_equal(back.values, den.values)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["roundtrip", "--transform", "flaglet", "--L", "8", "--P", "8"]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(float(flag.jlp(flag.build_bessel_bridge(L, P), *%r)).hex())
""" % (L, JLP_ARGS)
    src = str(pathlib.Path(flag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, value = proc.stdout.splitlines()
    assert loaded == ""
    # the Bessel bridge still loads scipy.special when first used, and its
    # numbers are those of this process, bit for bit
    expected = float(flag.jlp(flag.build_bessel_bridge(L, P), *JLP_ARGS))
    assert float.fromhex(value) == expected
