"""Command-line surface: round-trip checks, benchmarks, denoising, kernels.

Heavy imports are deferred into the command bodies so that --threads can pin
the BLAS/OpenMP pools before numpy first loads. Exit codes: 0 ok, 1 tolerance
exceeded, 2 usage, 3 file-format error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3

CSV_HEADER = "L,P,N_samples,t_synthesis_s,t_analysis_s,t_c_s,epsilon_max"


@dataclass(frozen=True)
class BenchRecord:
    L: int
    P: int
    N_samples: int
    t_synthesis_s: float
    t_analysis_s: float
    t_c_s: float
    epsilon_max: float

    def csv_row(self):
        return "%d,%d,%d,%.6e,%.6e,%.6e,%.3e" % (
            self.L, self.P, self.N_samples, self.t_synthesis_s,
            self.t_analysis_s, self.t_c_s, self.epsilon_max)


def _record(scheme, t_syn, t_ana, eps):
    n = scheme.P * scheme.angular.n_theta * scheme.angular.n_phi
    return BenchRecord(L=scheme.L, P=scheme.P, N_samples=n, t_synthesis_s=t_syn,
                       t_analysis_s=t_ana, t_c_s=0.5 * (t_syn + t_ana),
                       epsilon_max=eps)


def _time_pair(prepare, first, second, to_coeffs, seed, reps):
    """Mean seconds of first and of second over reps inputs after an untimed
    warm-up, and the worst round-trip error. prepare(s) gives an input and
    its coefficients; it and the error check stay outside the timer."""
    import numpy as np

    second(first(prepare(seed + 10**6)[0]))
    t_first = t_second = eps = 0.0
    for rep in range(reps):
        x, f = prepare(seed + rep)
        t0 = time.perf_counter()
        y = first(x)
        t1 = time.perf_counter()
        out = second(y)
        t2 = time.perf_counter()
        t_first += t1 - t0
        t_second += t2 - t1
        eps = max(eps, float(np.max(np.abs(to_coeffs(out) - f))))
    return t_first / reps, t_second / reps, eps


def time_flag_roundtrip(L, P, tau=1.0, seed=0, reps=1):
    """BenchRecord for the harmonic transform pair, setup excluded."""
    from . import flag

    scheme = flag.build_ball_scheme(L, P, tau)
    t_syn, t_ana, eps = _time_pair(
        lambda s: (flag.random_coeffs(L, P, s).values,) * 2,
        lambda f: flag.flag_synthesis(scheme, f),
        lambda sig: flag.flag_analysis(scheme, sig), lambda f: f, seed, reps)
    return _record(scheme, t_syn, t_ana, eps)


def time_flaglet_roundtrip(L, P, tau=1.0, seed=0, reps=1, multires=False,
                           lam=2.0, nu=2.0, J0=0, J0p=0):
    """BenchRecord for the wavelet transform pair; signal prep not timed."""
    from . import flag, flaglet, tiling

    scheme = flag.build_ball_scheme(L, P, tau)
    kernels = tiling.build_tiling(tiling.make_tiling_params(lam, nu, L, P,
                                                            J0=J0, J0p=J0p))

    def prepare(s):
        f = flag.random_coeffs(L, P, s).values
        return flag.flag_synthesis(scheme, f), f

    t_ana, t_syn, eps = _time_pair(
        prepare,
        lambda sig: flaglet.flaglet_analysis(scheme, sig, kernels, multires=multires),
        lambda ws: flaglet.flaglet_synthesis(ws, kernels, scheme),
        lambda rec: flag.flag_analysis(scheme, rec.values), seed, reps)
    return _record(scheme, t_syn, t_ana, eps)


def fit_loglog_slope(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    import numpy as np

    return float(np.polyfit(np.log(np.asarray(sizes, float)),
                            np.log(np.asarray(times, float)), 1)[0])


def _set_threads(n):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


def _tiling_kernels(args, L, P):
    from . import tiling

    params = tiling.make_tiling_params(args.lam, args.nu, L, P,
                                       J0=args.J0, J0p=args.J0p)
    return tiling.build_tiling(params)


def _time_roundtrip(args, L, P, reps):
    if args.transform == "flag":
        return time_flag_roundtrip(L, P, args.tau, args.seed, reps=reps)
    return time_flaglet_roundtrip(L, P, args.tau, args.seed, reps=reps,
                                  multires=args.multires, lam=args.lam,
                                  nu=args.nu, J0=args.J0, J0p=args.J0p)


def cmd_roundtrip(args):
    tol = args.tol
    if tol is None:
        tol = 1e-10 if args.transform == "flag" else 1e-9
    if not tol >= 0:
        raise ValueError("--tol must be nonnegative, got %r" % tol)
    rec = _time_roundtrip(args, args.L, args.P, reps=1)
    print(CSV_HEADER)
    print(rec.csv_row())
    if not rec.epsilon_max <= tol:
        print("tolerance exceeded: %.3e > %.3e" % (rec.epsilon_max, tol),
              file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_bench(args):
    if args.reps < 1:
        raise ValueError("--reps must be >= 1")
    if args.Lmin > args.Lmax:
        raise ValueError("--Lmin must not exceed --Lmax")
    for v in (args.Lmin, args.Lmax):
        if v < 4 or v & (v - 1):
            raise ValueError("sweep bounds must be powers of two >= 4")
    sizes = []
    q = args.Lmin
    while q <= args.Lmax:
        sizes.append(q)
        q *= 2
    print(CSV_HEADER)
    records = []
    for q in sizes:
        rec = _time_roundtrip(args, q, q, args.reps)
        records.append(rec)
        print(rec.csv_row())
    if len(sizes) > 1:  # one size has no slope to fit
        slope = fit_loglog_slope(sizes, [r.t_c_s for r in records])
        print("# fitted_slope=%.3f" % slope)
    return EXIT_OK


def _load_clean_coeffs(path):
    from . import ballfile, flag, sht

    bf = ballfile.read_ballfile(path)
    if bf.kind == ballfile.KIND_SAMPLES:
        signal = ballfile.unpack_samples(bf)
        scheme = signal.scheme
        coeffs = flag.FlagCoeffs(L=scheme.L, P=scheme.P,
                                 values=flag.flag_analysis(scheme, signal.values),
                                 real=not bf.complex_payload)
        return coeffs, scheme, bf.kind
    if bf.kind == ballfile.KIND_COEFFS:
        coeffs, tau = ballfile.unpack_coeffs(bf)
        scheme = flag.build_ball_scheme(bf.L, bf.P, tau)
        # the container has no real flag for coefficients: read it off them
        try:
            sht.check_real(coeffs.values)
        except ArithmeticError:
            return coeffs, scheme, bf.kind
        return replace(coeffs, real=True), scheme, bf.kind
    raise ballfile.BallFileError("denoise needs a samples or coefficient file")


def cmd_denoise(args):
    import numpy as np

    from . import ballfile, denoise, flag

    clean, scheme, kind = _load_clean_coeffs(args.input)
    kernels = _tiling_kernels(args, scheme.L, scheme.P)
    # noise near the top of double range can overflow inside the transforms:
    # the payload is checked instead, before anything is written
    with np.errstate(over="ignore", invalid="ignore"):
        if args.sigma == 0.0:
            # no noise to remove; pass the input through untouched
            den, snr_in, snr_out = clean, float("inf"), float("inf")
        else:
            model = denoise.NoiseModel(sigma=args.sigma, L=scheme.L, P=scheme.P,
                                       seed=args.seed)
            noise = denoise.generate_noise(model)
            sigma_eff = args.sigma
            if args.snr_in is not None:
                noise, alpha = denoise.scale_noise_to_snr(clean, noise, args.snr_in)
                sigma_eff = args.sigma * alpha
            noisy = flag.FlagCoeffs(L=scheme.L, P=scheme.P,
                                    values=clean.values + noise.values,
                                    real=clean.real and noise.real)
            model_eff = denoise.NoiseModel(sigma=sigma_eff, L=scheme.L, P=scheme.P,
                                           seed=args.seed)
            den, snr_in, snr_out = denoise.denoise_pipeline(
                scheme, kernels, clean, noisy, model_eff,
                multires=args.multires, multiplier=args.multiplier)
        if kind == ballfile.KIND_SAMPLES:
            grid = flag.flag_synthesis(scheme, den.values, real=den.real)
            out = ballfile.pack_samples(flag.BallSignal(scheme=scheme, values=grid))
        else:
            out = ballfile.pack_coeffs(den, scheme.tau)
    if not np.all(np.isfinite(grid if kind == ballfile.KIND_SAMPLES else den.values)):
        raise ValueError("denoised values are not finite (sigma %r)" % args.sigma)
    ballfile.write_ballfile(args.output, out)
    print("snr_in_db,snr_out_db")
    # %.4f spells the infinities inf and -inf
    print("%.4f,%.4f" % (snr_in, snr_out))
    return EXIT_OK


def cmd_kernels(args):
    import numpy as np

    kernels = _tiling_kernels(args, args.L, args.P)
    prm = kernels.params
    lines = ["# J=%d Jp=%d" % (prm.J, prm.Jp), "kind,j,jp,ell,p,value"]
    for j, jp in prm.scales:
        block = kernels.psi_scale(j, jp)
        for ell, p in zip(*np.nonzero(block)):
            lines.append("psi,%d,%d,%d,%d,%.17g" % (j, jp, ell, p, block[ell, p]))
    for ell, p in zip(*np.nonzero(kernels.phi)):
        lines.append("phi,,,%d,%d,%.17g" % (ell, p, kernels.phi[ell, p]))
    lines.append("# max_admissibility_residual=%.3e" % kernels.residual)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_synth(args):
    from . import ballfile, denoise, flag

    if args.kind == "sparse":
        scheme = flag.build_ball_scheme(args.L, args.P, args.tau)
        kernels = _tiling_kernels(args, args.L, args.P)
        coeffs = denoise.make_sparse_signal(scheme, kernels,
                                            n_atoms=args.atoms, seed=args.seed)
    else:
        coeffs = flag.random_coeffs(args.L, args.P, args.seed, real=True)
    ballfile.write_ballfile(args.out, ballfile.pack_coeffs(coeffs, args.tau))
    print("wrote %s (kind=coeffs, L=%d, P=%d)" % (args.out, args.L, args.P))
    return EXIT_OK


def _add_tiling_flags(p):
    p.add_argument("--lambda", dest="lam", type=float, default=2.0,
                   help="angular dilation factor (> 1)")
    p.add_argument("--nu", type=float, default=2.0,
                   help="radial dilation factor (> 1)")
    p.add_argument("--J0", type=int, default=0, help="lowest angular scale")
    p.add_argument("--J0p", type=int, default=0, help="lowest radial scale")


def build_parser():
    top = argparse.ArgumentParser(prog="ballwav",
                                  description="exact transforms on the ball")
    top.add_argument("--threads", type=int, default=1,
                     help="BLAS/OpenMP thread count (set before numpy loads)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roundtrip", help="transform a random signal there and back")
    p.add_argument("--transform", choices=("flag", "flaglet"), default="flag")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="failure gate on epsilon_max (default 1e-10 flag, 1e-9 flaglet)")
    p.add_argument("--multires", action="store_true")
    _add_tiling_flags(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("bench", help="timing sweep over power-of-two band-limits")
    p.add_argument("--transform", choices=("flag", "flaglet"), default="flag")
    p.add_argument("--Lmin", type=int, default=8)
    p.add_argument("--Lmax", type=int, default=64)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--multires", action="store_true")
    _add_tiling_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("denoise", help="add model noise, threshold, report SNRs")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--snr-in", dest="snr_in", type=float, default=None,
                   help="rescale the noise to this input SNR in dB")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--multiplier", type=float, default=3.0)
    p.add_argument("--full-res", dest="multires", action="store_false")
    _add_tiling_flags(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("kernels", help="export tiling kernels as CSV")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--out", default=None)
    _add_tiling_flags(p)
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("synth", help="write a synthetic test signal")
    p.add_argument("--kind", choices=("sparse", "gaussian"), default="sparse")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--atoms", type=int, default=6)
    p.add_argument("--out", required=True)
    _add_tiling_flags(p)
    p.set_defaults(func=cmd_synth)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    _set_threads(args.threads)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FORMAT
    except Exception as exc:
        from . import ballfile

        if isinstance(exc, ballfile.BallFileError):
            print("format error: %s" % exc, file=sys.stderr)
            return EXIT_FORMAT
        raise


if __name__ == "__main__":
    sys.exit(main())
