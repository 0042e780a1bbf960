"""Benchmark of ballwav: one workload per fresh process, closed loop.

    python3 perfbench/run.py --workload flag_L128 --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from `src/`. Thread
pools are pinned before numpy loads. Set-up (import, scheme and tiling
builds, lazy caches, one warm-up op) is timed apart from the ops, once in
this process and once in each of two fresh child processes; `setup_s` is the
median. Ops run one at a time for `--seconds`; each op's input is made before
its timer starts and its output is gated after the timer stops.

With `--trace 0` the last line of stdout holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run, in which untraced
and traced ops alternate so that the tracing overhead is measured too, and
the spans are written to `.bench_out/`. The line before the last is a report
with the environment stamp and the figures that are shown but not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS/OpenMP threads per workload. flag_L128 also runs one: on a two-vCPU
# host two threads made its op at most 10% faster and about twice as spread
# from run to run.
THREADS = {
    "flag_L128": 1,
    "flaglet_full_L32": 1,
    "denoise_L32": 1,
    "bessel_L16": 1,
}

MODULES = ("laguerre", "sht", "flag", "tiling", "flaglet", "denoise", "ballfile")
SETUP_ROUNDS = 3
WARMUP_INPUT = 10**6  # input index of the warm-up ops, apart from timed ones
PERCENTILES = (99.9, 99.0, 90.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "harness.self_s": "s",
    "trace.overhead": "ratio",
    "sht.points": "count",
    "sht.table_bytes": "B",
    "laguerre.table_bytes": "B",
    "flaglet.flag_calls": "count",
    "denoise.kept_frac": "ratio",
    "denoise.snr_gain_db": "dB",
    "flag.flagged_frac": "ratio",
    "ballfile.bytes": "B",
}

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads(n):
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def import_library():
    """Import the ballwav modules from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    for name in MODULES:
        module = importlib.import_module("ballwav." + name)
        if SRC not in Path(module.__file__).resolve().parents:
            raise ImportError("ballwav.%s was not loaded from %s" % (name, SRC))


def git_commit():
    """Commit of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():  # do not let git search parent dirs
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp(workload, seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        blas = None
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "threads": THREADS[workload],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
    }


def high_percentile(times):
    """Highest listed percentile with at least ten ops beyond it."""
    import numpy as np

    n = len(times)
    for q in PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10:
            return {"q": q, "value_s": float(np.percentile(times, q))}
    return None


def run_op(wl, state, ref, seed, i, recording):
    """One op: input made untimed, op timed inside `recording(i)`, gate
    untimed. Returns (seconds, ok, info)."""
    inp = wl.make_input(state, seed, i)
    with recording(i):
        t0 = time.perf_counter()
        try:
            out = wl.op(state, inp)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - t0, False, {}
        elapsed = time.perf_counter() - t0
    ok, info = wl.check(state, ref, inp, out)
    return elapsed, bool(ok), info


def set_up(wl, seed, r, recording):
    """Set-up round r: builds plus one warm-up op, both run inside
    `recording()`; the warm-up input is made between the two timers. The
    reference is built and verified untimed. Returns (state, ref, seconds,
    ok, verify_info)."""
    with recording():
        t0 = time.perf_counter()
        state = wl.setup()
        t_build = time.perf_counter() - t0
    inp = wl.make_input(state, seed, WARMUP_INPUT + r)
    with recording():
        t0 = time.perf_counter()
        out = wl.op(state, inp)
        elapsed = t_build + time.perf_counter() - t0
    ref = wl.reference(state)
    ref_ok, verify_info = wl.verify(state, ref)
    ok = ref_ok and bool(wl.check(state, ref, inp, out)[0])
    return state, ref, elapsed, ok, verify_info


def set_up_in_child(args, r):
    """Set-up round r, import included, in a fresh process. -> (s, ok)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-round", str(r)],
        capture_output=True, text=True, timeout=150, check=True)
    row = json.loads(proc.stdout.splitlines()[-1])
    return row["setup_s"], row["ok"]


def main(argv=None):
    ap = argparse.ArgumentParser(description="ballwav benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-round", type=int, default=None,
                    help=argparse.SUPPRESS)  # time one round, used internally
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ballwav" / "__init__.py").is_file():
        print("error: no ballwav package under %s" % SRC, file=sys.stderr)
        return 2
    pin_threads(THREADS[args.workload])
    # Untraced runs time SETUP_ROUNDS fresh set-ups: these children first,
    # while this process is still small, then this process's own.
    children = []
    if not args.trace and args.setup_round is None:
        children = [set_up_in_child(args, r) for r in range(1, SETUP_ROUNDS)]

    t_import = time.perf_counter()
    try:
        import_library()
    except ImportError as exc:
        print("error: cannot import ballwav from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_import

    import tracing  # from this script's directory, after numpy is pinned
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install("ballwav")
    # A traced run traces its one set-up round; untraced ops then alternate
    # with traced ones so that the tracing overhead is measured.
    recording = (contextlib.nullcontext if tracer is None else
                 functools.partial(tracer.recording, tracing.SETUP_OP))
    state, ref, t_round, setup_ok, verify_info = set_up(
        wl, args.seed, args.setup_round or 0, recording)
    if args.setup_round is not None:
        print(json.dumps({"setup_s": import_s + t_round, "ok": setup_ok}))
        return 0
    rounds = [import_s + t_round] + [t for t, _ in children]
    setup_s = statistics.median(rounds)
    setup_ok = setup_ok and all(ok for _, ok in children)

    times, traced = [], {}
    infos = []
    failed = 0
    i = 0
    t_loop = time.perf_counter()
    while True:
        trace_this = tracer is not None and i % 2 == 1
        elapsed, ok, info = run_op(
            wl, state, ref, args.seed, i,
            tracer.recording if trace_this else contextlib.nullcontext)
        if trace_this:
            traced[i] = elapsed
        else:
            times.append(elapsed)
        failed += not ok
        infos.append(info)
        i += 1
        if (time.perf_counter() - t_loop >= args.seconds
                and (tracer is None or traced)):
            break
    loop_s = time.perf_counter() - t_loop
    attempted = i
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def info_median(key):
        vals = [d[key] for d in infos if key in d]
        return statistics.median(vals) if vals else None

    report = {
        "stamp": stamp(args.workload, args.seed),
        "ops": attempted,
        "failed": failed,
        "setup_ok": setup_ok,
        "verify": verify_info,
        "setup_rounds_s": rounds,
        "op_high": high_percentile(times),
        "max_error": max((d["error"] for d in infos if "error" in d),
                         default=None),
        "snr_gain_db": info_median("snr_gain_db"),
        "flagged_frac": info_median("flagged_frac"),
        "cancel_only": sum(d.get("cancel_only", 0) for d in infos),
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(times),
            "ops_per_s": attempted / loop_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        tracer.uninstall()
        metrics = tracer.summary(traced)
        metrics["trace.overhead"] = (statistics.median(traced.values())
                                     / statistics.median(times))
        metrics["denoise.snr_gain_db"] = report["snr_gain_db"] or 0.0
        metrics["flag.flagged_frac"] = report["flagged_frac"] or 0.0
        units = {**{name: ("count" if name.endswith(".calls") else "s")
                    for name in metrics}, **PER_LAYER_UNITS}
        report["computed"] = list(tracing.COMPUTED)
        report["absent"] = tracer.absent
        report["hook_errors"] = sorted(tracer.hook_errors)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
        spans_path.write_text(json.dumps({"stamp": report["stamp"],
                                          "spans": tracer.dump()}))
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
