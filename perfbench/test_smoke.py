"""Smoke test of the benchmark: python3 -m pytest perfbench/test_smoke.py

Runs each workload of BENCHMARK.json for one second, untraced once and traced
twice at one seed. Checks that every metric it names is emitted with its unit
and that no op failed. Also checks that the SNR gain, the flagged fraction,
every call count and every computed counter repeat exactly across the two
traced runs. `bessel_L16`, which is not in BENCHMARK.json, is expected to
fail its set-up check until `flag.jlp` flags every overlap it gets wrong.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7

# Per-layer figures that do not depend on timing.
EXACT = {"denoise.snr_gain_db", "flag.flagged_frac", "sht.points",
         "sht.table_bytes", "laguerre.table_bytes", "flaglet.flag_calls",
         "denoise.kept_frac", "ballfile.bytes"}


def run(workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    res = run(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["attempted"] >= 1
    assert res["failed"] == 0
    assert res["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_layer_metrics_and_repeat(workload):
    first, second = run(workload, 1), run(workload, 1)
    expect = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert units(res) == expect
    for name in expect:
        if name.endswith(".calls") or name in EXACT:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["failed"] == second["failed"] == 0


@pytest.mark.xfail(strict=True, reason=(
    "flag.jlp returns jlp(15, 15, 0.5) 1.5e-7 off without setting its "
    "precision flag; add bessel_L16 to BENCHMARK.json once this passes"))
def test_bessel_workload_verifies_its_overlaps():
    res = run("bessel_L16", 0)
    assert res["correct"]
