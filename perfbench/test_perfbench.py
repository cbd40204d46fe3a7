"""Self-test of the benchmark: python3 -m pytest perfbench/test_perfbench.py

Runs every workload at tiny sizes, checks that a wrong reference shows up
as a failed job rather than a crash, that tracing leaves every wrapped
name as it found it, that the calibration clock samples during long work
and stops its timer, and that the benchmark refuses to run without the
package's sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny(workload, trace=False, refs=None):
    bench = run.Run(workload, 3, tiny=True, refs=refs)
    try:
        bench.setup(reps=1)
        bench.measure(0, trace)
    finally:
        bench.cleanup()
    return bench


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes(workload):
    bench = _tiny(workload)
    assert bench.attempted() > 0
    assert bench.failures == []
    names = [m["name"] for m in run.spec()["end_to_end"]]
    assert all(bench.end_to_end()[name] > 0 for name in names)


def test_wrong_reference_is_a_failed_job():
    refs = workloads.Refs.load()
    refs.docs[2] = refs.docs[2].replace(b'"-2"', b'"-3"', 1)
    refs.summaries[3] = dict(refs.summaries[3], coefficient_degree=99)
    bench = _tiny("solve", refs=refs)
    assert bench.attempted() == len(bench.jobs)
    assert sorted(f["job"] for f in bench.failures) == \
        ["telescope-s2", "telescope-s3"]


def test_traced_run_restores_every_wrapped_name():
    bench = run.Run("sequences", 3, tiny=True)
    bench.setup(reps=1)
    modules = tracing._franel_modules()
    before = [(m, dict(vars(m))) for m in modules]
    big_float = sys.modules["franel.bigfloat"].BigFloat
    class_before = dict(vars(big_float))
    try:
        bench.measure(0, True)
    finally:
        bench.cleanup()
    for module, names in before:
        now = vars(module)
        assert all(now[key] is value for key, value in names.items())
    assert all(vars(big_float)[key] is value
               for key, value in class_before.items())
    layers = bench.per_layer()
    assert layers["sequences.coefficient_row.calls"] > 0
    assert layers["bigfloat.pi.bits"] > 0
    assert set(m["name"] for m in run.spec()["per_layer"]) <= set(layers)


def test_traced_solve_reports_solver_layers():
    bench = _tiny("solve", trace=True)
    layers = bench.per_layer()
    assert bench.failures == []
    assert layers["linalg.bareiss_determinant.calls"] > 0
    assert layers["telescoper.zeilberger.calls"] == 5
    assert 0 < layers["telescoper.orders.useful_ratio"] < 1
    assert layers["cli.cache.hit_ratio"] == 0


def test_clock_samples_during_work_and_stops():
    start = perf_counter()
    with calibration.Clock(period_s=0.02) as clock:
        while perf_counter() - start < 0.2:
            pass
    assert len(clock.work) >= 3
    assert len(clock.loops) == len(clock.work) + 1
    assert 0 < clock.seconds < perf_counter() - start
    assert clock.scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_oracles_match_the_package_at_small_n():
    run.import_franel()
    from franel.limits import phi
    from franel.sequences import coefficient_row, franel
    for s, J in ((3, 1), (5, 2), (6, 2)):
        assert oracles.phi(s, J) == phi(s, J).phis
        for n in range(6):
            assert oracles.deformed_direct(s, n, J) == \
                coefficient_row(s, n, J)
        assert oracles.franel_direct(s, 30) == franel(s, 30)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())
