"""Smoke test of the benchmark at tiny sizes: python3 -m pytest -q bench/test_smoke.py

Every metric BENCHMARK.json names must be emitted with its unit, every
answer must be correct, and fail_frac must be 0.  The tracer, which worker
threads share, must keep every span distinct under heavy thread switching.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert f"fail_frac 0.0 (0/{result['attempted']})" in lines
    assert any(line.startswith(f"output_sha256 {workload} ") for line in lines)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_tracer_spans_from_many_threads_stay_distinct():
    sys.path.insert(0, str(BENCH))
    import spans

    tracer = spans.Tracer()
    per_thread = 2000

    def work():
        for _ in range(per_thread):
            tracer.close(tracer.open("x"))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 4 * per_thread
    assert all(s[2] is not None and s[2] >= s[1] for s in tracer.spans)
