"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench -q

Checks that every metric of BENCHMARK.json is emitted with its unit on every
workload, that traced call and byte counts repeat for a seed, and that the
output checks reject tampered outputs; and that the speed meter prices its own
reference work at the reference speed.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402

SPEC = run.load_spec()
SEED = 3


def measure(workload, trace):
    line = run.measure(
        workload, SEED, seconds=0.5, trace=trace, sizes=workloads.TINY, setup_samples=1, trace_jobs=2
    )
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = measure(workload, trace=0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = measure(workload, trace=1), measure(workload, trace=1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counted = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith((".calls", ".bytes", ".failed"))]
    assert {n: first["metrics"][n]["value"] for n in counted} == {n: second["metrics"][n]["value"] for n in counted}
    assert first["metrics"]["trace.unattributed_share"]["value"] <= 0.05


def passing_run(workload, tmp_path):
    """The first job of the tiny stream that passes, with its outcome."""
    for index, job in enumerate(workloads.job_stream(workload, SEED, workloads.TINY)):
        workdir = tmp_path / f"job{index}"
        workdir.mkdir()
        job.prepare(str(workdir))
        outcome = job.run()
        if outcome.failure is None:
            assert job.check(outcome) == (True, "")
            return job, outcome, workdir


def test_checker_rejects_scaled_quadrature(tmp_path):
    _, _, workdir = passing_run("knot_energy", tmp_path)
    path = workdir / "energy.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == "quadrature":
            fields[3] = repr(float(fields[3]) * (1.0 + 1e-3))
            lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    ok, detail = workloads.check_energy_csv(str(path))
    assert not ok and "quadrature" in detail


def test_checker_rejects_shifted_theta():
    stream = workloads.job_stream("helix_q_family", SEED, workloads.TINY)
    for job in [next(stream), next(stream)]:  # prescribed pi/2, then same angle
        outcome = job.run()
        assert job.check(outcome) == (True, "")
        ts, values, value = outcome.value
        outcome.value = (ts, np.asarray(values) + 1e-5, value)
        ok, detail = job.check(outcome)
        assert not ok and "theta" in detail


def test_checker_rejects_missing_face(tmp_path):
    job, _, workdir = passing_run("samples_build", tmp_path)
    path = workdir / "ribbon_q0.obj"
    lines = path.read_text().splitlines()
    last_face = max(i for i, line in enumerate(lines) if line.startswith("f "))
    del lines[last_face]
    path.write_text("\n".join(lines) + "\n")
    ok, detail = workloads.check_obj(str(path), job.sizes.mesh_nt, job.sizes.mesh_nu)
    assert not ok and "OBJ" in detail


def test_speed_meter_counts_reference_work_at_reference_speed():
    """Whatever the host's speed, the meter prices its own reference work at REFERENCE_S a call."""
    with run.SpeedMeter() as meter:
        begin = meter.reading()
        for _ in range(300):
            run.reference_work(meter.spline)
        end = meter.reading()
    assert end.samples - begin.samples >= 5
    assert meter.cost(begin, end) == pytest.approx(300 * run.REFERENCE_S, rel=0.25)
