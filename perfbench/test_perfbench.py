"""Tests of the benchmark itself: the output gate and the layer trace.

    python3 -m pytest -q perfbench

They run small CLI jobs in fresh processes through the same rep.py the
benchmark uses (about half a minute in all).
"""

import copy

import pytest

import gate
import layers
import run
import workloads

REF = gate.load_reference()


def _run(tmp_path, jobs, mode="run"):
    spec = {"mode": mode, "jobs": jobs, "spans": str(tmp_path / "spans.json")}
    return run.run_child(spec, tmp_path)


def _clean_verify_output():
    """A verify-default result equal to the reference, check by check."""
    checks = [[cid, status, nonzero, True, True] for cid, status, nonzero in REF["verify-default"]["checks"]]
    return [{"rc": 0, "stdout": "", "stderr": "", "checks": checks}]


def test_verify_gate_counts_each_corrupted_check():
    jobs = workloads.jobs("verify-default", 1)
    out = _clean_verify_output()
    assert gate.gate("verify-default", jobs, out, REF)[:2] == (375, 0)
    bad = copy.deepcopy(REF)
    bad["verify-default"]["checks"][7][2] = 1  # nonzero_entries
    bad["verify-default"]["checks"][40][1] = "fail"
    attempted, failed, problems = gate.gate("verify-default", jobs, out, bad)
    assert (attempted, failed) == (375, 2) and len(problems) == 2


def test_verify_gate_fails_a_failing_or_missing_check():
    jobs = workloads.jobs("verify-default", 1)
    out = _clean_verify_output()
    out[0]["checks"][3][4] = False  # gating check not ok
    del out[0]["checks"][10]
    out[0]["rc"] = 1
    assert gate.gate("verify-default", jobs, out, REF)[1] == 2
    assert gate.gate("verify-default", jobs, None, REF)[:2] == (375, 375)


def test_spectrum_gate_against_real_output(tmp_path):
    jobs = [j for j in workloads.jobs("spectrum-deep", 1) if j["op"] in ("Q1", "Q12")]
    out = _run(tmp_path, jobs)["jobs"]
    assert gate.gate("spectrum-deep", jobs, out, REF)[:2] == (16, 0)
    bad = copy.deepcopy(REF)
    bad["spectrum-deep"]["Q12"][3] = gate.sha256("weight 2 (block size 3): [0]  ok")
    assert gate.gate("spectrum-deep", jobs, out, bad)[:2] == (16, 1)


def test_sweep_gate_against_real_output(tmp_path):
    configs = [c for c in workloads.sweep_configs(3) if c["nmax"] == 2][:4]
    jobs = [j for j in workloads.sweep_jobs(3) if j["config"] in configs]
    assert any(j["kind"] == "compass" for j in jobs)
    out = _run(tmp_path, jobs)["jobs"]
    attempted, failed, _ = gate.gate("sweep-small", jobs, out, REF)
    assert attempted > 0 and failed == 0
    bad = copy.deepcopy(REF)
    bad["sweep-small"]["check_ids"]["4,2"].append("master/table9/row1")
    bad["sweep-small"]["check_ids"]["3,2"].append("master/table9/row1")
    bad["sweep-small"]["compass_sha256"] = gate.sha256("digraph {}\n")
    _, failed, problems = gate.gate("sweep-small", jobs, out, bad)
    assert failed == len(jobs) and len(problems) == len(jobs)


def test_sweep_draws_are_seeded_and_valid():
    assert workloads.sweep_jobs(5) == workloads.sweep_jobs(5)
    assert workloads.sweep_jobs(5) != workloads.sweep_jobs(6)
    for cfg in workloads.sweep_configs(5):
        a, b = (int(x) for x in cfg["q"].lstrip("-").split("/"))
        assert 1 <= a <= 9 and 1 <= b <= 9 and a != b
        assert len(cfg["k"]) == cfg["legs"] and set(cfg["k"]) <= {1, 2, 3}
    argv = workloads.sweep_jobs(5)[0]["argv"]
    assert argv[1].startswith("--q=")


def test_every_per_layer_metric_says_what_it_moves():
    assert list(layers.MOVES) == list(run.per_layer_units())


def test_setup_s_is_timed_inside_the_repetition(tmp_path):
    jobs = SMALL["spectrum-deep"]
    payload = _run(tmp_path, jobs)
    assert 0 < payload["setup_s"] < payload["wall_s"]


# Small jobs that take each workload's code paths: nmax=4 keeps the
# aw3 probe registry (nmax > 3), legs=4 keeps prop2, master, compass.
SMALL = {
    "verify-default": [{"kind": "verify", "argv": ["verify", "--nmax", "4", "--report", workloads.REPORT]}],
    "spectrum-deep": [
        {"kind": "spectrum", "op": op, "argv": ["spectrum", "--op", op, "--nmax", "3"]} for op in ("Q1", "Q123")
    ],
    "sweep-small": [j for j in workloads.sweep_jobs(2) if j["config"]["nmax"] == 2][:6],
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_trace_records_every_layer_and_exact_counts_repeat(tmp_path, workload):
    jobs = SMALL[workload]
    first = _run(tmp_path, jobs, "trace")
    second = _run(tmp_path, jobs, "trace")
    assert all(r["rc"] == 0 for r in first["jobs"])
    missing = set(layers.EXPECTED_SPANS[workload]) - set(first["span_names"])
    assert not missing
    for name in layers.EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    assert set(first["layers"]) | {"trace.overhead_s"} == set(run.per_layer_units())
    if workload == "verify-default":
        assert first["layers"]["relcheck.aw3_probe_residuals"] > 0
        assert first["layers"]["sparse.mul_madds"] > 0
