"""verify shared with a worker process: the same reports as one process,
one suite at a time in the worker, this process running the worker's
suites when it dies, and a serial run whenever a worker cannot pay for
itself."""

import concurrent.futures
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import pytest

import awalgebra
from awalgebra import cli
from awalgebra.cli import SUITE_ORDER, main, run_suite, suite_results, use_worker
from awalgebra.exactnum import rational
from awalgebra.uqrep import RepParams


def _json(reports):
    return json.loads(json.dumps([r.to_json() for r in reports]))


@pytest.mark.parametrize(
    "argv, q, k",
    [([], rational(5, 3), (1, 2, 1, 3)), (["--q", "-2/5", "--k", "2,1,1,1"], rational(-2, 5), (2, 1, 1, 1))],
    ids=("default", "q=-2/5"),
)
def test_verify_report_equals_serial_suites(tmp_path, capsys, argv, q, k):
    path = tmp_path / "report.json"
    assert main(["verify", *argv, "--report", str(path)]) == 0
    capsys.readouterr()
    assert multiprocessing.active_children() == []
    report = json.loads(path.read_text())
    p = RepParams(q=q, k=k, legs=4, n_max=6)
    checks = _json([r for name in SUITE_ORDER for r in run_suite(name, p)])
    assert report["checks"] == checks
    assert report["suites"] == list(SUITE_ORDER) and report["skipped_suites"] == {}
    assert report["summary"] == {"pass": len(checks), "fail": 0, "skipped": 0}
    assert report["params"] == {"q": cli.to_text(p.q), "k": list(k), "legs": 4, "nmax": 6}
    assert set(report["timings_ms"]) == set(SUITE_ORDER)


def test_worker_results_equal_serial_results(monkeypatch):
    # the pool path itself, whatever the CPU count of the host
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    serial = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, False)]
    # this process runs suites through its own run_suite, the worker
    # through a fresh import of the module
    here = []
    real = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda name, p: here.append(name) or real(name, p))
    pooled = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, True)]
    assert pooled == serial
    assert multiprocessing.active_children() == []
    # front to back here, back to front in the worker
    assert here[0] == "defining" and "independence" not in here
    assert here == list(SUITE_ORDER[: len(here)])


class _RecordingPool(ProcessPoolExecutor):
    """A pool that records, at each submit, how many of its earlier
    futures are not done yet."""

    pools = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.futures, self.outstanding = [], []
        self.pools.append(self)

    def submit(self, *args, **kwargs):
        self.outstanding.append(sum(not f.done() for f in self.futures))
        self.futures.append(super().submit(*args, **kwargs))
        return self.futures[-1]


def test_worker_holds_one_suite_at_a_time(monkeypatch):
    # a queued future counts as running and cannot be cancelled, so a
    # suite handed to the worker early would make this process wait
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "pools", [])
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    names = [name for name, _, _ in suite_results(SUITE_ORDER, p, True)]
    assert names == list(SUITE_ORDER)
    (pool,) = _RecordingPool.pools
    assert pool._max_workers == 1
    assert pool.outstanding and set(pool.outstanding) == {0}
    assert multiprocessing.active_children() == []


class _DyingPool(ProcessPoolExecutor):
    """A pool whose worker exits at its first task."""

    def submit(self, fn, *args, **kwargs):
        return super().submit(os._exit, 1)


def test_dead_worker_leaves_its_suites_to_this_process(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _DyingPool)
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    serial = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, False)]
    here = []
    real = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda name, p: here.append(name) or real(name, p))
    pooled = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, True)]
    assert pooled == serial
    assert sorted(here) == sorted(SUITE_ORDER)
    assert multiprocessing.active_children() == []


class _ThreadPool(ThreadPoolExecutor):
    """A pool of threads in place of processes, so that the worker sees
    this process's run_suite."""

    def __init__(self, max_workers, mp_context=None):
        super().__init__(max_workers)


def test_each_suite_runs_once_under_contention(monkeypatch):
    # this process and the feeder thread take suites from the two ends
    # of one deque; where they meet, a lost update would run a suite
    # twice or not at all
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _ThreadPool)
    ran = []

    def fake_suite(name, p):
        ran.append(name)
        time.sleep(0)
        return [name]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 3
        for trial in range(1500):
            names = [f"s{i}" for i in range(2 + trial % 7)]
            ran.clear()
            results = [(name, reports) for name, reports, _ in suite_results(names, None, True)]
            assert results == [(name, [name]) for name in names]
            assert Counter(ran) == Counter(names)
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


_UNGUARDED = """\
import sys
from awalgebra import cli
sys.exit(cli.main(["verify", "--nmax", "5", "--suite", "defining,prop1,prop2", "--report", sys.argv[1]]))
"""


def test_script_without_main_guard_still_verifies(tmp_path):
    # a spawned worker re-imports the main script; where that script
    # calls main unguarded, the worker dies and this process runs all
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    path = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(awalgebra.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, str(script), str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    names = ("defining", "prop1", "prop2")
    assert [line.split()[0] for line in run.stdout.splitlines() if line.split()[0] in names] == list(names)
    assert "VERDICT: PASS (3 suites" in run.stdout
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=5)
    assert len(p.basis) >= cli.PARALLEL_MIN_STATES
    checks = _json([r for name in names for r in run_suite(name, p)])
    assert json.loads(path.read_text())["checks"] == checks


def test_serial_below_the_threshold_and_on_one_cpu():
    big = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=6)
    small = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=4)
    three_legs = RepParams(q=rational(5, 3), k=(1, 2, 1), legs=3, n_max=10)
    assert len(small.basis) < cli.PARALLEL_MIN_STATES <= len(big.basis)
    assert len(three_legs.basis) >= cli.PARALLEL_MIN_STATES
    assert use_worker(8, big, 2) and use_worker(8, big, 16)
    assert not use_worker(8, small, 2)
    assert not use_worker(1, big, 2)
    assert not use_worker(8, big, 1)
    assert not use_worker(5, three_legs, 2)


def test_serial_runs_start_no_process(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a serial run started a worker pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["verify", "--nmax", "4", "--suite", "defining,prop1"]) == 0  # 70 states
    assert main(["verify", "--suite", "defining"]) == 0  # one suite
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=6)
    assert [name for name, _, _ in suite_results(("defining", "prop1"), p, False)] == ["defining", "prop1"]
    capsys.readouterr()


def test_parameters_pickle_without_their_basis():
    p = RepParams(q=rational(-2, 5), k=(2, 1, 1, 1), legs=4, n_max=6)
    assert len(p.basis) == 210
    data = pickle.dumps(p)
    assert b"TruncatedBasis" not in data
    back = pickle.loads(data)
    assert back == p and back.basis is p.basis
