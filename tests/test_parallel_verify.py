"""verify shared with a worker process: the same reports as one process,
the back half of the suites after the first in the worker, this process
running the worker's unsent suites when it dies or every suite when it
cannot start, no worker or pipe left behind when this process's half
raises, and a serial run whenever a worker cannot pay for itself."""

import errno
import json
import os
import re
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from awalgebra import cli, uqrep
from awalgebra.cli import SUITE_ORDER, main, run_suite, suite_results, use_worker
from awalgebra.exactnum import rational
from awalgebra.uqrep import RepParams
from helpers import FORK_COUNTING_SCRIPT, assert_no_child_left, run_script


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
    assert_no_child_left()
    report = json.loads(path.read_text())
    p = RepParams(q=q, k=k, legs=4, n_max=6)
    checks = _json([r for name in SUITE_ORDER for r in run_suite(name, p)])
    assert report["checks"] == checks
    assert report["suites"] == list(SUITE_ORDER) and report["skipped_suites"] == {}
    assert report["summary"] == {"pass": len(checks), "fail": 0, "skipped": 0}
    assert report["params"] == {"q": cli.to_text(p.q), "k": list(k), "legs": 4, "nmax": 6}
    assert set(report["timings_ms"]) == set(SUITE_ORDER)


def test_worker_results_equal_serial_results(monkeypatch):
    # the worker path itself, whatever the CPU count of the host
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    serial = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, False)]
    # the forked worker appends to its own copy of here
    here = []
    real = cli.run_suite
    monkeypatch.setattr(cli, "run_suite", lambda name, p: here.append(name) or real(name, p))
    forked = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, True)]
    assert forked == serial
    assert_no_child_left()
    # the first suite and the front half of the rest here, the back
    # half in the worker
    assert here == ["defining", "prop1", "prop2", "aw3"]


def _fake_suites(monkeypatch, run):
    """run(name) in place of every suite, and no registry to build."""
    monkeypatch.setattr(cli, "run_suite", lambda name, p: run(name))
    monkeypatch.setattr(cli, "build_registry", lambda p: SimpleNamespace(quotient=None))


@pytest.mark.parametrize("count", [2, 3, 8, 9])
def test_worker_runs_the_back_half_after_the_first_suite(monkeypatch, count):
    # each suite reports the pid that ran it
    _fake_suites(monkeypatch, lambda name: [os.getpid()])
    names = [f"s{i}" for i in range(count)]
    results = list(suite_results(names, None, True))
    assert [name for name, _, _ in results] == names
    ran = {name: reports[0] for name, reports, _ in results}
    rest = names[1:]
    theirs = rest[len(rest) // 2 :]
    assert {name for name, pid in ran.items() if pid != os.getpid()} == set(theirs)
    assert len({ran[name] for name in theirs}) == 1
    assert_no_child_left()


def test_dead_worker_leaves_its_suites_to_this_process(monkeypatch):
    # the worker exits as soon as it has taken a suite; this process
    # runs that suite and every other one the worker never sent
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    serial = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, False)]
    here = []
    me = os.getpid()
    real = cli.run_suite

    def run_or_die(name, p):
        if os.getpid() != me:
            os._exit(1)
        here.append(name)
        return real(name, p)

    monkeypatch.setattr(cli, "run_suite", run_or_die)
    forked = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, True)]
    assert forked == serial
    assert sorted(here) == sorted(SUITE_ORDER)
    assert_no_child_left()


@pytest.mark.parametrize("sent", [1, 3])
def test_worker_dying_after_some_results_leaves_the_rest_here(monkeypatch, sent):
    # the worker exits when it starts its suite number sent + 1, after
    # sending sent results; this process runs its own half and the
    # worker's unsent suites, each once
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    serial = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, False)]
    here = []
    started = []
    me = os.getpid()
    real = cli.run_suite

    def run_or_die(name, p):
        if os.getpid() != me:
            started.append(name)
            if len(started) > sent:
                os._exit(1)
        else:
            here.append(name)
        return real(name, p)

    monkeypatch.setattr(cli, "run_suite", run_or_die)
    forked = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, True)]
    assert forked == serial
    rest = list(SUITE_ORDER[1:])
    mine, theirs = rest[: len(rest) // 2], rest[len(rest) // 2 :]
    assert here == ["defining", *mine, *theirs[sent:]]
    assert_no_child_left()


def test_error_here_stops_the_worker_and_closes_the_pipe(monkeypatch):
    # the worker's suites would take a minute; an exception in this
    # process's half reaches the caller at once, the worker is stopped
    # and reaped, and no descriptor of the pipe stays open, though the
    # traceback still holds the generator's frame
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd on this platform")
    me = os.getpid()

    def run(name):
        if os.getpid() != me:
            time.sleep(60)
        if name == "s2":
            raise RuntimeError("suite s2 failed")
        return [name]

    _fake_suites(monkeypatch, run)
    before = sorted(os.listdir(fds))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="suite s2 failed") as raised:
        list(suite_results([f"s{i}" for i in range(6)], None, True))
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert sorted(os.listdir(fds)) == before


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_worker_that_cannot_start_leaves_every_suite_here(monkeypatch, tmp_path, capsys, call):
    # an OSError from os.fork, or from os.pipe before it, starts no
    # process: the run is the serial one
    def report(cpus):
        monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
        path = tmp_path / f"report-{cpus}.json"
        assert main(["verify", "--nmax", "5", "--report", str(path)]) == 0
        payload = json.loads(path.read_text())
        del payload["timings_ms"]
        return payload, capsys.readouterr().out

    serial = report(1)
    calls = Counter()
    real = {name: getattr(os, name) for name in ("fork", "pipe")}

    def refusing(name):
        def attempt(*args):
            calls[name] += 1
            if name == call:
                raise OSError(errno.EAGAIN, "refused by the test")
            return real[name](*args)

        return attempt

    for name in real:
        monkeypatch.setattr(os, name, refusing(name))
    got = report(2)
    assert calls[call] == 1 and calls["fork"] == (call == "fork")
    assert_no_child_left()
    assert got[0] == serial[0]
    strip = lambda out: re.sub(r"\[\d+\.\ds\]", "", out)
    assert strip(got[1]) == strip(serial[1])


def test_worker_rebuilds_nothing(monkeypatch):
    # the worker is forked after the registry is built, so its suites
    # miss no realization cache; fork carries this patch into it
    p = RepParams(q=rational(7, 4), k=(2, 1, 3, 1), legs=4, n_max=5)
    caches = (cli.build_registry, uqrep.interval_ops, uqrep.casimir)
    real = cli.run_suite

    def counted(name, p):
        before = [cache.cache_info().misses for cache in caches]
        real(name, p)
        return [(os.getpid(), [cache.cache_info().misses - n for cache, n in zip(caches, before)])]

    monkeypatch.setattr(cli, "run_suite", counted)
    # aw3-quadratic builds its three-leg sub-realization wherever it runs
    names = [name for name in SUITE_ORDER if name != "aw3-quadratic"]
    rows = [reports[0] for _, reports, _ in suite_results(names, p, True)]
    worker = [misses for pid, misses in rows if pid != os.getpid()]
    here = [misses for pid, misses in rows if pid == os.getpid()]
    assert worker and all(misses == [0, 0, 0] for misses in worker)
    assert sum(map(sum, here)) > 0


_UNGUARDED = """\
import sys
from awalgebra import cli
sys.exit(cli.main(["verify", "--nmax", "5", "--suite", "defining,prop1,prop2", "--report", sys.argv[1]]))
"""


def test_script_without_main_guard_still_verifies(tmp_path):
    # a forked worker does not import the main script again, so a script
    # may call main unguarded
    path = tmp_path / "report.json"
    run = run_script(tmp_path / "unguarded.py", _UNGUARDED, str(path))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert sum(line.startswith("params:") for line in run.stdout.splitlines()) == 1
    names = ("defining", "prop1", "prop2")
    assert [line.split()[0] for line in run.stdout.splitlines() if line.split()[0] in names] == list(names)
    assert "VERDICT: PASS (3 suites" in run.stdout
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=5)
    assert len(p.basis) >= cli.PARALLEL_MIN_STATES
    checks = _json([r for name in names for r in run_suite(name, p)])
    assert json.loads(path.read_text())["checks"] == checks


def test_worker_path_leaves_no_child_process(tmp_path):
    # the spawn pool of an earlier design left a resource tracker running
    run = run_script(tmp_path / "children.py", FORK_COUNTING_SCRIPT, "verify", "--suite", "defining,prop1")
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout.splitlines()[-1] == "exit 0, 1 fork, child left: None"


def test_piped_stdout_prints_every_line_once(tmp_path):
    # stdout on a pipe is block buffered; nothing this process printed
    # before the fork may be printed again by the worker
    run = run_script(tmp_path / "piped.py", FORK_COUNTING_SCRIPT, "verify", "--nmax", "5")
    assert run.returncode == 0 and run.stderr == "", run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "exit 0, 1 fork, child left: None"
    assert lines[0].startswith("params:") and lines[-2].startswith("VERDICT: PASS (8 suites")
    assert [line.split()[0] for line in lines[1:9]] == list(SUITE_ORDER)
    assert max(Counter(lines).values()) == 1


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


def test_serial_without_fork_or_beside_another_thread(monkeypatch):
    # a fork copies the locks other threads hold
    big = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=6)
    assert use_worker(8, big, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not use_worker(8, big, 2)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.delattr(os, "fork")
    assert not use_worker(8, big, 2)


def test_serial_runs_start_no_process(monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a serial run forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["verify", "--nmax", "4", "--suite", "defining,prop1"]) == 0  # 70 states
    assert main(["verify", "--suite", "defining"]) == 0  # one suite
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=6)
    assert [name for name, _, _ in suite_results(("defining", "prop1"), p, False)] == ["defining", "prop1"]
    capsys.readouterr()
