"""verify shared with two worker processes: the same reports as one
process, the registry-free suites in a first worker forked once the
left folds are built, the back half of the others in a second worker
forked after the registry, this process emptying its fold caches after
the second fork, running a worker's unsent suites when it dies or all
of them when it cannot start, no worker or pipe left behind when this
process raises, and a serial run whenever a worker cannot pay for
itself."""

import errno
import json
import os
import re
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from awalgebra import cli, opalgebra, relcheck, spectra, uqrep
from awalgebra.cli import SUITE_ORDER, main, run_suite, suite_results, use_worker
from awalgebra.exactnum import rational
from awalgebra.uqrep import RepParams
from helpers import FORK_COUNTING_SCRIPT, assert_no_child_left, clear_operator_caches, run_script


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
    # the front half of the registry suites here, the rest in the workers
    assert here == ["prop1", "prop2", "aw3"]


SMALL = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=2)

# the suites that need no four-leg registry
REGISTRY_FREE = {"defining", "aw3-quadratic"}


def _counted_forks(monkeypatch):
    """A list that gets one entry per os.fork call in this process."""
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real())
    return forks


# selection -> (the suites run here, the suites of each worker)
SPLITS = {
    "defining,aw3-quadratic": ({"defining"}, [{"aw3-quadratic"}]),
    "prop1,prop2": ({"prop1"}, [{"prop2"}]),
    "defining,prop1,prop2": ({"prop1"}, [{"defining"}, {"prop2"}]),
    "defining,prop1": ({"prop1"}, [{"defining"}]),
    "all": (
        {"prop1", "prop2", "aw3"},
        [{"defining", "aw3-quadratic"}, {"master", "spectra", "independence"}],
    ),
}


@pytest.mark.parametrize("selection", SPLITS)
def test_each_suite_runs_once_where_the_split_puts_it(monkeypatch, selection):
    # each suite reports the pid that ran it, and the workers append to
    # their own copies of calls; this process builds a four-leg registry
    # only when a selected suite needs one
    built, calls = [], []
    real_build = cli.build_registry
    monkeypatch.setattr(cli, "build_registry", lambda p: built.append(p.legs) or real_build(p))
    monkeypatch.setattr(cli, "run_suite", lambda name, p: calls.append(name) or [os.getpid()])
    forks = _counted_forks(monkeypatch)
    here, workers = SPLITS[selection]
    names = list(SUITE_ORDER) if selection == "all" else selection.split(",")
    results = list(suite_results(names, SMALL, True))
    assert [name for name, _, _ in results] == names
    ran = {name: reports[0] for name, reports, _ in results}
    assert {name for name, pid in ran.items() if pid == os.getpid()} == here
    assert sorted(calls) == sorted(here)
    by_pid = {}
    for name, pid in ran.items():
        if pid != os.getpid():
            by_pid.setdefault(pid, set()).add(name)
    assert sorted(by_pid.values(), key=sorted) == sorted(workers, key=sorted)
    assert len(forks) == len(workers)
    assert built == ([] if set(names) <= REGISTRY_FREE else [4])
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


@pytest.mark.parametrize("sent", [0, 1, 3])
def test_worker_dying_after_some_results_leaves_the_rest_here(monkeypatch, sent):
    # each worker exits when it starts its suite number sent + 1, after
    # sending sent results; this process runs its own suites and each
    # worker's unsent ones, each once
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
    first, second = ["defining", "aw3-quadratic"], ["master", "spectra", "independence"]
    unsent = set(first[sent:] + second[sent:])
    assert here == [name for name in SUITE_ORDER if name in {"prop1", "prop2", "aw3"} | unsent]
    assert_no_child_left()


def _raise_here(monkeypatch, error_in, quick=()):
    """Run every suite, each worker's taking a minute but those of
    quick, so that every worker started is busy when error_in
    ("registry" or a suite of this process) raises here.  The exception
    must reach the caller at once, every worker be stopped and reaped,
    and no descriptor of a pipe stay open, though the traceback still
    holds the generator's frame.  The number of forks."""
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd on this platform")
    me = os.getpid()

    def run(name, p):
        if os.getpid() != me and name not in quick:
            time.sleep(60)
        if name == error_in:
            raise RuntimeError(f"{name} failed")
        return [name]

    def build(p):
        raise RuntimeError("registry failed")

    monkeypatch.setattr(cli, "run_suite", run)
    if error_in == "registry":
        monkeypatch.setattr(cli, "build_registry", build)
    forks = _counted_forks(monkeypatch)
    before = sorted(os.listdir(fds))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=f"{error_in} failed"):
        list(suite_results(SUITE_ORDER, SMALL, True))
    assert time.monotonic() - start < 30
    assert_no_child_left()
    assert sorted(os.listdir(fds)) == before
    return len(forks)


def test_error_here_stops_the_worker_and_closes_the_pipe(monkeypatch):
    # raised in this process's half, which starts once defining has come
    # from the first worker, with both workers running
    assert _raise_here(monkeypatch, "prop2", quick=("defining",)) == 2


def test_error_while_building_stops_the_first_worker(monkeypatch):
    # raised by the registry build, before the second fork; the first
    # worker is still in defining, so it has not yet written to the pipe
    # (a write to a closed pipe would end it without the SIGTERM)
    assert _raise_here(monkeypatch, "registry") == 1


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_worker_that_cannot_start_leaves_every_suite_here(monkeypatch, tmp_path, capsys, call):
    # an OSError from os.fork, or from os.pipe before it, at both forks
    # starts no process: the run is the serial one
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
    assert calls[call] == 2 and calls["fork"] == 2 * (call == "fork")
    assert_no_child_left()
    assert got[0] == serial[0]
    strip = lambda out: re.sub(r"\[\d+\.\ds\]", "", out)
    assert strip(got[1]) == strip(serial[1])


@pytest.mark.parametrize("refused", ["pipe-1", "fork-1", "pipe-2", "fork-2"])
def test_one_worker_that_cannot_start_leaves_its_suites_here(monkeypatch, refused):
    # only the first or only the second fork fails; the other worker
    # runs its suites, and this process the refused worker's
    call, attempt = refused.split("-")
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    serial = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, False)]
    real = getattr(os, call)
    calls = []

    def attempt_call(*args):
        calls.append(None)
        if len(calls) == int(attempt):
            raise OSError(errno.EAGAIN, "refused by the test")
        return real(*args)

    monkeypatch.setattr(os, call, attempt_call)
    here = []
    me = os.getpid()
    real_run = cli.run_suite

    def run(name, p):
        if os.getpid() == me:
            here.append(name)
        return real_run(name, p)

    monkeypatch.setattr(cli, "run_suite", run)
    forked = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, True)]
    assert forked == serial
    refused_names = ["defining", "aw3-quadratic"] if attempt == "1" else ["master", "spectra", "independence"]
    assert here == [name for name in SUITE_ORDER if name in {"prop1", "prop2", "aw3", *refused_names}]
    assert_no_child_left()


def test_first_worker_runs_the_registry_free_suites(monkeypatch):
    # the first worker is forked before any registry is built, and
    # builds only the three-leg sub-realization's; this process never
    # builds it
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    built = []
    real_build = cli.build_registry
    monkeypatch.setattr(cli, "build_registry", lambda p: built.append(p.legs) or real_build(p))
    real = cli.run_suite

    def counted(name, p):
        real(name, p)
        return [(os.getpid(), list(built))]

    monkeypatch.setattr(cli, "run_suite", counted)
    rows = {name: reports[0] for name, reports, _ in suite_results(SUITE_ORDER, p, True)}
    first = rows["defining"][0]
    assert first != os.getpid()
    assert {name for name, (pid, _) in rows.items() if pid == first} == REGISTRY_FREE
    assert rows["aw3-quadratic"][1] == [3]
    assert set(built) == {4}
    assert_no_child_left()


def test_worker_rebuilds_nothing(monkeypatch):
    # the first worker is forked after the left folds are built, so its
    # suites miss, of the cache entries keyed on p itself, only the
    # three right folds coassociativity compares; the second is forked
    # after the registry, so its suites miss none (its registry, leg
    # operators, folds and Casimirs), and spectra builds each
    # interval's own realization there; fork carries these patches into
    # both.  This process ends with empty fold and leg caches
    p = RepParams(q=rational(7, 4), k=(2, 1, 3, 1), legs=4, n_max=5)
    caches = (cli.build_registry, uqrep._leg_ops, uqrep.interval_ops, uqrep.casimir)
    clear_operator_caches()
    on_p = []  # (cache, args) of each call keyed on p that missed, in this process

    def keyed(cache):
        def call(key, *args):
            before = cache.cache_info().misses
            try:
                return cache(key, *args)
            finally:
                # a hit makes no nested call, so a miss during the call
                # is its own
                if key == p and cache.cache_info().misses > before:
                    on_p.append((cache.__name__, args))

        return call

    for cache in caches:
        for module in (cli, opalgebra, relcheck, spectra, uqrep):
            if getattr(module, cache.__name__, None) is cache:
                monkeypatch.setattr(module, cache.__name__, keyed(cache))
    real = cli.run_suite

    def counted(name, p):
        before = len(on_p), sum(c.cache_info().misses for c in caches)
        real(name, p)
        return [(os.getpid(), on_p[before[0] :], sum(c.cache_info().misses for c in caches) - before[1])]

    monkeypatch.setattr(cli, "run_suite", counted)
    rows = {name: reports[0] for name, reports, _ in suite_results(SUITE_ORDER, p, True)}
    second = {pid for name, (pid, _, _) in rows.items() if name in ("master", "spectra", "independence")}
    assert len(second) == 1 and os.getpid() not in second
    assert all(missed == [] for pid, missed, _ in rows.values() if pid in second)
    assert rows["spectra"][2] > 0
    first = rows["defining"][0]
    assert first not in second | {os.getpid()} and rows["aw3-quadratic"][0] == first
    right = [("interval_ops", (interval, "right")) for interval in ((1, 3), (1, 4), (2, 4))]
    assert sorted(rows["defining"][1] + rows["aw3-quadratic"][1]) == right
    assert [c.cache_info().currsize for c in caches[1:3]] == [0, 0]
    assert_no_child_left()


def test_spectra_left_here_reads_the_folds_built_before_the_fork(monkeypatch):
    # spectra, the front half of spectra,independence, reads p's total
    # left fold, so this process keeps the folds it built before the
    # forks, and that fold misses once
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    clear_operator_caches()
    real = uqrep.interval_ops
    missed = []

    def keyed(key, *args):
        before = real.cache_info().misses
        try:
            return real(key, *args)
        finally:
            if key == p and real.cache_info().misses > before:
                missed.append(args)

    for module in (cli, relcheck, spectra, uqrep):
        monkeypatch.setattr(module, "interval_ops", keyed)
    names = ["spectra", "independence"]
    forks = _counted_forks(monkeypatch)
    forked = [(name, _json(reports)) for name, reports, _ in suite_results(names, p, True)]
    assert len(forks) == 1
    assert_no_child_left()
    assert missed.count(((1, 4),)) == 1
    assert forked == [(name, _json(reports)) for name, reports, _ in suite_results(names, p, False)]


def test_forked_verify_with_wrapped_cache_names(monkeypatch):
    # the benchmark's layer tracer replaces uqrep.interval_ops with a
    # plain wrapper that has no cache_clear; the verify process still
    # empties the caches themselves after the second fork
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=5)
    serial = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, False)]
    caches = (uqrep._leg_ops, uqrep.interval_ops)
    for cache in caches:

        def forward(*args, cache=cache):
            return cache(*args)

        for module in (cli, relcheck, spectra, opalgebra, uqrep):
            if getattr(module, cache.__name__, None) is cache:
                monkeypatch.setattr(module, cache.__name__, forward)
    forked = [(name, _json(reports)) for name, reports, _ in suite_results(SUITE_ORDER, p, True)]
    assert forked == serial
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]
    assert_no_child_left()


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


def test_default_verify_forks_twice(tmp_path):
    run = run_script(tmp_path / "default.py", FORK_COUNTING_SCRIPT, "verify")
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout.splitlines()[-1] == "exit 0, 2 fork, child left: None"


def test_piped_stdout_prints_every_line_once(tmp_path):
    # stdout on a pipe is block buffered; nothing this process printed
    # before the fork may be printed again by the worker
    run = run_script(tmp_path / "piped.py", FORK_COUNTING_SCRIPT, "verify", "--nmax", "5")
    assert run.returncode == 0 and run.stderr == "", run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "exit 0, 2 fork, child left: None"
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
