"""spectrum shared with a worker process: each seed run of a weight
block is cut in two, the same lines as one process, this process running the
worker's units when it dies, and a serial run whenever a fork cannot pay
for itself (every interval of fewer than four legs)."""

import os
import threading
from collections import Counter

import pytest

from awalgebra import cli
from awalgebra.cli import main, spectrum_units, split_spectrum
from awalgebra.exactnum import rational
from awalgebra.spectra import chain_counts, predicted_eigenvalues, seed_runs
from awalgebra.uqrep import RepParams, casimir, interval_ops
from helpers import FORK_COUNTING_SCRIPT, assert_no_child_left, run_script

LABELS = ("Q1", "Q2", "Q3", "Q4", "Q12", "Q23", "Q34", "Q123", "Q234", "Q1234")


@pytest.fixture
def forks(monkeypatch):
    """The forks made from now on, with two usable CPUs."""
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(None) or fork())
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    return made


def _spectrum(capsys, monkeypatch, argv, cpus):
    monkeypatch.setattr(cli, "usable_cpus", lambda: cpus)
    code = main(["spectrum", *argv])
    return code, capsys.readouterr()


@pytest.mark.parametrize("params", [[], ["--q", "-2/5", "--k", "2,1,1,1"]], ids=("default", "q=-2/5"))
def test_forked_lines_equal_serial_lines(capsys, monkeypatch, forks, params):
    for label in LABELS:
        argv = ["--op", label, "--nmax", "5", *params]
        serial = _spectrum(capsys, monkeypatch, argv, 1)
        before = len(forks)
        forked = _spectrum(capsys, monkeypatch, argv, 2)
        assert forked == serial and serial[0] == 0
        assert len(forks) - before == (label == "Q1234"), label
        assert_no_child_left()


def _shift_one_eigenvalue(monkeypatch):
    # the last eigenvalue of every block from weight 2 on, moved by 1/den
    real = cli.predicted_eigenvalues

    def shifted(p, interval, weight):
        lams = real(p, interval, weight)
        if weight >= 2:
            lams[-1] += rational(1, lams[-1].denominator)
        return lams

    monkeypatch.setattr(cli, "predicted_eigenvalues", shifted)


def test_forked_run_reports_the_same_nonzero_residuals(capsys, monkeypatch, forks):
    _shift_one_eigenvalue(monkeypatch)
    argv = ["--op", "Q1234", "--nmax", "5"]
    serial = _spectrum(capsys, monkeypatch, argv, 1)
    forked = _spectrum(capsys, monkeypatch, argv, 2)
    assert len(forks) == 1 and forked == serial
    lines = serial[1].out.splitlines()
    assert serial[0] == 1
    assert [line.endswith("NONZERO RESIDUAL") for line in lines[1:]] == [w >= 2 for w in range(6)]


def test_a_block_counts_the_residuals_of_both_halves(capsys, monkeypatch, forks):
    # a residual only in the first column of each block from weight 3 on
    # must mark the block whichever half or process finds it
    basis = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=5).basis
    firsts = {basis.weight_block(w).start for w in range(3, 6)}
    monkeypatch.setattr(cli, "annihilating_residual", lambda op, lams, cols: len(firsts.intersection(cols)))
    argv = ["--op", "Q1234", "--nmax", "5"]
    serial = _spectrum(capsys, monkeypatch, argv, 1)
    forked = _spectrum(capsys, monkeypatch, argv, 2)
    assert len(forks) == 1 and forked == serial and serial[0] == 1
    lines = serial[1].out.splitlines()
    assert [line.endswith("NONZERO RESIDUAL") for line in lines[1:]] == [w >= 3 for w in range(6)]


def _seed_columns(basis, lo):
    """Every column of S_w over all blocks: states with no quanta on leg lo."""
    return [j for j, m in enumerate(basis.states) if m[lo - 1] == 0]


def test_dead_worker_leaves_its_units_to_this_process(capsys, monkeypatch, forks):
    argv = ["--op", "Q1234", "--nmax", "5"]
    real = cli.annihilating_residual
    serial_units = []

    def count_serially(op, lams, cols):
        serial_units.append(cols)
        return real(op, lams, cols)

    monkeypatch.setattr(cli, "annihilating_residual", count_serially)
    serial = _spectrum(capsys, monkeypatch, argv, 1)
    here = []
    me = os.getpid()

    def count_or_die(op, lams, cols):
        if os.getpid() != me:
            os._exit(1)
        here.append(cols)
        return real(op, lams, cols)

    monkeypatch.setattr(cli, "annihilating_residual", count_or_die)
    forked = _spectrum(capsys, monkeypatch, argv, 2)
    assert len(forks) == 1 and forked == serial
    basis = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=5).basis
    # every block is lifted from its seed run, so both runs compute
    # exactly the seed columns, once each, and this process computed
    # the forked run's halves of the serial run's units
    seeds = _seed_columns(basis, 1)
    assert sorted(j for cols in serial_units for j in cols) == seeds
    assert sorted(j for cols in here for j in cols) == seeds
    assert all(any(set(cols) <= set(unit) for unit in serial_units) for cols in here)
    assert_no_child_left()


def test_units_cover_every_column_once_big_blocks_at_the_ends():
    # every seed column once: one seed run per block at lo = 1, w + 1
    # runs in block w at lo = 2
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=5)
    basis = p.basis
    for interval in ((1, 4), (2, 4)):
        lo = interval[0]
        lams = {w: predicted_eigenvalues(p, interval, w) for w in range(6)}
        seen = []

        def run(units):
            seen.extend(units)
            return ((w, 0) for w, _ in units)

        chain_counts(casimir(p, interval), interval_ops(p, interval)["E"], lo, lams, run=run)
        # the serial units: the seed runs of each block in weight order
        assert seen == [(w, cols) for w in range(6) for cols in seed_runs(basis, lo, w)]
        runs_per_block = [1] * 6 if lo == 1 else list(range(1, 7))
        assert [len(seed_runs(basis, lo, w)) for w in range(6)] == runs_per_block
        assert spectrum_units(seen, False) == seen
        halves = spectrum_units(seen, True)
        assert sorted(j for _, cols in halves for j in cols) == _seed_columns(basis, lo)
        # first halves from the last unit back, then second halves from
        # the first unit on; a run of one column has one nonempty half
        weights = [w for w, _ in halves]
        n = weights.index(0)
        assert weights[: n + 1] == sorted(weights[: n + 1], reverse=True)
        assert weights[n:] == sorted(weights[n:]) and weights[0] == weights[-1] == 5
        for w, cols in halves:
            unit = next(r for v, r in seen if v == w and r.start <= cols.start < r.stop)
            assert cols.stop <= unit.stop
            assert len(cols) in (len(unit) // 2, len(unit) - len(unit) // 2)


def test_forked_spectrum_leaves_no_child_process(tmp_path):
    run = run_script(tmp_path / "children.py", FORK_COUNTING_SCRIPT, "spectrum", "--op", "Q1234", "--nmax", "5")
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout.splitlines()[-1] == "exit 0, 1 fork, child left: None"


def test_piped_stdout_prints_every_line_once(tmp_path):
    # the header is printed before the fork and the block lines after it
    run = run_script(tmp_path / "piped.py", FORK_COUNTING_SCRIPT, "spectrum", "--op", "Q1234", "--nmax", "6")
    assert run.returncode == 0 and run.stderr == "", run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "exit 0, 1 fork, child left: None"
    assert lines[0].startswith("operator Q1234,")
    assert [line.split()[:2] for line in lines[1:-1]] == [["weight", str(w)] for w in range(7)]
    assert all(line.endswith("  ok") for line in lines[1:-1])
    assert max(Counter(lines).values()) == 1


def test_serial_where_a_fork_cannot_pay(capsys, monkeypatch):
    def no_fork():
        raise AssertionError("a serial spectrum forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for argv, cpus in (
        (["--op", "Q1", "--nmax", "7"], 2),  # one leg
        (["--op", "Q23", "--nmax", "7"], 2),  # two legs
        (["--op", "Q123", "--nmax", "7"], 2),  # three legs
        (["--op", "Q234", "--nmax", "7"], 2),  # three legs
        (["--op", "Q1234", "--nmax", "4"], 2),  # 70 states
        (["--op", "Q1234", "--nmax", "7", "--weight", "3"], 2),  # 20 states
        (["--op", "Q1234", "--nmax", "5"], 1),  # one CPU
    ):
        assert _spectrum(capsys, monkeypatch, argv, cpus)[0] == 0
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _spectrum(capsys, monkeypatch, ["--op", "Q1234", "--nmax", "5"], 2)[0] == 0
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_split_rule():
    assert split_spectrum((1, 4), cli.PARALLEL_MIN_STATES, 2)
    assert split_spectrum((1, 4), 330, 16)
    assert not split_spectrum((1, 4), cli.PARALLEL_MIN_STATES - 1, 2)
    assert not split_spectrum((1, 3), 330, 2)
    assert not split_spectrum((2, 4), 330, 16)
    assert not split_spectrum((2, 3), 330, 2)
    assert not split_spectrum((4, 4), 330, 2)
    assert not split_spectrum((1, 4), 330, 1)
