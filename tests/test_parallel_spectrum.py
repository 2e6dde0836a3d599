"""spectrum shared with a worker process: each weight block's columns
are cut in two, the same lines as one process, this process running the
worker's units when it dies, and a serial run whenever a fork cannot pay
for itself."""

import os
import threading
from collections import Counter

import pytest

from awalgebra import cli
from awalgebra.cli import main, spectrum_units, split_spectrum
from awalgebra.exactnum import rational
from awalgebra.uqrep import RepParams
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
        assert len(forks) - before == (len(label) >= 4), label
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


def test_dead_worker_leaves_its_units_to_this_process(capsys, monkeypatch, forks):
    argv = ["--op", "Q123", "--nmax", "6"]
    serial = _spectrum(capsys, monkeypatch, argv, 1)
    here = []
    me = os.getpid()
    real = cli.annihilating_residual

    def count_or_die(op, lams, cols):
        if os.getpid() != me:
            os._exit(1)
        here.append(cols)
        return real(op, lams, cols)

    monkeypatch.setattr(cli, "annihilating_residual", count_or_die)
    forked = _spectrum(capsys, monkeypatch, argv, 2)
    assert len(forks) == 1 and forked == serial
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=6)
    assert sorted(j for cols in here for j in cols) == list(range(len(p.basis)))
    assert_no_child_left()


def test_units_cover_every_column_once_big_blocks_at_the_ends():
    basis = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=5).basis
    units = spectrum_units(basis, range(6), True)
    assert sorted(j for _, cols in units for j in cols) == list(range(len(basis)))
    weights = [w for w, _ in units]
    # the weight-0 block holds one column, so it has one nonempty half
    assert weights == [5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5]
    for w, cols in units:
        block = basis.weight_block(w)
        assert block.start <= cols.start < cols.stop <= block.stop
        assert len(cols) in (len(block) // 2, len(block) - len(block) // 2)
    assert spectrum_units(basis, [3], False) == [(3, basis.weight_block(3))]


def test_forked_spectrum_leaves_no_child_process(tmp_path):
    run = run_script(tmp_path / "children.py", FORK_COUNTING_SCRIPT, "spectrum", "--op", "Q234", "--nmax", "6")
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
    assert split_spectrum((1, 3), cli.PARALLEL_MIN_STATES, 2)
    assert split_spectrum((2, 4), 330, 16)
    assert not split_spectrum((1, 3), cli.PARALLEL_MIN_STATES - 1, 2)
    assert not split_spectrum((2, 3), 330, 2)
    assert not split_spectrum((4, 4), 330, 2)
    assert not split_spectrum((1, 4), 330, 1)
