"""`spectrum` run as a script with two usable CPUs and piped stdout: it
stays in one process, forks nothing, leaves no child and prints every
line once."""

from collections import Counter

from helpers import FORK_COUNTING_SCRIPT, run_script


def test_forked_spectrum_leaves_no_child_process(tmp_path):
    run = run_script(tmp_path / "children.py", FORK_COUNTING_SCRIPT, "spectrum", "--op", "Q1234", "--nmax", "5")
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout.splitlines()[-1] == "exit 0, 0 fork, child left: None"


def test_piped_stdout_prints_every_line_once(tmp_path):
    run = run_script(tmp_path / "piped.py", FORK_COUNTING_SCRIPT, "spectrum", "--op", "Q1234", "--nmax", "6")
    assert run.returncode == 0 and run.stderr == "", run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "exit 0, 0 fork, child left: None"
    assert lines[0].startswith("operator Q1234,")
    assert [line.split()[:2] for line in lines[1:-1]] == [["weight", str(w)] for w in range(7)]
    assert all(line.endswith("  ok") for line in lines[1:-1])
    assert max(Counter(lines).values()) == 1
