"""Test-only helpers shared by several test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import awalgebra
from awalgebra.opalgebra import is_consecutive, subset_of_label


def degree_is_consistent(op) -> bool:
    """True when every stored entry of op obeys its declared degree."""
    if op.degree is None:
        return True
    weights = op.basis.weights
    return all(
        weights[i] == weights[j] + op.degree for j, col in op.cols.items() for i in col
    )


def below_top(op):
    """op restricted to the columns below the top weight block."""
    basis = op.basis
    return op.restricted(range(0, basis.weight_block(basis.n_max - 1).stop))


def is_derived_label(label: str) -> bool:
    """True for the labels of derived generators (non-consecutive legs)."""
    subset = subset_of_label(label)
    return bool(subset) and not is_consecutive(subset)


def monomial(reg, labels):
    """Ordered product of labeled generators of reg (empty = identity)."""
    if not labels:
        return -reg["Q0"]  # Q0 is minus the identity
    out = reg[labels[0]]
    for la in labels[1:]:
        out = out * reg[la]
    return out


def assert_no_child_left():
    """Neither a running nor an unreaped child of this process."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_script(path, source, *args):
    """Write source to path and run it in a fresh interpreter that
    imports this checkout's awalgebra; the CompletedProcess."""
    path.write_text(source)
    env = dict(os.environ, PYTHONPATH=str(Path(awalgebra.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, str(path), *args], env=env, capture_output=True, text=True, timeout=120
    )


# cli.main(argv) with two usable CPUs whatever the host has, then the
# number of forks and whether a child process is left
FORK_COUNTING_SCRIPT = """\
import os, sys
from awalgebra import cli
forks = []
fork = os.fork
def counted_fork():
    forks.append(None)
    return fork()
os.fork = counted_fork
cli.usable_cpus = lambda: 2
code = cli.main(sys.argv[1:])
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = None
print(f"exit {code}, {len(forks)} fork, child left: {left}")
"""
