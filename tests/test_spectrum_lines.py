"""`spectrum` in one process: its printed lines against the benchmark's
frozen hashes and against whole-block counts."""

import hashlib
import json
from pathlib import Path

import pytest

from awalgebra import cli
from awalgebra.cli import main
from awalgebra.exactnum import parse, rational, to_text
from awalgebra.opalgebra import subset_of_label
from awalgebra.spectra import annihilating_residual
from awalgebra.uqrep import RepParams, casimir, predicted_eigenvalues

LABELS = ("Q1", "Q2", "Q3", "Q4", "Q12", "Q23", "Q34", "Q123", "Q234", "Q1234")
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _spectrum(capsys, argv):
    code = main(["spectrum", *argv])
    return code, capsys.readouterr().out.splitlines()


def test_lines_hash_equal_to_the_frozen_reference(capsys):
    # perfbench's spectrum-deep reference: sha256 of every line of
    # `spectrum --op X --nmax 7`, frozen before the membership test
    frozen = json.loads(REFERENCE.read_text())["spectrum-deep"]
    for label in LABELS:
        code, lines = _spectrum(capsys, ["--op", label, "--nmax", "7"])
        assert code == 0
        assert [hashlib.sha256(line.encode()).hexdigest() for line in lines] == frozen[label], label


def _whole_block_lines(p, label, lams):
    """The block lines of spectrum, each status from the count over the
    whole block."""
    subset = subset_of_label(label)
    op = casimir(p, (subset[0], subset[-1]))
    lines = []
    for w, values in lams.items():
        block = p.basis.weight_block(w)
        status = "ok" if annihilating_residual(op, values, block) == 0 else "NONZERO RESIDUAL"
        lines.append(f"weight {w} (block size {len(block)}): [{', '.join(map(to_text, values))}]  {status}")
    return lines


@pytest.mark.parametrize(
    "q, k", [("5/3", (1, 2, 1, 3)), ("-2/5", (2, 1, 1, 1))], ids=("default", "q=-2/5")
)
def test_lines_equal_whole_block_counts(capsys, q, k):
    p = RepParams(q=parse(q), k=k, legs=4, n_max=5)
    for label in LABELS:
        subset = subset_of_label(label)
        lams = {w: predicted_eigenvalues(p, (subset[0], subset[-1]), w) for w in range(6)}
        code, lines = _spectrum(capsys, ["--op", label, "--nmax", "5", "--q", q, "--k", ",".join(map(str, k))])
        assert code == 0
        assert lines[1:] == _whole_block_lines(p, label, lams), label


def test_shifted_eigenvalue_marks_its_blocks(capsys, monkeypatch):
    # the last eigenvalue of every block from weight 2 on, moved by 1/den
    real = cli.predicted_eigenvalues

    def shifted(p, interval, weight):
        lams = real(p, interval, weight)
        if weight >= 2:
            lams[-1] += rational(1, lams[-1].denominator)
        return lams

    monkeypatch.setattr(cli, "predicted_eigenvalues", shifted)
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=5)
    code, lines = _spectrum(capsys, ["--op", "Q1234", "--nmax", "5"])
    assert code == 1
    lams = {w: shifted(p, (1, 4), w) for w in range(6)}
    assert lines[1:] == _whole_block_lines(p, "Q1234", lams)
    assert [line.endswith("NONZERO RESIDUAL") for line in lines[1:]] == [w >= 2 for w in range(6)]
