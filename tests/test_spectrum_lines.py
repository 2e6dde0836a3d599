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
    "q, k",
    [("5/3", (1, 2, 1, 3)), ("-2/5", (2, 1, 1, 1)), ("5/3", (1, 2, 1))],
    ids=("default", "q=-2/5", "legs=3"),
)
def test_lines_equal_whole_block_counts(capsys, q, k):
    p = RepParams(q=parse(q), k=k, legs=len(k), n_max=5)
    for label in LABELS:
        subset = subset_of_label(label)
        if subset[-1] > p.legs:
            continue
        lams = {w: predicted_eigenvalues(p, (subset[0], subset[-1]), w) for w in range(6)}
        argv = ["--op", label, "--nmax", "5", "--q", q, "--k", ",".join(map(str, k)), "--legs", str(p.legs)]
        code, lines = _spectrum(capsys, argv)
        assert code == 0
        assert lines[1:] == _whole_block_lines(p, label, lams), label


@pytest.mark.parametrize("label", ["Q2", "Q23", "Q123", "Q1234"])
def test_shifted_eigenvalue_marks_its_blocks(capsys, monkeypatch, label):
    # the last eigenvalue of every block from weight 2 on, moved by 1/den:
    # a list that is no prefix of the next sends a sub-interval back to
    # the four-leg blocks, and so does --weight 3's nonzero block of p_A
    real = cli.predicted_eigenvalues

    def shifted(p, interval, weight):
        lams = real(p, interval, weight)
        if weight >= 2:
            lams[-1] += rational(1, lams[-1].denominator)
        return lams

    monkeypatch.setattr(cli, "predicted_eigenvalues", shifted)
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=5)
    subset = subset_of_label(label)
    interval = (subset[0], subset[-1])
    # a single-leg Casimir is one scalar, lambda_0 of every list
    marked = len(subset) > 1
    code, lines = _spectrum(capsys, ["--op", label, "--nmax", "5"])
    assert code == int(marked)
    lams = {w: shifted(p, interval, w) for w in range(6)}
    assert lines[1:] == _whole_block_lines(p, label, lams)
    assert [line.endswith("NONZERO RESIDUAL") for line in lines[1:]] == [marked and w >= 2 for w in range(6)]
    code, lines = _spectrum(capsys, ["--op", label, "--nmax", "5", "--weight", "3"])
    assert code == int(marked)
    assert lines[1:] == _whole_block_lines(p, label, {3: shifted(p, interval, 3)})


@pytest.mark.parametrize("label, legs", [("Q1", {1}), ("Q23", {2}), ("Q234", {3}), ("Q1234", {4})])
def test_sub_interval_builds_only_its_own_realization(capsys, monkeypatch, label, legs):
    built = []
    real = cli.casimir

    def recorded(p, interval):
        built.append(p.legs)
        return real(p, interval)

    monkeypatch.setattr(cli, "casimir", recorded)
    assert _spectrum(capsys, ["--op", label, "--nmax", "4"])[0] == 0
    assert set(built) == legs


@pytest.mark.parametrize("label", ["Q23", "Q123"])
@pytest.mark.parametrize("change", ["shifted", "dropped"])
def test_wrong_list_under_a_right_one_is_not_hidden(capsys, monkeypatch, label, change):
    # only block 2's list is off, its last value moved or dropped; the
    # top list alone would pass p_A's chain, so the prefix and length
    # checks must send the run to the four-leg blocks
    real = cli.predicted_eigenvalues

    def wrong(p, interval, weight):
        lams = real(p, interval, weight)
        if weight == 2 and change == "shifted":
            lams[-1] += rational(1, lams[-1].denominator)
        elif weight == 2:
            lams.pop()
        return lams

    monkeypatch.setattr(cli, "predicted_eigenvalues", wrong)
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=4)
    subset = subset_of_label(label)
    code, lines = _spectrum(capsys, ["--op", label, "--nmax", "4"])
    assert code == 1
    lams = {w: wrong(p, (subset[0], subset[-1]), w) for w in range(5)}
    assert lines[1:] == _whole_block_lines(p, label, lams)
    assert [line.endswith("NONZERO RESIDUAL") for line in lines[1:]] == [w == 2 for w in range(5)]
