"""Golden reports: the stdout of the certificate verifiers and the named
constructions at the CLI defaults, byte for byte. The snapshots in
tests/golden/ are the equivalence gate for refactors that must not change
any report."""

from pathlib import Path

import pytest

from lipfree.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "certify_example1": ["certify", "example1"],
    "certify_example2": ["certify", "example2"],
    "certify_example2_N4_n3_samples2_seed77": [
        "certify", "example2", "--N", "4", "--n", "3", "--samples", "2", "--seed", "77",
    ],
    "certify_delta-exist": ["certify", "delta-exist"],
    "certify_daug-rec": ["certify", "daug-rec"],
    "certify_two-anchor": ["certify", "two-anchor"],
    "certify_annuli": ["certify", "annuli"],
    "construct_daugavet": ["construct", "daugavet"],
    "construct_delta-hat": ["construct", "delta-hat"],
}


def test_every_snapshot_has_a_run():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_snapshot(name, capsys):
    assert main(RUNS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
