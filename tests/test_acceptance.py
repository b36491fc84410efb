"""Acceptance gate: every criterion, at its stated tolerance, one pass/fail
line per criterion (run with `pytest -s` to see the lines, or use the
`schurkernels verify` CLI for the same suites).

Exactness criteria compare with == on Fraction/QRat; real-parameter spot
checks use relative 10^-40 at 50-digit precision; the stated runtime
budgets and each suite's number of checks at seed 1 are asserted.
"""

import pytest

from schurkernels.verify import run_suite

CRITERIA = [
    # (number, description, suite name, time budget in seconds or None,
    #  number of checks at seed 1)
    (1, "closed-form Schur averages equal the Andreief oracle", "schur-averages", 60, 766),
    (2, "khat_schur = khat_double = khat_cd (= chebyshev at n=1)", "kernel-equivalence", 30, 720),
    (3, "Hankel-inverse generating function equals the CD kernel", "hankel-inverse", None, 60),
    (4, "S_4 symmetry of the n=2 expansion (all 24 permutations)", "symmetry", None, 24),
    (5, "f_2n Schur/Wronskian equality, b1, b2, f_2n(0)", "painleve", 60, 29),
    (6, "dual Cauchy identity at seeded rational points", "dual-cauchy", None, 60),
    (7, "Ginibre khat_double = closed form; real-Ginibre checks", "ginibre", None, 53),
    (8, "DF factorization, Kadell at gamma=1, Selberg vs Hankel", "df-selberg", None, 42),
    (9, "SW fermion identity with reported constants", "sw-fermion", None, 3),
    (10, "Toeplitz closed inverse, Duduchava-Roch, FH generating", "toeplitz", None, 124),
    (11, "heat-kernel partial sums within 1e-25; doubling exact", "heat-kernel", None, 116),
    (12, "Askey limit ratio tends to 1 monotonically", "askey", None, 6),
]


@pytest.mark.parametrize("number,desc,suite,budget,checks", CRITERIA,
                         ids=[f"criterion-{c[0]:02d}" for c in CRITERIA])
def test_acceptance_criterion(number, desc, suite, budget, checks):
    result = run_suite(suite, seed=1)
    status = "PASS" if result.ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {desc}: "
          f"{result.passed} checks, {result.seconds:.2f}s")
    if result.notes:
        for key, val in sorted(result.notes.items()):
            print(f"    reported {key}: {val}")
    assert result.ok, f"criterion {number} failures: {result.failures[:10]}"
    # a suite rewrite must neither drop nor double a check
    assert result.passed + result.failed == checks
    if budget is not None:
        assert result.seconds <= budget, \
            f"criterion {number} exceeded its {budget}s budget ({result.seconds:.1f}s)"
