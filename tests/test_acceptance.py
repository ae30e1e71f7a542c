"""Acceptance suite: one test per criterion, exact tolerances, stated
time budgets.  Each test prints a pass/fail line; the verify-paper command
runs the same checks end to end."""

import time

import pytest

from bioperad.verify import (CHECKS, DEFAULT_BOUNDS, run_checks)

_CHECK_FNS = {check_id: fn for check_id, _, _, fn in CHECKS}


def _run(check_id, budget=None, bounds=None):
    fn = _CHECK_FNS[check_id]
    t0 = time.time()
    status, witness = fn({**DEFAULT_BOUNDS, **(bounds or {})})
    elapsed = time.time() - t0
    line = f"criterion {check_id}: {status.upper()} ({elapsed:.1f}s)"
    print(line)
    assert status == "pass", (check_id, witness)
    if budget is not None:
        assert elapsed < budget, f"{check_id} exceeded {budget}s: {elapsed:.1f}s"
    return elapsed


def test_criterion_01_duality_dimension_counts():
    # dims 3/1/2 and 6/2/4; < 1 s
    _run("duality-dims", budget=1.0)


def test_criterion_02_koszul_dual_identification():
    # spans equal in every weight-2 signature, both directions; < 5 s
    _run("koszul-dual", budget=5.0)


def test_criterion_03_ql_conditions_and_projection():
    _run("ql-conditions")


def test_criterion_04_d_squared_bounded():
    # OCinf and LPinf at <= 5 inputs, dual dg at <= 4; < 2 min
    _run("d-squared", budget=120.0)


def test_criterion_05_koszulity_evidence():
    _run("koszulity")


def test_criterion_06_homology_equals_suspended_top():
    _run("homology-top")


def test_criterion_07_non_formality():
    _run("non-formality")


def test_criterion_08_ce_hochschild_free_algebra():
    # free Lie-acting algebra on dims (2,1), weight <= 3; < 1 min
    _run("ce-hochschild", budget=60.0)


def test_criterion_09_coderivation_lift_laws():
    _run("coderivation-lift")


def test_criterion_10_shlp_equivalence():
    _run("shlp-equivalence")


def test_criterion_11_distributive_laws():
    _run("distributive-laws")


def test_criterion_12_gk_series():
    _run("gk-series")


def test_criterion_13_full_suite_under_ten_minutes():
    t0 = time.time()
    results = run_checks()
    elapsed = time.time() - t0
    for r in results:
        print(f"{r.status.upper():5s} {r.id}")
    assert all(r.status != "fail" for r in results), [
        (r.id, r.witness) for r in results if r.status == "fail"]
    assert elapsed < 600, f"full suite took {elapsed:.0f}s"
    notes = [r for r in results if r.status == "note"]
    assert len(notes) >= 2  # the recorded discrepancy notes are present


def test_criterion_14_psi_boundaries():
    # the comparison map and the iterated-element boundary identities at
    # <= 4 inputs
    _run("psi-boundaries")


def test_run_checks_refuses_an_unknown_name():
    # a misspelt id is an error naming the known ids and groups, not an
    # empty (passing) result, and no check runs
    with pytest.raises(ValueError) as info:
        run_checks({"no-such-check"})
    message = str(info.value)
    assert message.startswith("unknown check or group no-such-check;")
    assert all(cid in message and group in message
               for cid, group, _, _ in CHECKS)
    with pytest.raises(ValueError, match="unknown check or group nope;"):
        run_checks({"duality", "nope"})
