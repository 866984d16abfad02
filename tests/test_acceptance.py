"""Acceptance battery: one test per criterion, one pass/fail line each.

Each test delegates to ``lpalg.suite.run_criterion`` so the command line
``lpalg suite`` and this file exercise exactly the same checks at the same
tolerances.  Run with ``pytest -v -s`` to see the status lines.
"""

import math

import pytest

from lpalg import suite
from lpalg.opspace import CbEstimate
from lpalg.suite import run_criterion

SEED = 0


def _check(number):
    res = run_criterion(number, seed=SEED)
    status = "PASS" if res["passed"] else "FAIL"
    print(f"criterion {number:2d} [{status}] {res['label']}")
    assert res["passed"], f"criterion {number} failed: {res['details']}"


def test_criterion_01_norm_estimates_agree_with_oracle():
    _check(1)


def test_criterion_02_pq_duality_of_operator_norms():
    _check(2)


def test_criterion_03_translation_adjoint_identity():
    _check(3)


def test_criterion_04_covariance_and_integrated_multiplicativity():
    _check(4)


def test_criterion_05_identity_coefficient_compression():
    _check(5)


def test_criterion_06_contractivity_certificates_to_level_three():
    _check(6)


def _raised(certify, level):
    """``certify`` with its first structural level replaced by ``level``."""

    def raised(*args):
        return CbEstimate([(1, level), *certify(*args).levels[1:]], kind="structural")

    return raised


@pytest.mark.parametrize("certify, level", [
    ("averaging_cb", math.nextafter(1.0, 2.0)),  # the Folner pair, one ulp above 1
    ("compression_cb", math.nextafter(1.0, 2.0)),  # every coordinate cut and the corner embedding
    ("weighted_sum_cb", math.nextafter(1.0, 0.0)),  # the blend, an isometry, one ulp below 1
])
def test_criterion_06_decides_on_the_structural_levels(monkeypatch, certify, level):
    # the samples do not move, and none refutes: the decision rests on the proofs alone
    monkeypatch.setattr(suite, certify, _raised(getattr(suite, certify), level))
    res = run_criterion(6, seed=SEED)
    assert not res["passed"]
    sampled = [v for leg in res["details"].values() for _, v in leg["sampled"]]
    assert all(1 - 1e-6 <= v <= 1 + 1e-6 for v in sampled)


def test_criterion_06_samples_still_refute(monkeypatch):
    # a sample above 1 + 1e-6 exposes a wrong proof, whatever the proofs say
    certify = suite.cx_phi_cb_certificate

    def refuting(*args, **kwargs):
        est = certify(*args, **kwargs)
        return CbEstimate([*est.levels[:-1], (est.levels[-1][0], 1 + 2e-6)])

    monkeypatch.setattr(suite, "cx_phi_cb_certificate", refuting)
    res = run_criterion(6, seed=SEED)
    assert not res["passed"]
    assert all(v == 1.0 for leg in res["details"].values() for _, v in leg["structural"])


def test_criterion_07_folner_set_arithmetic_and_search():
    _check(7)


def test_criterion_08_single_term_roundtrip_equality():
    _check(8)


def test_criterion_09_end_to_end_nuclearity_witness():
    _check(9)


def test_criterion_10_commutative_partition_roundtrip():
    _check(10)


def test_criterion_11_amplification_and_corner_stability():
    _check(11)


def test_criterion_12_rotation_algebra_model():
    _check(12)


def test_criterion_13_byte_identical_reports_per_seed():
    _check(13)
