"""A sampling oracle for the word decisions above 16 positions.

Above 16 positions no suite can be held to the matrices, whose 2^N columns
cannot be listed.  Here every identity that the ``rho_rep`` relation and
Serre suites and ``check_commutant`` decide at 8x8 (64 positions) is
recorded with its two sides, and both sides are evaluated from the
operators' ``terms`` by the per-generator interpreter of the tests
(``reference_apply``), which uses neither the compiled words, their folded
coefficients nor ``wordzero``.  They are evaluated on a fixed-seed sample of
states and at the reported witness: a passing identity must agree on every
sample, and a failing one must differ at its witness and agree on the
sampled states before it.
"""

import random

import pytest

from qhowe import report
from qhowe.embeddings import check_commutant, rho_rep
from qhowe.qgroup import check_relations, check_serre
from qhowe.qscalar import QLaurent
from test_embeddings import TABLE_MUTANTS, mutate
from test_qclifford import reference_apply

N = 64
SAMPLES = 4
ONE = QLaurent.one()


def record_sides(monkeypatch):
    """Make report.match and report.commute list each record they return
    with its two sides, as functions of a sparse vector."""
    calls = []
    match, commute = report.match, report.commute

    def recording_match(relation, lhs, rhs, label, **fields):
        record = match(relation, lhs, rhs, label, **fields)
        calls.append((record, lambda v: reference_apply(lhs, v),
                      lambda v: reference_apply(rhs, v)))
        return record

    def recording_commute(relation, x, y, label, shift=0, **fields):
        record = commute(relation, x, y, label, shift=shift, **fields)
        scale = QLaurent.q_power(shift)
        calls.append((record, lambda v: reference_apply(x, reference_apply(y, v)),
                      lambda v: {s: c * scale for s, c in
                                 reference_apply(y, reference_apply(x, v)).items()}))
        return record

    monkeypatch.setattr(report, "match", recording_match)
    monkeypatch.setattr(report, "commute", recording_commute)
    return calls


def to_state(text):
    """The state ``state_to_string`` renders as text (position 1 leftmost)."""
    return sum(1 << k for k, ch in enumerate(text) if ch == "1")


def sample_states(rng, below=1 << N):
    """SAMPLES states under below: half dense, half with about one position
    in eight occupied."""
    dense = [rng.randrange(below) for _ in range(SAMPLES // 2)]
    sparse = [rng.randrange(below) & rng.getrandbits(N) & rng.getrandbits(N)
              & rng.getrandbits(N) for _ in range(SAMPLES - SAMPLES // 2)]
    return dense + sparse


def assert_sampled(calls, seed):
    rng = random.Random(seed)
    for record, lhs, rhs in calls:
        if record["status"] == "pass":
            states = sample_states(rng)
        else:
            witness = to_state(record["witness"])
            assert lhs({witness: ONE}) != rhs({witness: ONE}), record
            states = sample_states(rng, witness) if witness else []
        for state in states:
            assert lhs({state: ONE}) == rhs({state: ONE}), (record, state)


@pytest.mark.parametrize("mutant", [None, "rho E kappa above -> below",
                                    "rho E with an extra w_a"])
def test_word_decisions_at_8x8_agree_with_sampled_terms(monkeypatch, mutant):
    failing = mutate(monkeypatch, mutant) if mutant else ()
    calls = record_sides(monkeypatch)
    rep = rho_rep(8, 8)
    status = {
        "rho_relations": check_relations(rep)["status"],
        "rho_serre": check_serre(rep)["status"],
        "commutant": check_commutant(8, 8)["status"],
    }
    assert {suite for suite, s in status.items() if s == "fail"} == set(failing) - {
        "composition", "lambda_relations"}
    assert len(calls) == len({id(record) for record, _, _ in calls})
    assert_sampled(calls, seed=88)
