"""A sampling oracle for the word decisions above 16 positions.

Above 16 positions no suite can be held to the matrices, whose 2^N columns
cannot be listed.  Here every identity that the ``lambda_rep`` and
``rho_rep`` relation and Serre suites and ``check_commutant`` decide at 8x8
(64 positions) is recorded with its two sides, and both sides are evaluated
factor by factor from the operators' ``_terms`` node trees
(``factored_apply``): a product applies its right factor first, and only the
leaf term lists go through the per-generator interpreter of the tests
(``reference_apply``), which uses neither the compiled words, their folded
coefficients nor ``wordzero``.  They are evaluated on a fixed-seed sample of
states and at the reported witness: a passing identity must agree on every
sample, and a failing one must differ at its witness and agree on the
sampled states before it.
"""

import random
from operator import add

import pytest

from qhowe import qclifford, report
from qhowe.embeddings import check_commutant, lambda_rep, rho_rep
from qhowe.qgroup import check_relations, check_serre
from qhowe.qscalar import QLaurent
from test_embeddings import mutate
from test_qclifford import reference_apply

N = 64
SAMPLES = 4
ONE = QLaurent.one()


def _nonzero(vec):
    return {s: c for s, c in vec.items() if c}


def factored_apply(node, vec):
    """An operator's ``_terms`` (a term list, or a node ``(build, *args)``
    of the algebra) applied to a sparse vector, one node at a time."""
    if isinstance(node, list):
        return reference_apply(node, vec)
    build, *args = node
    if build is qclifford._products:
        return factored_apply(args[0], factored_apply(args[1], vec))
    out = factored_apply(args[0], vec)
    if build is add:
        for s, c in factored_apply(args[1], vec).items():
            out[s] = out[s] + c if s in out else c
        return _nonzero(out)
    if build is qclifford._negated:
        return {s: -c for s, c in out.items()}
    assert build is qclifford._scaled
    return _nonzero({s: c * args[1] for s, c in out.items()})


def side(op):
    """op as a function of a sparse vector, read from its node tree when
    the function is called."""
    return lambda v: factored_apply(op._terms, v)


def record_sides(monkeypatch):
    """Make report.match and report.commute list each record they return
    with its two sides, as functions of a sparse vector."""
    calls = []
    match, commute = report.match, report.commute

    def recording_match(relation, lhs, rhs, label, **fields):
        record = match(relation, lhs, rhs, label, **fields)
        calls.append((record, side(lhs), side(rhs)))
        return record

    def recording_commute(relation, x, y, label, shift=0, **fields):
        record = commute(relation, x, y, label, shift=shift, **fields)
        scale = QLaurent.q_power(shift)
        x_side, y_side = side(x), side(y)
        calls.append((record, lambda v: x_side(y_side(v)),
                      lambda v: {s: c * scale for s, c in y_side(x_side(v)).items()}))
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


SUITES = {
    "lambda_relations": lambda: check_relations(lambda_rep(8, 8)),
    "lambda_serre": lambda: check_serre(lambda_rep(8, 8)),
    "rho_relations": lambda: check_relations(rho_rep(8, 8)),
    "rho_serre": lambda: check_serre(rho_rep(8, 8)),
    "commutant": lambda: check_commutant(8, 8),
}
RHO = ("rho_relations", "rho_serre", "commutant")
LAMBDA = ("lambda_relations", "lambda_serre", "commutant")


@pytest.mark.parametrize("mutant, suites", [
    pytest.param(mutant, suites, id=str(mutant)) for mutant, suites in [
        (None, tuple(SUITES)),
        ("rho E kappa above -> below", RHO),
        ("rho E with an extra w_a", RHO),
        ("lambda F kappa left -> right", LAMBDA)]])
def test_word_decisions_at_8x8_agree_with_sampled_terms(monkeypatch, mutant, suites):
    failing = mutate(monkeypatch, mutant) if mutant else ()
    calls = record_sides(monkeypatch)
    status = {suite: SUITES[suite]()["status"] for suite in suites}
    assert {suite for suite, s in status.items() if s == "fail"} == set(failing) & set(suites)
    assert len(calls) == len({id(record) for record, _, _ in calls})
    assert_sampled(calls, seed=88)
