import json

from qhowe import report
from qhowe.qscalar import QLaurent
from qhowe.sparsemat import SparseMatrix


def test_check_keeps_witness_only_on_failure():
    assert report.check("x = y", True, "v3", indices=[1]) == {
        "relation": "x = y", "indices": [1], "status": "pass"}
    assert report.check("x = y", False, "v3", indices=[1]) == {
        "relation": "x = y", "indices": [1], "status": "fail", "witness": "v3"}
    assert report.check("x = y", False) == {"relation": "x = y", "status": "fail"}


def test_match_names_first_differing_column():
    one = QLaurent.one()
    a = SparseMatrix(4, {1: {0: one}, 3: {2: one}})
    b = SparseMatrix(4, {1: {0: one}, 3: {2: QLaurent.q_power(1)}})
    label = "s{}".format
    assert report.match("a = a", a, a, label, pair=["E1", "F1"]) == {
        "relation": "a = a", "pair": ["E1", "F1"], "status": "pass"}
    assert report.match("a = b", a, b, label)["witness"] == "s3"
    assert report.match("a = 0", a, SparseMatrix(4), label)["witness"] == "s1"


def test_commute_gives_the_record_of_match_on_the_products():
    one, q = QLaurent.one(), QLaurent.q_power(1)
    torus = SparseMatrix.diagonal([one, q, q, q * q])
    shift = SparseMatrix(4, {1: {0: one}, 2: {1: one}, 3: {3: q}})
    swap = SparseMatrix(4, {1: {2: one}, 2: {1: one}})
    label = "s{}".format
    for x, y in [(torus, shift), (shift, torus), (torus, swap), (swap, shift), (torus, torus)]:
        assert report.commute("[x,y] = 0", x, y, label, pair=["x", "y"]) == report.match(
            "[x,y] = 0", x * y, y * x, label, pair=["x", "y"])
    assert report.commute("[x,y] = 0", torus, shift, label)["witness"] == "s1"
    # x y = q^s y x: the record of match against the scaled product
    for s in range(-3, 4):
        qs = QLaurent.q_power(s)
        for x, y in [(torus, shift), (shift, torus), (torus, swap), (swap, shift),
                     (torus, torus)]:
            assert report.commute("x y = q^s y x", x, y, label, s, pair=["x", "y"]) == (
                report.match("x y = q^s y x", x * y, (y * x).scale(qs), label, pair=["x", "y"]))
    # the lowering of a q^degree torus passes with shift -1, not 0
    lower = SparseMatrix(4, {1: {0: one}, 3: {1: one}})
    assert report.commute("t l = q^-1 l t", torus, lower, label, -1)["status"] == "pass"
    assert report.commute("t l = l t", torus, lower, label)["witness"] == "s1"


def test_finish_and_passed_fold_statuses():
    ok, bad = report.check("p", True), report.check("f", False)
    assert report.passed([]) and report.passed([ok]) and not report.passed([ok, bad])
    assert report.finish([ok], n=2) == {"n": 2, "status": "pass", "checks": [ok]}
    assert report.finish([ok, bad])["status"] == "fail"
    assert report.passed([{"status": "specialization-anomaly"}]) is False
    # records are plain dicts: they serialize as they are
    assert json.loads(json.dumps(report.finish([bad]))) == report.finish([bad])
