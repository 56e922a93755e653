import hashlib
import json
import subprocess
import sys

import pytest

from qhowe import braiding, cli, duality
from qhowe.cli import UsageError, _config, build_parser, main, render_text
from qhowe.qscalar import QLaurent
from qhowe.sparsemat import SparseMatrix


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "qhowe.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_hwv_command(capsys):
    code = main(["--n", "2", "--m", "2", "hwv", "--partition", "2,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "v(1110)" in out
    assert "2,1" in out


def test_hwv_usage_errors(capsys):
    assert main(["--n", "2", "--m", "2", "hwv", "--partition", "3,1"]) == 2
    assert main(["--n", "2", "--m", "2", "hwv", "--partition", "1,2"]) == 2
    assert main(["--n", "0", "--m", "2", "hwv", "--partition", "1"]) == 2


def test_decompose_1x1(capsys):
    code = main(["--n", "1", "--m", "1", "--json", "decompose"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = report["sections"][0]["partitions"]
    assert [r["mu"] for r in rows] == ["-", "1"]
    assert sum(r["span_dim"] for r in rows) == 2


def test_verify_commutant_exit_zero():
    proc = run_cli("--n", "2", "--m", "2", "verify", "commutant")
    assert proc.returncode == 0
    assert "overall: pass" in proc.stdout


def test_exit_code_distinction():
    # usage error is 2, distinct from check failure 1
    proc = run_cli("--n", "2", "--m", "2", "hwv", "--partition", "bogus")
    assert proc.returncode == 2
    proc = run_cli("--n", "2", "--m", "9")  # missing command
    assert proc.returncode == 2


@pytest.mark.parametrize("args,message", [
    (["--n", "2", "--m", "3", "explain", "--map", "rho_q", "--gen", "E9"],
     "root index 9 outside 1..2"),
    (["--n", "4", "--m", "5", "all"], "qhowe refuses more than 2^16"),
    (["--n", "0", "--m", "3", "all"], "grid shape must be positive"),
    (["--n", "2", "--m", "3", "hwv", "--partition", "3,x"], "bad partition '3,x'"),
    (["--n", "8", "--m", "9", "hwv", "--partition", "1"], "cap is 64"),
])
def test_input_errors_exit_2(capsys, args, message):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("args,message", [
    (["--n", "2", "--m", "3", "--cap", "16", "all"], "invalid choice: '16'"),
    (["--n", "2", "--m", "3", "all", "--cap", "16"], "unrecognized arguments: --cap 16"),
])
def test_cap_flag_is_gone(capsys, args, message):
    # the 16-position wall is fixed; argparse refuses the old flag
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: qhowe") and message in err


def test_unwritable_out_file_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    assert main(["--n", "1", "--m", "1", "--out", str(target), "decompose"]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_internal_error_exits_3(monkeypatch, capsys):
    # a ValueError inside a section is a bug, not a usage error or a verdict
    def broken(cfg):
        raise ValueError("section blew up")

    monkeypatch.setattr(cli, "_braiding_section", broken)
    assert main(["--n", "2", "--m", "2", "verify", "braiding"]) == cli.INTERNAL_ERROR == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: section blew up\n"


def test_wrong_braiding_fails_as_records(monkeypatch, capsys):
    # negative control: the entry of the assembled braiding at v1(x)v1 times
    # q.  The eigenvector conditions are records of the braiding section, so
    # a wrong braiding is a verdict (exit 1), not an internal error (exit 3)
    assemble = braiding._assemble_rhat

    def mutant(n, sym_eig, wedge_eig):
        cols = assemble(n, sym_eig, wedge_eig).cols
        cols[0][0] = cols[0][0] * QLaurent.q_power(1)
        return SparseMatrix(n * n, cols)

    monkeypatch.setattr(braiding, "_assemble_rhat", mutant)
    assert main(["--n", "2", "--m", "2", "verify", "braiding"]) == cli.CHECK_FAILURE == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "  FAIL R v = q v on the symmetric vectors v1(x)v1" in lines
    assert "  FAIL R v = -q^-1 v on the wedge vectors v1(x)v1" not in lines
    assert lines[-1] == "overall: fail"


def test_cap_violation_is_usage_error(capsys):
    assert main(["--n", "5", "--m", "4", "cauchy"]) == 2


@pytest.mark.parametrize("n,m", [(4, 5), (1, 17), (17, 1)])
def test_config_refuses_more_than_2_16_columns(n, m):
    # checked on _config alone, so that no job of this size ever starts
    args = build_parser().parse_args(["--n", str(n), "--m", str(m), "all"])
    with pytest.raises(UsageError, match=rf"2\^{n * m} = {1 << (n * m)} columns"):
        _config(args)


def test_config_allows_2_16_columns():
    args = build_parser().parse_args(["--n", "4", "--m", "4", "all"])
    cfg = _config(args)[0]
    assert (cfg["n"], cfg["m"]) == (4, 4)
    assert "cap" not in cfg


def test_hwv_past_2_16_columns_still_runs(capsys):
    # hwv applies operators to one vector; at 4x5 it takes well under a second
    assert main(["--n", "4", "--m", "5", "hwv", "--partition", "3,2,1"]) == 0
    assert "overall: pass" in capsys.readouterr().out


def test_explain_past_2_16_columns_still_runs(capsys):
    # explain prints the words of one generator image and builds no matrix
    assert main(["--n", "4", "--m", "5", "explain", "--map", "rho_q", "--gen", "E1"]) == 0
    assert "rho_q(E1) = " in capsys.readouterr().out


def test_verify_qgroup_past_2_16_columns_still_runs(capsys):
    # the section checks p x p matrices and the Clifford words of phi_rep(p)
    assert main(["--n", "1", "--m", "24", "verify", "qgroup"]) == 0
    assert "overall: pass" in capsys.readouterr().out
    # the classical sign rule is decided on words too
    assert main(["--n", "1", "--m", "24", "--json", "verify", "clifford"]) == 0
    checks = json.loads(capsys.readouterr().out)["sections"][0]["checks"]
    assert {"relation": "classical sign rule", "indices": [], "status": "pass"} in checks


@pytest.mark.parametrize("suite", ["braiding", "module-algebra"])
def test_rank_sections_past_2_16_columns_run(capsys, suite):
    # both work at rank max(2, n) = 2, whatever m is
    assert main(["--n", "2", "--m", "9", "verify", suite]) == 0
    assert "overall: pass" in capsys.readouterr().out


@pytest.mark.parametrize("n,m,command", [
    (17, 1, ["verify", "module-algebra"]), (1, 17, ["decompose"]), (1, 17, ["cauchy"])])
def test_config_refuses_sections_that_list_2_17_states(n, m, command):
    # module-algebra lists the 2^n states of its rank, decompose and cauchy
    # the 2^nm states of the grid
    args = build_parser().parse_args(["--n", str(n), "--m", str(m), *command])
    with pytest.raises(UsageError, match=r"2\^17 = 131072 columns; qhowe refuses more than 2\^16"):
        _config(args)


def test_all_calls_the_runner_bound_at_run_time(monkeypatch, capsys):
    # the section table names its runners, so a rebound one (as a tracer
    # installs) is what all calls
    calls = []
    original = cli._cauchy_section

    def traced(cfg):
        calls.append(cfg["n"])
        return original(cfg)

    monkeypatch.setattr(cli, "_cauchy_section", traced)
    assert main(["--n", "1", "--m", "2", "all"]) == 0
    assert calls == [1]
    assert "overall: pass" in capsys.readouterr().out


@pytest.mark.parametrize("suite", ["commutant", "embeddings"])
def test_operator_suites_past_2_16_columns_run(capsys, suite):
    # both suites decide their identities on the Clifford words: 25 positions
    # take well under a second each
    assert main(["--n", "5", "--m", "5", "verify", suite]) == 0
    assert "overall: pass" in capsys.readouterr().out


def test_all_json_deterministic(capsys):
    args = ["--n", "2", "--m", "2", "--json", "all"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["status"] == "pass"
    names = [s["section"] for s in report["sections"]]
    assert names == [
        "scalars", "clifford", "qgroup", "embeddings", "commutant",
        "braiding", "module-algebra", "decompose", "cauchy",
    ]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["--n", "1", "--m", "2", "--json", "--out", str(target), "cauchy"])
    assert code == 0
    report = json.loads(target.read_text())
    assert report["sections"][0]["status"] == "pass"


def test_explain_command(capsys):
    code = main(["--n", "2", "--m", "2", "explain", "--map", "lambda_q", "--gen", "E1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda_q(E1)" in out


def test_explain_counts_no_checks(capsys):
    # explain displays a generator image and verifies nothing
    assert main(["--n", "2", "--m", "3", "explain", "--map", "rho_q", "--gen", "E1"]) == 0
    assert "[PASS] explain  (0 checks pass, 0 fail)" in capsys.readouterr().out.splitlines()


def test_spec_q_flag(capsys):
    code = main(["--n", "1", "--m", "2", "--spec-q", "5", "--spec-q", "7/2", "--json", "decompose"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["spec_values"] == ["5", "7/2"]
    assert main(["--n", "1", "--m", "2", "--spec-q", "1", "decompose"]) == 2


@pytest.mark.parametrize("values", [["2", "2"], ["2", "4/2"], ["3", "5", "6/2"]])
def test_repeated_spec_q_is_refused(capsys, values):
    # values are compared as rationals; a value checked against itself can
    # never show an anomaly
    spec = [arg for value in values for arg in ("--spec-q", value)]
    assert main(["--n", "2", "--m", "3", *spec, "decompose"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: specialization value ")
    assert captured.err.endswith(" is given twice\n")


def test_seed_changes_nothing_but_is_recorded(capsys):
    code = main(["--n", "1", "--m", "1", "--json", "--seed", "42", "all"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seed"] == 42
    assert report["status"] == "pass"


def test_all_2x5_passes(capsys):
    # the dual Cauchy identity accepts sides longer than 4 up to 16 positions
    assert main(["--n", "2", "--m", "5", "all"]) == 0
    assert "overall: pass" in capsys.readouterr().out


# Negative controls for the scalars section: each perturbed ring function
# fails its check, and the witness names the first failure.
def _scalar_checks(seed=0):
    section = cli._scalar_section({"seed": seed})
    return section["status"], [(c["status"], c.get("witness")) for c in section["checks"]]


def test_scalars_pass_without_witnesses():
    assert _scalar_checks() == ("pass", [("pass", None)] * 3)


def test_perturbed_q_binomial_fails_q_pascal(monkeypatch, capsys):
    original = cli.q_binomial

    def perturbed(a, b):
        value = original(a, b)
        return value + value if (a, b) == (5, 2) else value

    monkeypatch.setattr(cli, "q_binomial", perturbed)
    assert _scalar_checks() == ("fail", [("pass", None), ("fail", "a=5 b=2"), ("pass", None)])
    assert main(["--n", "1", "--m", "1", "all"]) == 1
    assert "  FAIL q-Pascal recursion a=5 b=2" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("shifted_call,witness", [
    (1, "round 1: exact_div(a * b, b) = a"),
    # one of the first ten rounds draws b = 0 and divides nothing
    (10, "round 11: exact_div(a * b, b) = a"),
])
def test_shifted_quotient_fails_the_ring_axioms(monkeypatch, shifted_call, witness):
    original = cli.exact_div
    calls = []

    def shifted(num, den):
        calls.append(den)
        quotient = original(num, den)
        return quotient.shift(1) if len(calls) == shifted_call else quotient

    monkeypatch.setattr(cli, "exact_div", shifted)
    assert _scalar_checks() == ("fail", [("fail", witness), ("pass", None), ("pass", None)])


def test_wrong_q_integer_fails_the_classical_limit(monkeypatch):
    original = cli.q_int
    monkeypatch.setattr(cli, "q_int", lambda k: original(k + 1) if k == 4 else original(k))
    assert _scalar_checks() == ("fail", [("pass", None), ("pass", None), ("fail", "k=4")])


# Injected failures covering every field a FAIL line reads, in its fixed
# order (target, suite, flavor, mu, indices, pair, generator, then the
# witness), a record with none of them, a field no line names
# (distinct_weights), the ok/BAD column read from the failing records' mu,
# and a status that is neither pass nor fail.
_FAILING_REPORT = {
    "config": {"n": 2, "m": 3, "spec_values": ["2", "3"], "seed": 0},
    "command": "all",
    "status": "fail",
    "sections": [
        {"section": "qgroup", "status": "fail", "checks": [
            {"relation": "L L^-1 = 1", "indices": [1], "target": "natural rank 2",
             "status": "pass"},
            {"relation": "K E K^-1 = q^a E", "indices": [1, 1], "target": "natural rank 2",
             "status": "fail", "witness": "v2"},
        ]},
        {"section": "commutant", "n": 2, "m": 3, "status": "fail", "checks": [
            {"relation": "[lambda_q, rho_q] = 0", "pair": ["E1", "F2"], "status": "fail"},
            {"relation": "[lambda_q, rho_q] = 0", "pair": ["E1", "L1"], "status": "pass"},
        ]},
        {"section": "embeddings", "status": "fail", "checks": [
            {"relation": "lambda_q = phi_q o theta", "generator": "F1", "suite": "composition",
             "status": "fail"},
            {"relation": "joint weight multisets agree", "n": 2, "m": 3, "distinct_weights": 3,
             "status": "fail", "witness": "weight [1, 0]: grid 3, tensor 2"},
        ]},
        {"section": "hwv", "mu": "1", "mu_conj": "1", "state": "100000",
         "grid": ["# . .", ". . ."], "status": "fail", "checks": [
             {"relation": "rho_q(L) weight", "indices": [2], "flavor": "quantum",
              "status": "fail", "witness": "100000"},
         ]},
        {"section": "cauchy", "status": "fail", "checks": [
            {"relation": "prod (1 + a_i b_j) = state weight count", "status": "fail",
             "witness": "exponents [0, 1, 1, 0, 0]: product 1, states 2"},
        ]},
        {"section": "decompose", "status": "fail", "total": 3, "space_dim": 4, "partitions": [
            {"mu": "-", "mu_conj": "-", "dim_n": 1, "dim_m": 1, "span_dim": 1,
             "hwv_state": "00"},
            {"mu": "1", "mu_conj": "1", "dim_n": 1, "dim_m": 2, "span_dim": 1,
             "hwv_state": "10"},
        ], "checks": [
            {"relation": "span = Weyl product", "mu": "-", "status": "pass"},
            {"relation": "span = Weyl product", "mu": "1", "status": "fail",
             "witness": "span 1, Weyl product 2"},
            {"relation": "total = 2^nm", "status": "fail", "witness": 3},
        ]},
        {"section": "decompose", "status": "specialization-anomaly",
         "detail": "ranks differ between q = 2 and q = 3", "checks": []},
    ],
}


def test_render_text_fail_lines():
    assert render_text(_FAILING_REPORT).splitlines() == [
        "qhowe all  n=2 m=3 spec-q=2,3 seed=0",
        "[FAIL] qgroup  (1 checks pass, 1 fail)",
        "  FAIL K E K^-1 = q^a E natural rank 2 [1, 1] v2",
        "[FAIL] commutant  (1 checks pass, 1 fail)",
        "  FAIL [lambda_q, rho_q] = 0 ['E1', 'F2']",
        "[FAIL] embeddings  (0 checks pass, 2 fail)",
        "  FAIL lambda_q = phi_q o theta composition F1",
        "  FAIL joint weight multisets agree weight [1, 0]: grid 3, tensor 2",
        "[FAIL] hwv  (0 checks pass, 1 fail)",
        "  mu = 1   conjugate = 1",
        "  state = v(100000)",
        "    # . .",
        "    . . .",
        "  FAIL rho_q(L) weight quantum [2] 100000",
        "[FAIL] cauchy  (0 checks pass, 1 fail)",
        "  FAIL prod (1 + a_i b_j) = state weight count exponents [0, 1, 1, 0, 0]: product 1, "
        "states 2",
        "[FAIL] decompose  (1 checks pass, 2 fail)",
        "  ok  mu=-            mu'=-            dim 1x1 span=1 hwv=v(00)",
        "  BAD mu=1            mu'=1            dim 1x2 span=1 hwv=v(10)",
        "  total 3 of 4",
        "  FAIL span = Weyl product 1 span 1, Weyl product 2",
        "  FAIL total = 2^nm 3",
        "[SPECIALIZATION-ANOMALY] decompose  (0 checks pass, 0 fail)",
        "  ranks differ between q = 2 and q = 3",
        "overall: fail",
    ]


def test_specialization_anomaly_prints_its_detail(monkeypatch, capsys):
    # a lowering operator dropped at q = 3 only: the ranks disagree between
    # the two values, and the text report says how
    original = duality._integer_ops
    monkeypatch.setattr(duality, "_integer_ops", lambda exprs, value: (
        original(exprs, value)[:-1] if value == 3 else original(exprs, value)))
    assert main(["--n", "2", "--m", "3", "decompose"]) == cli.CHECK_FAILURE
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "[SPECIALIZATION-ANOMALY] decompose  (0 checks pass, 0 fail)"
    assert lines[2].startswith("  span ranks differ between q=2 and q=3: ")


_STRUCTURE_RUNS = [
    *(["--n", str(n), "--m", str(m), "all"] for n, m in [(1, 1), (2, 3), (3, 2)]),
    *(["--n", "2", "--m", "3", "verify", suite]
      for suite in ("clifford", "qgroup", "embeddings", "commutant", "braiding", "module-algebra")),
    ["--n", "2", "--m", "3", "hwv", "--partition", "2,1"],
    ["--n", "2", "--m", "3", "explain", "--map", "rho_q", "--gen", "E1"],
    ["--n", "2", "--m", "3", "decompose"],
]


@pytest.mark.parametrize("args", _STRUCTURE_RUNS, ids=" ".join)
def test_every_section_is_one_flat_list_of_records(capsys, args):
    assert main(["--json", *args]) == 0
    sections = json.loads(capsys.readouterr().out)["sections"]
    assert main(args) == 0
    headers = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert len(headers) == len(sections)
    for section, header in zip(sections, headers):
        checks = section["checks"]
        assert isinstance(checks, list)
        for record in checks:
            assert isinstance(record["relation"], str)
            assert record["status"] in ("pass", "fail")
            assert ("witness" in record) <= (record["status"] == "fail")
        # no suite nests below the section
        assert not any(isinstance(value, dict) for value in section.values())
        failed = sum(record["status"] == "fail" for record in checks)
        assert section["status"] == ("fail" if failed else "pass")
        assert header == (f"[{section['status'].upper()}] {section['section']}  "
                          f"({len(checks) - failed} checks pass, {failed} fail)")


# sha256 of five canonical reports.  A change to report building must keep
# these bytes; an intended output change updates the digests and says why in
# CHANGES.md.
_PINNED_REPORTS = [
    pytest.param(["--n", "2", "--m", "3", "--json", "all"],
                 "678a170ea88c54d0720754a40cb89cced203f535fe77090eb7c0c6fed8d86f8b", id="all-json"),
    pytest.param(["--n", "2", "--m", "3", "all"],
                 "3d6302d17074c6c5231a3c70e988b36fb943fc1edcffd57159cbd6528f7845f5", id="all-text"),
    pytest.param(["--n", "2", "--m", "3", "--json", "hwv", "--partition", "2,1"],
                 "7db078e8afe7912d6c5307cc5e74b85596e87884475eff29864f3a87d6d00c05", id="hwv-json"),
    pytest.param(["--n", "3", "--m", "3", "--spec-q", "5/3", "--spec-q", "-2", "--json",
                  "decompose"],
                 "3e72a7da691b6300d111c59125b0cf501b9ab53c30dfbaff78cacc0454855623",
                 id="decompose-spec-q-json"),
    pytest.param(["--n", "3", "--m", "4", "--json", "decompose"],
                 "8c9a33db9a2dd31b3c4e1a1d232a2fbd5a084e35ec872b22001842a9fde3b195",
                 id="decompose-json"),
]


@pytest.mark.parametrize("args,digest", _PINNED_REPORTS)
def test_report_bytes_pinned(capsys, args, digest):
    assert main(args) == 0
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == digest, (
        f"qhowe {' '.join(args)} changed its output; if the change is intended, "
        "update the digest here and explain why in CHANGES.md"
    )
