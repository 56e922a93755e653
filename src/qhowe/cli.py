"""Command-line entry point: every verification plus the decomposition report.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
configuration error (among them a shape at which a section would list more
than 2^16 basis states: ``SECTIONS``), 3 internal error (any other
exception, its message on stderr; a bug in qhowe, never a verdict).
Reports go to stdout (or --out FILE) as text or, with --json, as
canonically ordered JSON that is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import braided_ext, braiding, duality, embeddings, qclifford, qgroup, report
from .fockspace import GridShape, check_enumerable, state_to_string
from .qscalar import QLaurent, exact_div, q_binomial, q_int

USAGE_ERROR = 2
CHECK_FAILURE = 1
INTERNAL_ERROR = 3


class UsageError(Exception):
    """A bad command line or configuration: exit code 2."""


# The sections of all, in report order: each name maps to the name of its
# runner, a function of the config looked up when it runs (so a rebound one
# is called), and to the number of positions p, from n and m, that bounds its
# work at 2^p: module-algebra and decompose list 2^p basis states, cauchy
# expands polynomials of up to 2^nm monomials.  The other sections decide on
# Clifford words or on small matrices at any shape.  decompose and cauchy are
# commands of their own, verify runs any other section but scalars.
SECTIONS = {
    "scalars": ("_scalar_section", None),
    "clifford": ("_clifford_section", None),
    "qgroup": ("_qgroup_section", None),
    "embeddings": ("_embeddings_section", None),
    "commutant": ("_commutant_section", None),
    "braiding": ("_braiding_section", None),
    "module-algebra": ("_module_algebra_section", lambda n, m: max(2, n)),
    "decompose": ("_decompose_section", lambda n, m: n * m),
    "cauchy": ("_cauchy_section", lambda n, m: n * m),
}


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qhowe",
        description="Exact verification of the quantum Clifford action, the "
        "commuting row/column quantum-group embeddings, and the "
        "multiplicity-free grid decomposition.",
    )
    parser.add_argument("--n", type=int, default=2, help="grid rows (default 2)")
    parser.add_argument("--m", type=int, default=2, help="grid columns (default 2)")
    parser.add_argument(
        "--spec-q",
        action="append",
        default=None,
        metavar="Q",
        help="specialization value for rank checks; repeatable (default 2 and 3)",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--out", metavar="FILE", help="write the report to FILE")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized scalar self-checks (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run one verification suite")
    verify.add_argument(
        "suite", choices=[s for s in SECTIONS if s not in ("scalars", "decompose", "cauchy")])
    sub.add_parser("decompose", help="multiplicity-free decomposition report")
    sub.add_parser("cauchy", help="dual Cauchy character identity")
    hwv = sub.add_parser("hwv", help="highest-weight vector for a partition")
    hwv.add_argument("--partition", required=True, metavar="a,b,c",
                     help="weakly decreasing parts, e.g. 2,1 (use '-' for empty)")
    explain = sub.add_parser("explain", help="print one generator image term by term")
    explain.add_argument("--map", required=True, dest="map_name",
                         choices=["phi_q", "theta", "lambda_q", "rho_q",
                                  "classical_lambda", "classical_rho"])
    explain.add_argument("--gen", required=True, metavar="E1",
                         help="generator symbol, e.g. E1, F2, L1, Linv1, K1")
    sub.add_parser("all", help="every check at the configured shape")
    return parser


def _sections(args):
    """The SECTIONS the command runs, in report order; none for hwv and explain."""
    if args.command == "all":
        return list(SECTIONS)
    name = args.suite if args.command == "verify" else args.command
    return [name] if name in SECTIONS else []


def _config(args):
    n, m = args.n, args.m
    if n < 1 or m < 1:
        raise UsageError(f"grid shape must be positive, got {n}x{m}")
    # refused before any section starts: past the wall, listing the states
    # would take hours
    for name in _sections(args):
        positions = SECTIONS[name][1]
        if positions:
            try:
                check_enumerable(positions(n, m))
            except ValueError as exc:
                raise UsageError(f"{name} on grid {n}x{m}: {exc}") from exc
    try:
        GridShape(n, m).check()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    values = tuple(_parse_rational(v) for v in (args.spec_q or ["2", "3"]))
    for k, v in enumerate(values):
        if v in (0, 1, -1):
            raise UsageError(f"specialization value {v} is degenerate for rank checks")
        # a value compared with itself can never disagree
        if v in values[:k]:
            raise UsageError(f"specialization value {v} is given twice")
    return {
        "n": n,
        "m": m,
        "spec_values": [str(v) for v in values],
        "seed": args.seed,
    }, values


def _parse_gen(text):
    text = text.strip()
    for kind in ("Linv", "Kinv", "E", "F", "L", "K"):
        if text.startswith(kind) and text[len(kind):].isdigit():
            return kind, int(text[len(kind):])
    raise UsageError(f"cannot parse generator symbol {text!r}")


def _grid_diagram(bits, n, m):
    lines = []
    for i in range(1, n + 1):
        cells = []
        for j in range(1, m + 1):
            k = i + (j - 1) * n
            cells.append("#" if (bits >> (k - 1)) & 1 else ".")
        lines.append(" ".join(cells))
    return lines


# -- sections -------------------------------------------------------------------


def _scalar_section(cfg):
    """Randomized ring self-checks; deterministic for a fixed seed.  A failed
    check names its first failure: the round and law, the (a, b) of q-Pascal
    or the k of a q-integer."""
    rng = random.Random(cfg["seed"])

    def rand_poly(max_terms=6):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[rng.randint(-6, 6)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return QLaurent(terms)

    # each check's witness: None while it holds, else its first failure
    ring = None
    for round_ in range(1, 51):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if (a + b) + c != a + (b + c):
            law = "(a + b) + c = a + (b + c)"
        elif a * b != b * a:
            law = "a * b = b * a"
        elif a * (b + c) != a * b + a * c:
            law = "a * (b + c) = a * b + a * c"
        elif b and exact_div(a * b, b) != a:
            law = "exact_div(a * b, b) = a"
        else:
            continue
        ring = f"round {round_}: {law}"
        break
    pascal = None
    for a in range(1, 9):
        for b in range(1, a + 1):
            left = q_binomial(a, b)
            right = q_binomial(a - 1, b - 1) * QLaurent.q_power(a - b)
            if b <= a - 1:
                right = right + q_binomial(a - 1, b) * QLaurent.q_power(-b)
            if pascal is None and left != right:
                pascal = f"a={a} b={b}"
    dequant = next((f"k={k}" for k in range(13) if q_int(k).specialize(1) != k), None)
    checks = [
        report.check("ring axioms + exact division roundtrip", ring is None, ring),
        report.check("q-Pascal recursion", pascal is None, pascal),
        report.check("q-integers at q=1", dequant is None, dequant),
    ]
    return report.finish(checks, section="scalars")


def _clifford_section(cfg):
    N = cfg["n"] * cfg["m"]
    return {**qclifford.check_clifford(N), "section": "clifford"}


def _qgroup_section(cfg):
    checks = []
    top = max(2, cfg["n"], cfg["m"])
    for target, build in (("natural", qgroup.natural_rep), ("exterior-module", embeddings.phi_rep)):
        for p in range(1, top + 1):
            rep = build(p)
            for suite in (qgroup.check_relations(rep), qgroup.check_serre(rep)):
                checks += report.tagged(suite, target=f"{target} rank {p}")
    return report.finish(checks, section="qgroup")


def _embeddings_section(cfg):
    n, m = cfg["n"], cfg["m"]
    lam = embeddings.lambda_rep(n, m)
    rho = embeddings.rho_rep(n, m)
    suites = {
        "lambda_relations": qgroup.check_relations(lam),
        "lambda_serre": qgroup.check_serre(lam),
        "rho_relations": qgroup.check_relations(rho),
        "rho_serre": qgroup.check_serre(rho),
        "composition": embeddings.check_composition(n, m),
        "dequantization": embeddings.check_dequantization(n, m),
    }
    checks = [record for name, suite in suites.items()
              for record in report.tagged(suite, suite=name)]
    checks.append(embeddings.check_tensor_character(n, m))
    return report.finish(checks, section="embeddings")


def _commutant_section(cfg):
    return {**embeddings.check_commutant(cfg["n"], cfg["m"]),
            "section": "commutant"}


def _braiding_section(cfg):
    p = max(2, cfg["n"])
    rhat = braiding.build_rhat(p)
    sym_dim, wedge_dim = braiding.sym2q_dims(p, rhat)
    checks = [braiding.check_hecke(p, rhat), braiding.check_yang_baxter(p, rhat),
              *braiding.check_intertwiner(p, rhat)["checks"],
              braiding.check_classical_limit(p, rhat)]
    return report.finish(checks, section="braiding", rank=p, sym2q_dim=sym_dim,
                         degree2_quotient_dim=wedge_dim)


def _module_algebra_section(cfg):
    p = max(2, cfg["n"])
    return {**braided_ext.check_module_algebra(p), "section": "module-algebra"}


def _decompose_section(cfg):
    try:
        spans = duality.cyclic_span_dims(cfg["n"], cfg["m"], cfg["spec_values"])
    except duality.SpecializationAnomaly as exc:
        return {"section": "decompose", "status": "specialization-anomaly", "detail": str(exc),
                "checks": []}
    checks = spans.pop("checks") + [duality.dimension_identity(cfg["n"], cfg["m"])]
    return report.finish(checks, **spans, section="decompose")


def _cauchy_section(cfg):
    return {**duality.dual_cauchy_check(cfg["n"], cfg["m"]), "section": "cauchy"}


def _hwv_section(cfg, partition_text):
    try:
        mu = duality.Partition.from_string(partition_text)
    except ValueError as exc:
        raise UsageError(f"bad partition {partition_text!r}: {exc}") from exc
    shape = GridShape(cfg["n"], cfg["m"])
    if not mu.fits_in_box(shape.n, shape.m):
        raise UsageError(f"partition {mu} does not fit in a {shape.n}x{shape.m} box")
    checks = [record for flavor in ("quantum", "classical")
              for record in report.tagged(duality.verify_hwv(mu, shape, flavor), flavor=flavor)]
    bits = duality.hwv_state(mu, shape)
    return report.finish(checks, section="hwv", mu=str(mu), mu_conj=str(mu.conjugate()),
                         state=state_to_string(bits, shape.positions),
                         grid=_grid_diagram(bits, shape.n, shape.m))


def _explain_section(cfg, map_name, gen_text):
    kind, index = _parse_gen(gen_text)
    try:
        text = embeddings.explain(map_name, cfg["n"], cfg["m"], kind, index)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return report.finish([], section="explain", map=map_name, generator=gen_text, terms=text)


# -- driver ----------------------------------------------------------------------


def run(args):
    cfg = _config(args)[0]
    if args.command == "hwv":
        sections = [_hwv_section(cfg, args.partition)]
    elif args.command == "explain":
        sections = [_explain_section(cfg, args.map_name, args.gen)]
    else:
        sections = [globals()[SECTIONS[name][0]](cfg) for name in _sections(args)]
    return {"config": cfg, "command": args.command,
            "status": report.status(report.passed(sections)), "sections": sections}


def render_text(result):
    lines = []
    cfg = result["config"]
    lines.append(
        f"qhowe {result['command']}  n={cfg['n']} m={cfg['m']} "
        f"spec-q={','.join(cfg['spec_values'])} seed={cfg['seed']}"
    )
    for section in result["sections"]:
        mark = "PASS" if section["status"] == "pass" else section["status"].upper()
        checks = section["checks"]
        failed = [record for record in checks if record["status"] == "fail"]
        lines.append(f"[{mark}] {section['section']}  "
                     f"({len(checks) - len(failed)} checks pass, {len(failed)} fail)")
        if section["section"] == "hwv":
            lines.append(f"  mu = {section['mu']}   conjugate = {section['mu_conj']}")
            lines.append(f"  state = v({section['state']})")
            for row in section["grid"]:
                lines.append(f"    {row}")
        if section["section"] == "explain":
            lines.append(f"  {section['terms']}")
        if "detail" in section:  # a specialization anomaly's message
            lines.append(f"  {section['detail']}")
        if section["section"] == "decompose" and "partitions" in section:
            bad = {record.get("mu") for record in failed}
            for row in section["partitions"]:
                lines.append(
                    f"  {'BAD' if row['mu'] in bad else 'ok '} mu={row['mu']:<12} "
                    f"mu'={row['mu_conj']:<12} "
                    f"dim {row['dim_n']}x{row['dim_m']} span={row['span_dim']} "
                    f"hwv=v({row['hwv_state']})"
                )
            lines.append(f"  total {section['total']} of {section['space_dim']}")
        lines.extend(f"  FAIL {report.describe(record)}" for record in failed)
    lines.append(f"overall: {result['status']}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        report = run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # every input check raises UsageError: this is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    if args.json:
        payload = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    else:
        payload = render_text(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        sys.stdout.write(payload)
    return 0 if report["status"] == "pass" else CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
