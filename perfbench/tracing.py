"""Spans and counters at qhowe's module boundaries, recorded from outside.

``Tracer.install`` wraps public calls of ``qscalar``, ``sparsemat``,
``qclifford``, ``qgroup``, ``embeddings``, ``duality`` and ``cli`` in place;
``uninstall`` restores them.  Every span records its name, start, end and
parent span.  Spans stay in memory (flat arrays) until the run ends.  A
layer's self time is its span durations minus the time its direct child
spans cover.  Counters come from call arguments and results only; no product
is redone to count it.  The scalar ring gets counts only: timing millions of
microsecond calls would swamp the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from qhowe import cli, duality, embeddings, qclifford, qgroup, qscalar, sparsemat

CLI_SECTIONS = {
    "scalars": "_scalar_section",
    "clifford": "_clifford_section",
    "qgroup": "_qgroup_section",
    "embeddings": "_embeddings_section",
    "commutant": "_commutant_section",
    "braiding": "_braiding_section",
    "module-algebra": "_module_algebra_section",
    "decompose": "_decompose_section",
    "cauchy": "_cauchy_section",
}

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "qclifford.to_matrix.calls": "count",
    "qclifford.to_matrix.distinct": "count",
    "qclifford.to_matrix.s": "s",
    "sparsemat.mul.calls": "count",
    "sparsemat.mul.s": "s",
    "sparsemat.mul.term_products": "count",
    "sparsemat.mul.nnz_out": "count",
    "sparsemat.add.calls": "count",
    "sparsemat.add.s": "s",
    "sparsemat.specialize.calls": "count",
    "sparsemat.specialize.s": "s",
    "sparsemat.echelon.inserts": "count",
    "sparsemat.echelon.pivots": "count",
    "sparsemat.echelon.pivot_ratio": "ratio",
    "sparsemat.echelon.s": "s",
    "qscalar.mul.calls": "count",
    "qscalar.add.calls": "count",
    "qscalar.exact_div.calls": "count",
    "qgroup.check_relations.self_s": "s",
    "qgroup.check_serre.self_s": "s",
    "qgroup.checks": "count",
    "embeddings.rep_build.self_s": "s",
    "embeddings.check.self_s": "s",
    "duality.cyclic_span_dims.self_s": "s",
    **{f"cli.section.{name}.s": "s" for name in CLI_SECTIONS},
    "cli.render.s": "s",
}

# Bookkeeping done for counters runs in its own span, so that it is not
# charged to the self time of the span that made the call.
COUNTING = "trace.counting"


def term_products(a, b):
    """Sum over nonzero pairs (A[r,k], B[k,c]) of len(A.terms) * len(B.terms),
    in O(nnz): the column-k term total of A times the row-k term total of B."""
    col_terms = {k: sum(len(v.terms) for v in col.values()) for k, col in a.cols.items()}
    total = 0
    for col in b.cols.values():
        for k, v in col.items():
            t = col_terms.get(k)
            if t:
                total += t * len(v.terms)
    return total


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.operators = set()
        self._patches = []

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(args, result) updates counters afterwards.

        A call made inside a span of the same name (``__sub__`` calling
        ``__add__``) is part of that span, not a second one.
        """
        name_id = self._name_id(name)
        counting_id = self._name_id(COUNTING)
        stack, name_of = self._stack, self.name_of

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_of[top] == name_id:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                idx = self._open(counting_id)
                try:
                    count(args, result)
                finally:
                    self._close(idx)
            return result

        return wrapper

    def counted(self, key, fn):
        """Count calls of a two-argument fn (the scalar ring's hot calls)."""
        counts = self.counts

        def wrapper(a, b):
            counts[key] += 1
            return fn(a, b)

        return wrapper

    # -- installing wrappers ---------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _replace_function(self, fn, wrapper):
        """Rebind fn in every qhowe module that holds it (``from x import fn``)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qhowe" or mod_name.startswith("qhowe.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._replace(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        SparseMatrix = sparsemat.SparseMatrix

        def count_to_matrix(args, result):
            op = args[0]
            self.operators.add((op.length, op.classical, tuple(op.terms)))

        def count_mul(args, result):
            if result is not NotImplemented:
                counts["sparsemat.mul.term_products"] += term_products(args[0], args[1])
                counts["sparsemat.mul.nnz_out"] += result.nnz()

        def count_insert(args, result):
            if result is not None:
                counts["sparsemat.echelon.pivots"] += 1

        def count_checks(args, result):
            counts["qgroup.checks"] += len(result["checks"])

        self._replace(qclifford.OperatorExpr, "to_matrix",
                      self.span("qclifford.to_matrix", qclifford.OperatorExpr.to_matrix,
                                count_to_matrix))
        self._replace(SparseMatrix, "__mul__",
                      self.span("sparsemat.mul", SparseMatrix.__mul__, count_mul))
        for attr in ("__add__", "__sub__", "scale"):
            self._replace(SparseMatrix, attr,
                          self.span("sparsemat.add", getattr(SparseMatrix, attr)))
        self._replace(SparseMatrix, "specialize",
                      self.span("sparsemat.specialize", SparseMatrix.specialize))
        Echelon = sparsemat.RationalEchelon
        self._replace(Echelon, "insert",
                      self.span("sparsemat.echelon", Echelon.insert, count_insert))

        QLaurent = qscalar.QLaurent
        self._replace(QLaurent, "__mul__", self.counted("qscalar.mul.calls", QLaurent.__mul__))
        self._replace(QLaurent, "__add__", self.counted("qscalar.add.calls", QLaurent.__add__))
        self._replace_function(qscalar.exact_div,
                               self.counted("qscalar.exact_div.calls", qscalar.exact_div))

        for fn_name in ("check_relations", "check_serre"):
            fn = getattr(qgroup, fn_name)
            self._replace_function(fn, self.span(f"qgroup.{fn_name}", fn, count_checks))
        for fn_name in ("lambda_rep", "rho_rep", "phi_rep"):
            fn = getattr(embeddings, fn_name)
            self._replace_function(fn, self.span("embeddings.rep_build", fn))
        for fn_name in ("check_composition", "check_commutant", "check_dequantization",
                        "check_tensor_character"):
            fn = getattr(embeddings, fn_name)
            self._replace_function(fn, self.span("embeddings.check", fn))
        self._replace_function(duality.cyclic_span_dims,
                               self.span("duality.cyclic_span_dims", duality.cyclic_span_dims))

        for section, fn_name in CLI_SECTIONS.items():
            self._replace(cli, fn_name, self.span(f"cli.section.{section}", getattr(cli, fn_name)))
        self._replace(cli, "main", self.span("cli.main", cli.main))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def aggregate(self):
        """{span name: (calls, total seconds, self seconds)}."""
        total = len(self.start)
        covered = [0.0] * total
        durations = [self.end[i] - self.start[i] for i in range(total)]
        for i in range(total):
            p = self.parent[i]
            if p >= 0:
                covered[p] += durations[i]
        out = {}
        for i in range(total):
            name = self.names[self.name_of[i]]
            calls, tot, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, tot + durations[i], self_s + durations[i] - covered[i])
        return out

    def metrics(self):
        """Every metric in PER_LAYER_UNITS, as {name: {"value", "unit"}}."""
        agg = self.aggregate()

        def calls(name):
            return agg.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return agg.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return agg.get(name, (0, 0.0, 0.0))[2]

        inserts = calls("sparsemat.echelon")
        pivots = self.counts["sparsemat.echelon.pivots"]
        out = {
            "qclifford.to_matrix.calls": calls("qclifford.to_matrix"),
            "qclifford.to_matrix.distinct": len(self.operators),
            "qclifford.to_matrix.s": total("qclifford.to_matrix"),
            "sparsemat.mul.calls": calls("sparsemat.mul"),
            "sparsemat.mul.s": total("sparsemat.mul"),
            "sparsemat.mul.term_products": self.counts["sparsemat.mul.term_products"],
            "sparsemat.mul.nnz_out": self.counts["sparsemat.mul.nnz_out"],
            "sparsemat.add.calls": calls("sparsemat.add"),
            "sparsemat.add.s": total("sparsemat.add"),
            "sparsemat.specialize.calls": calls("sparsemat.specialize"),
            "sparsemat.specialize.s": total("sparsemat.specialize"),
            "sparsemat.echelon.inserts": inserts,
            "sparsemat.echelon.pivots": pivots,
            "sparsemat.echelon.pivot_ratio": pivots / inserts if inserts else 0.0,
            "sparsemat.echelon.s": total("sparsemat.echelon"),
            "qscalar.mul.calls": self.counts["qscalar.mul.calls"],
            "qscalar.add.calls": self.counts["qscalar.add.calls"],
            "qscalar.exact_div.calls": self.counts["qscalar.exact_div.calls"],
            "qgroup.check_relations.self_s": self_s("qgroup.check_relations"),
            "qgroup.check_serre.self_s": self_s("qgroup.check_serre"),
            "qgroup.checks": self.counts["qgroup.checks"],
            "embeddings.rep_build.self_s": self_s("embeddings.rep_build"),
            "embeddings.check.self_s": self_s("embeddings.check"),
            "duality.cyclic_span_dims.self_s": self_s("duality.cyclic_span_dims"),
            "cli.render.s": self_s("cli.main"),
        }
        for section in CLI_SECTIONS:
            out[f"cli.section.{section}.s"] = total(f"cli.section.{section}")
        return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

    def write_spans(self, path):
        """One JSON array per line: [id, parent id, name, start s, end s]."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps([i, self.parent[i], self.names[self.name_of[i]],
                                         self.start[i], self.end[i]]) + "\n")
