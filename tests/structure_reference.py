"""Reference structure validation for the tests.

``validate_structure`` certifies, in exact arithmetic, that an algebra's
basis is closed under brackets, that its structure tensor satisfies Jacobi,
and that its Cartan involution is an involutive automorphism whose Killing
form is negative on k and positive on p.  No code path of the package calls
it; the tests run it on the catalog's real forms.
"""
from dataclasses import dataclass, field

import numpy as np

from ckforms.exactlin import InternalError, absmax, check_int64, scaled_ints, signature
from ckforms.liealg import LieAlgebra


@dataclass
class ValidationReport:
    algebra: str
    checks: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def summary(self) -> str:
        lines = [f"validation of {self.algebra}:"]
        for c in self.checks:
            mark = "ok" if c["passed"] else "FAIL"
            det = f" ({c['detail']})" if c["detail"] else ""
            lines.append(f"  [{mark}] {c['name']}{det}")
        return "\n".join(lines)


def validate_structure(alg: LieAlgebra) -> ValidationReport:
    """Certify basis independence, bracket closure, Jacobi, and the Cartan
    involution axioms (exact arithmetic throughout)."""
    rep = ValidationReport(alg.name)
    d = alg.dim

    rep.add("basis-independent", True, f"dim {d}")  # solver ctor enforces it

    try:
        T = alg.tensor
        pairs = np.count_nonzero(T.any(axis=1))
        rep.add("bracket-closure", True, f"{pairs} nonzero pairs")
    except (InternalError, ValueError) as e:
        rep.add("bracket-closure", False, str(e))
        return rep

    # Jacobi as ad([b_i, b_j]) == [ad b_i, ad b_j]; column k of pair (i, j)
    # is the Jacobi sum of the triple (i, j, k)
    m = absmax(T)
    check_int64(alg.name, "Jacobi", 3 * m * m * d)
    bad = 0
    for i in range(d):
        D = np.tensordot(T[i], T, axes=(0, 0)) - (T[i] @ T - T @ T[i])
        # triples i < j < k: row j - i - 1, column k
        bad += np.count_nonzero(np.triu(D.any(axis=1)[i + 1 :], i + 2))
    rep.add("jacobi", bad == 0, f"{d * (d - 1) * (d - 2) // 6} triples, {bad} violations")

    if alg.theta_conjugator is not None:
        th = alg.theta
        rep.add("theta-involution", bool((th @ th == np.eye(d, dtype=object)).all()))

        # automorphism: theta ad(b_i) == ad(theta b_i) theta for every i,
        # on the integer matrix l * theta
        lt, Th = scaled_ints(th)
        mt = absmax(Th)
        check_int64(alg.name, "theta", lt * mt * mt * m * d * d)
        Th = Th.astype(np.int64)
        auto = np.tensordot(Th, T, axes=(0, 0)) @ Th
        rep.add("theta-automorphism", bool((lt * (Th @ T) == auto).all()))

        K = alg.killing_form
        rep.add("killing-theta-invariant", bool((th.T @ K @ th == K).all()))

        ksub, psub = alg.k_subspace(), alg.p_subspace()
        rep.add(
            "theta-eigensplit",
            ksub.dim + psub.dim == d,
            f"k={ksub.dim}, p={psub.dim}",
        )
        sk = signature(alg.restricted_gram(ksub)) if ksub.dim else (0, 0, 0)
        sp = signature(alg.restricted_gram(psub)) if psub.dim else (0, 0, 0)
        rep.add("killing-negative-on-k", sk == (0, ksub.dim, 0), str(sk))
        rep.add("killing-positive-on-p", sp == (psub.dim, 0, 0), str(sp))
    return rep
