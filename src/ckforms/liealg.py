"""Matrix Lie algebras over Q with exact structure constants.

A ``LieAlgebra`` owns an independent basis of integer matrices (stored as
Fractions); the constructor raises ValueError on any non-integral entry.
Every catalog real form has such a basis, and the structure constants and
the Killing form are then computed in int64 under an explicit overflow
bound, with ValueError past it.  The Killing
form is computed from structure constants (trace of ad-composites), never from
the matrix trace form, so it is correct for any faithful realization; the
proportionality of the two forms on simple algebras is exploited only as a
cross-check in the test suite.

The Cartan involution theta is stored both as a matrix-level conjugator and as
its coordinate matrix on the chosen basis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactlin import (
    CoordinateSolver,
    InternalError,
    Subspace,
    check_int64,
    embed_block,
    fmat,
    fmatmul,
    fzeros,
    kernel,
    primitive_vector,
    signature,
)

__all__ = [
    "LieAlgebra",
    "ValidationReport",
    "validate_structure",
    "span_closure",
    "is_compactly_embedded",
    "direct_sum",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class LieAlgebra:
    """A Lie algebra of n x n integer matrices with a fixed ordered basis."""

    def __init__(self, name, basis, theta_conjugator=None, meta=None):
        self.name = name
        self.basis = [np.asarray(b, dtype=object) for b in basis]
        self.dim = len(self.basis)
        self.n = self.basis[0].shape[0] if self.basis else 0
        self.meta = dict(meta or {})
        # one Python-int copy of the flattened basis serves the solver, the
        # supports, the span checks and the structure constants
        ints = [
            [int(x) if getattr(x, "denominator", None) == 1 else None
             for x in b.flat]
            for b in self.basis
        ]
        if any(None in row for row in ints):
            raise ValueError(f"{name}: basis matrices must be integral")
        self._flat = np.array(ints, dtype=object).reshape(self.dim, self.n**2)
        self._solver = CoordinateSolver(self._flat)
        self.theta_conjugator = (
            np.asarray(theta_conjugator, dtype=object)
            if theta_conjugator is not None
            else None
        )
        self._support = [[j for j, v in enumerate(row) if v] for row in ints]
        self._tensor = None  # sparse structure constants {(i,j): [(k, val)]}
        self._ad_int = None  # dense int64 ad matrices
        self._killing = None
        self._theta_coord = None

    # -- coordinates ------------------------------------------------------

    def coords(self, X) -> np.ndarray:
        """Coordinates of a matrix in the basis; raises if not in the span."""
        return self._solver.coords(np.asarray(X, dtype=object).reshape(-1))

    def try_coords(self, X):
        return self._solver.try_coords(np.asarray(X, dtype=object).reshape(-1))

    def matrix(self, u) -> np.ndarray:
        out = fzeros((self.n, self.n))
        for c, b in zip(u, self.basis):
            if c != 0:
                out = out + Fraction(c) * b
        return out

    def contains_matrix(self, X) -> bool:
        return self.try_coords(X) is not None

    @property
    def factors(self) -> list:
        """(algebra, coord_offset, block_offset) per simple ideal; a simple
        algebra is its own single factor."""
        info = self.meta.get("factors")
        if not info:
            return [(self, 0, 0)]
        return [
            (f["algebra"], f["coord_offset"], f["block_offset"]) for f in info
        ]

    # -- structure constants ----------------------------------------------

    def _sparse_coords(self, flat_vec):
        """Coordinate solve exploiting sparsity of the input vector.

        Membership is verified only on the union of supports of the involved
        basis rows; outside it both sides vanish identically.
        """
        sol = self._solver
        xn, lx = sol.solve(flat_vec)
        x = fzeros(sol.dim)
        nz = [k for k in range(sol.dim) if xn[k]]
        cols = set()
        for k in nz:
            x[k] = Fraction(xn[k], lx)
            cols.update(self._support[k])
        in_span = all(
            v == 0 or j in cols for j, v in enumerate(flat_vec)
        ) and all(
            sum((x[k] * self._flat[k, j] for k in nz), _F0) == flat_vec[j]
            for j in cols
        )
        if not in_span:
            raise InternalError(
                "liealg.LieAlgebra._sparse_coords",
                "bracket left the span: algebra not closed",
            )
        return x

    @property
    def tensor(self):
        if self._tensor is None:
            self._compute_structure()
        return self._tensor

    def _compute_structure(self):
        d, n = self.dim, self.n
        tensor = {}
        if d and n:
            m = max(map(abs, self._flat.flat))
            # a bracket is a difference of two products of n terms each
            check_int64(self.name, "bracket", 2 * m * m * n)
            B = self._flat.astype(np.int64).reshape(d, n, n)
            for i in range(d):
                # all brackets [b_i, b_j] in one batched product
                br = B[i] @ B - B @ B[i]
                for j in range(d):
                    if i == j:
                        continue
                    flat = br[j].reshape(-1)
                    if not flat.any():
                        continue
                    x = self._sparse_coords(flat)
                    ent = [(k, x[k]) for k in range(d) if x[k] != 0]
                    if ent:
                        tensor[(i, j)] = ent
        self._tensor = tensor

    def ad_int64(self):
        """Dense int64 ad matrices (d, d, d); requires integral structure."""
        if self._ad_int is None:
            d = self.dim
            AD = np.zeros((d, d, d), dtype=np.int64)
            for (i, j), ent in self.tensor.items():
                for k, v in ent:
                    if v.denominator != 1:
                        raise ValueError("structure constants not integral")
                    AD[i, k, j] = int(v)
            self._ad_int = AD
        return self._ad_int

    @property
    def killing_form(self) -> np.ndarray:
        """Killing form Gram matrix on the basis, B(x,y) = tr(ad x ad y)."""
        if self._killing is None:
            d = self.dim
            m = max(
                (abs(v) for ent in self.tensor.values() for _k, v in ent),
                default=0,
            )
            check_int64(self.name, "Killing form", m * m * d * d)
            AD = self.ad_int64()
            A2 = AD.reshape(d, -1)
            B2 = np.transpose(AD, (0, 2, 1)).reshape(d, -1)
            self._killing = fmat((A2 @ B2.T).tolist())
        return self._killing

    def bracket_coords(self, u, v) -> np.ndarray:
        out = fzeros(self.dim)
        tensor = self.tensor
        nz_u = [(i, Fraction(u[i])) for i in range(self.dim) if u[i] != 0]
        nz_v = [(j, Fraction(v[j])) for j in range(self.dim) if v[j] != 0]
        for i, ui in nz_u:
            for j, vj in nz_v:
                for k, c in tensor.get((i, j), ()):
                    out[k] += ui * vj * c
        return out

    # -- Cartan involution --------------------------------------------------

    @property
    def theta(self) -> np.ndarray:
        """Coordinate matrix of the Cartan involution (columns = images)."""
        if self._theta_coord is None:
            if self.theta_conjugator is None:
                raise ValueError(f"{self.name}: no Cartan involution attached")
            g = self.theta_conjugator
            cols = [
                self._sparse_coords(fmatmul(fmatmul(g, b), g).reshape(-1))
                for b in self.basis
            ]
            self._theta_coord = np.array(cols, dtype=object).T
        return self._theta_coord

    def theta_apply_matrix(self, X):
        g = self.theta_conjugator
        return g @ np.asarray(X, dtype=object) @ g

    def k_subspace(self) -> Subspace:
        """Fixed space of theta (maximal compact part), in coordinates."""
        return self._theta_eigenspace(_F1)

    def p_subspace(self) -> Subspace:
        return self._theta_eigenspace(-_F1)

    def _theta_eigenspace(self, lam) -> Subspace:
        d = self.dim
        M = self.theta.copy()
        for i in range(d):
            M[i, i] = M[i, i] - lam
        return Subspace.from_rows(
            [primitive_vector(v) for v in kernel(M)], d
        ) if d else Subspace(0, ())

    def restricted_gram(self, sub: Subspace) -> np.ndarray:
        V = sub.matrix()
        K = self.killing_form
        return fmatmul(fmatmul(V, K), V.T)

    def __repr__(self):
        return f"LieAlgebra({self.name}, dim={self.dim}, n={self.n})"


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
        tensor = alg.tensor
        rep.add("bracket-closure", True, f"{len(tensor)} nonzero pairs")
    except (InternalError, ValueError) as e:
        rep.add("bracket-closure", False, str(e))
        return rep

    def c_of(u_sparse, j):
        out = {}
        for i, ui in u_sparse:
            for k, v in tensor.get((i, j), ()):
                out[k] = out.get(k, _F0) + ui * v
        return [(k, v) for k, v in out.items() if v != 0]

    bad = 0
    checked = 0
    for (i, j, k) in itertools.combinations(range(d), 3):
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = tensor.get((a, b), ())
            for t, v in c_of(inner, c):
                acc[t] = acc.get(t, _F0) + v
        if any(v != 0 for v in acc.values()):
            bad += 1
        checked += 1
    rep.add("jacobi", bad == 0, f"{checked} triples, {bad} violations")

    if alg.theta_conjugator is not None:
        th = alg.theta
        sq = th @ th
        ok = all(
            sq[i, j] == (_F1 if i == j else _F0)
            for i in range(d)
            for j in range(d)
        )
        rep.add("theta-involution", ok)

        # automorphism: theta[c(i,j)] == c(theta i, theta j) on all pairs
        auto_ok = True
        thT = th.T  # rows = images of basis vectors
        for i in range(d):
            for j in range(i + 1, d):
                lhs = {}
                for k, v in tensor.get((i, j), ()):
                    for t in range(d):
                        if th[t, k] != 0:
                            lhs[t] = lhs.get(t, _F0) + v * th[t, k]
                rhs_vec = alg.bracket_coords(thT[i], thT[j])
                for t in range(d):
                    if lhs.get(t, _F0) != rhs_vec[t]:
                        auto_ok = False
                        break
                if not auto_ok:
                    break
            if not auto_ok:
                break
        rep.add("theta-automorphism", auto_ok)

        K = alg.killing_form
        Kt = th.T @ K @ th
        rep.add(
            "killing-theta-invariant",
            all(Kt[i, j] == K[i, j] for i in range(d) for j in range(d)),
        )

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


def span_closure(alg: LieAlgebra, sub: Subspace) -> Subspace:
    """Smallest Lie subalgebra containing the given coordinate subspace."""
    if sub.ambient_dim != alg.dim:
        raise ValueError("subspace lives in a different coordinate space")
    rows = [primitive_vector(v) for v in sub.basis]
    cur = Subspace.from_rows(rows, alg.dim) if rows else Subspace(alg.dim, ())
    while True:
        new = []
        base = list(cur.basis)
        for a in range(len(base)):
            for b in range(a + 1, len(base)):
                w = alg.bracket_coords(base[a], base[b])
                if any(x != 0 for x in w):
                    new.append(primitive_vector(w))
        if not new:
            return cur
        grown = Subspace.from_rows(list(cur.basis) + new, alg.dim)
        if grown.dim == cur.dim:
            return cur
        cur = grown


def is_compactly_embedded(alg: LieAlgebra, sub: Subspace):
    """True iff the Killing form of alg is negative definite on the subspace.

    Returns (flag, sylvester_signature).
    """
    if sub.dim == 0:
        return True, (0, 0, 0)
    sig = signature(alg.restricted_gram(sub))
    return sig == (0, sub.dim, 0), sig


def direct_sum(a: LieAlgebra, b: LieAlgebra, name=None) -> LieAlgebra:
    """Block-diagonal direct sum; structure data is assembled blockwise."""
    n1, n2 = a.n, b.n
    N = n1 + n2
    basis = [embed_block(m, N, 0) for m in a.basis]
    basis += [embed_block(m, N, n1) for m in b.basis]
    conj = None
    if a.theta_conjugator is not None and b.theta_conjugator is not None:
        conj = embed_block(a.theta_conjugator, N, 0)
        conj[n1:, n1:] = b.theta_conjugator
    meta = {
        "factors": [
            {"algebra": a, "coord_offset": 0, "block_offset": 0},
            {"algebra": b, "coord_offset": a.dim, "block_offset": n1},
        ],
        "family": "product",
    }
    out = LieAlgebra(name or f"{a.name}x{b.name}", basis, conj, meta)

    # assemble structure data from the factors instead of recomputing
    tensor = {}
    for (i, j), ent in a.tensor.items():
        tensor[(i, j)] = list(ent)
    off = a.dim
    for (i, j), ent in b.tensor.items():
        tensor[(i + off, j + off)] = [(k + off, v) for k, v in ent]
    out._tensor = tensor

    d = out.dim
    K = embed_block(a.killing_form, d, 0)
    K[a.dim :, a.dim :] = b.killing_form
    out._killing = K

    if conj is not None:
        th = embed_block(a.theta, d, 0)
        th[a.dim :, a.dim :] = b.theta
        out._theta_coord = th
    return out
