"""Matrix Lie algebras over Q with exact structure constants.

A ``LieAlgebra`` owns an independent basis of integer matrices, held as one
integer stack (int64 when it fits, Python ints past it); the constructor
takes a list of matrices or an integer stack and raises ValueError on any
non-integral entry.  ``basis`` is the Fraction view, built on first read.

There is one coordinate path: ``LieAlgebra.read_coords`` reads the
coordinates of a whole stack of integer matrices at once (it gathers the
pivot entries, multiplies them by the solver's integer transform, and
rebuilds every matrix from the nonzero basis entries, with
``exactlin.sparse_product``, to certify that it lies in the span).  The
structure constants, theta, the coordinates of embedded images and
``bracket_coords`` go through it; brackets are read from integer matrix
commutators, so a direct sum never needs a structure tensor of its own.
``span_closure`` tests its commutators against the span of the subspace's
own matrices first, so a closed input never goes through ``read_coords``;
only brackets that leave that span are read in g.

The structure constants are one dense int64 array ``tensor[i, k, j] =
c_ij^k`` (``tensor[i]`` is ad(b_i)), computed one basis element at a time.
Their commutators run in int64 under an explicit bound, with ValueError
past it; the commutators of ``bracket_coords`` and ``span_closure`` and the
coordinate read fall back to Python ints past theirs.

The Killing form is an int64 array.  When the ``realforms`` metadata names
a family (su, sp, g2, so), it is the trace form Tr(x, y) = tr(xy) of the
matrix basis times an exact constant: every invariant symmetric form on an
absolutely simple algebra is a multiple of the Killing form (Schur's lemma
on the adjoint module), and B = (p+q-2) Tr holds on every so(p,q), so(2,2)
= sl2 + sl2 and so(1,3) = sl(2,C) included.  The constant is read from one
entry, tr(ad b_i ad b_j), with the one or two coordinate reads of [b_i, B]
and [b_j, B], and a constant that does not scale Tr to an integral form
raises InternalError.  An algebra without that metadata contracts its
structure tensor (trace of ad-composites), which is correct for any
faithful realization; a direct sum places its factors' blocks.  The tensor
is also what ``validate_structure`` and ``embeddings.validate_embedding``
check.  Gram matrices contract the Killing form on integer rows, and
``killing_form`` is its Fraction view, built on first read.

The Cartan involution theta is stored as a matrix-level conjugator; its
coordinate matrix on the chosen basis is read on first use (a direct sum's
too).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactlin import (
    CoordinateSolver,
    InternalError,
    Subspace,
    absmax,
    check_int64,
    column_nonzeros,
    echelon_rows,
    embed_block,
    fit_int64,
    int_matmul,
    kernel,
    scaled_ints,
    signature,
    sparse_product,
    unscaled,
)

__all__ = [
    "LieAlgebra",
    "ValidationReport",
    "validate_structure",
    "span_closure",
    "is_compactly_embedded",
    "direct_sum",
]


class LieAlgebra:
    """A Lie algebra of n x n integer matrices with a fixed ordered basis."""

    def __init__(self, name, basis, theta_conjugator=None, meta=None):
        self.name = name
        B = np.asarray(basis)
        self.dim = len(B)
        self.n = B.shape[1] if self.dim else 0
        self.meta = dict(meta or {})
        # one integer copy of the flattened basis (int64 when it fits)
        # serves the solver, the coordinate read and the structure constants
        if B.dtype.kind not in "iu":
            ints = [int(x) if getattr(x, "denominator", None) == 1 else None
                    for x in B.flat]
            if None in ints:
                raise ValueError(f"{name}: basis matrices must be integral")
            B = np.array(ints, dtype=object)
        self._flat = fit_int64(B.reshape(self.dim, self.n**2))
        # a direct sum passes the solver it placed from its factors'
        self._solver = self.meta.pop("_solver", None) or CoordinateSolver(
            self._flat
        )
        # the nonzero basis entries grouped by column: every coordinate read
        # rebuilds its matrices from them
        self._nz = column_nonzeros(self._flat)
        _rows, vals, cols, starts = self._nz
        self._off_support = np.ones(self.n**2, dtype=bool)
        self._off_support[cols] = False
        counts = np.diff(starts, append=len(vals))
        self._rebuild_bound = absmax(vals) * int(counts.max(initial=0))
        self.theta_conjugator = (
            np.asarray(theta_conjugator, dtype=object)
            if theta_conjugator is not None
            else None
        )
        self._basis = None
        self._tensor = None
        self._killing_ints = None
        self._killing = None
        self._theta_coord = None

    @property
    def stack(self) -> np.ndarray:
        """The basis as one integer array (dim, n, n)."""
        return self._flat.reshape(self.dim, self.n, self.n)

    @property
    def basis(self) -> list:
        """The basis as Fraction matrices."""
        if self._basis is None:
            self._basis = list(unscaled(self.stack, 1))
        return self._basis

    # -- coordinates ------------------------------------------------------

    def coords(self, X) -> np.ndarray:
        """Coordinates of a matrix in the basis; raises if not in the span."""
        return self._solver.coords(np.asarray(X, dtype=object).reshape(-1))

    def matrix(self, u) -> np.ndarray:
        """The rational matrix with coordinates u."""
        lu, U = scaled_ints(u)
        return unscaled(int_matmul(U, self._flat).reshape(self.n, self.n), lu)

    def contains_matrix(self, X) -> bool:
        return self.try_read_coords(scaled_ints(X)[1][None]) is not None

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

    def read_coords(self, X):
        """Coordinates of a stack of integer matrices, read in one batch.

        X is an integer array (m, n, n) or (m, n*n).  Returns (N, L): an
        integer array N (m, dim) and a positive int L with
        X[r] = sum_k N[r, k] / L * basis[k].  InternalError if a matrix
        leaves the span."""
        got = self.try_read_coords(X)
        if got is None:
            raise InternalError(
                "liealg.LieAlgebra.read_coords",
                "bracket left the span: algebra not closed",
            )
        return got

    def try_read_coords(self, X):
        """``read_coords``, None if a matrix leaves the span: each is rebuilt
        from the nonzero basis entries, in int64 under the bound max(max|N| *
        rebuild_bound, L * max|X|) < 2**63, on Python ints past it."""
        X = np.asarray(X).reshape(len(X), -1)
        N, L = self._solver.solve(X)
        bound = max(absmax(N), 1) * self._rebuild_bound
        dtype = np.int64 if max(bound, L * max(absmax(X), 1)) < 2**63 else object
        N, X = N.astype(dtype, copy=False), X.astype(dtype, copy=False)
        R = sparse_product(N, self._nz)
        if X[:, self._off_support].any() or (R != L * X[:, self._nz[2]]).any():
            return None
        return N, L

    def _commutators(self, M, a, b):
        """The commutators [M[a], M[b]] of a stack of integer matrices M
        (m, n*n), flattened.  A commutator subtracts two products of n
        terms: int64 under the bound 2 * max|entry|**2 * n < 2**63, Python
        ints past it."""
        M = M.reshape(-1, self.n, self.n)
        m = absmax(M)
        M = M.astype(np.int64 if 2 * m * m * self.n < 2**63 else object, copy=False)
        return (M[a] @ M[b] - M[b] @ M[a]).reshape(len(a), -1)

    def _brackets(self, rows, a, b):
        """(N, L) of ``read_coords`` for the brackets [rows[a], rows[b]] of
        integer coordinate rows, read from their matrix commutators in one
        batch."""
        M = int_matmul(np.asarray(rows), self._flat)
        return self.read_coords(self._commutators(M, a, b))

    # -- structure constants ----------------------------------------------

    def _ad_reads(self, idx):
        """(N, L) of ``read_coords`` for the brackets [b_i, b_l] over all l,
        one batched read per i in idx (row l of N / L holds the coordinates
        of [b_i, b_l]).  The commutators run in int64 under the bound
        2 * max|entry|**2 * n < 2**63, with ValueError past it."""
        d, n = self.dim, self.n
        m = absmax(self._flat)
        check_int64(self.name, "bracket", 2 * m * m * n)
        B = self._flat.astype(np.int64).reshape(d, n, n)
        for i in idx:
            yield self.read_coords(B[i] @ B - B @ B[i])

    @property
    def tensor(self) -> np.ndarray:
        """Structure constants as an int64 array (d, d, d) with
        tensor[i, k, j] = c_ij^k, i.e. tensor[i] is ad(b_i); ValueError if
        they are not integral."""
        if self._tensor is None:
            d = self.dim
            tensor = np.zeros((d, d, d), dtype=np.int64)
            for i, (N, L) in enumerate(self._ad_reads(range(d))):
                if (N % L).any():
                    raise ValueError(f"{self.name}: structure constants not integral")
                tensor[i] = (N // L).T
            self._tensor = tensor
        return self._tensor

    @property
    def killing_ints(self) -> np.ndarray:
        """Killing form Gram matrix on the basis, B(x,y) = tr(ad x ad y), as
        an int64 array: c * Tr on a ``realforms`` family (su, sp, g2, so),
        the tensor contraction on an algebra without that metadata."""
        if self._killing_ints is None:
            if self.meta.get("family") in ("su", "sp", "g2", "so"):
                self._killing_ints = self._killing_from_trace()
            else:
                self._killing_ints = self._killing_from_tensor()
        return self._killing_ints

    def _killing_from_trace(self) -> np.ndarray:
        """K = num * Tr / den, with c = num / den read exactly from one entry
        (i, j) where Tr[i, j] != 0 (a diagonal one when there is one):
        K_ij = tr(ad b_i ad b_j) = sum_kl N_i[l, k] N_j[k, l] / L**2 on the
        Python-int reads of [b_i, B] and [b_j, B].  InternalError if c is 0
        or den does not divide Tr; ValueError past the int64 bound."""
        d, n = self.dim, self.n
        T = self._flat.reshape(d, n, n).transpose(0, 2, 1).reshape(d, -1)
        Tr = int_matmul(self._flat, T.T)
        diag = np.flatnonzero(np.diagonal(Tr))
        i, j = (diag[0], diag[0]) if len(diag) else np.argwhere(Tr)[0]
        reads = list(self._ad_reads(dict.fromkeys((i, j))))
        (Ni, Li), (Nj, Lj) = reads[0], reads[-1]
        K_ij = int((Ni.astype(object) * Nj.T.astype(object)).sum())
        c = Fraction(K_ij, Li * Lj * int(Tr[i, j]))
        if not c or (Tr % c.denominator).any():
            raise InternalError(
                "liealg.LieAlgebra.killing_ints",
                f"{self.name}: K = {c} * Tr is not a nonzero integral form",
            )
        Tr = Tr // c.denominator
        check_int64(self.name, "Killing form", absmax(Tr) * abs(c.numerator))
        return Tr.astype(np.int64) * c.numerator

    def _killing_from_tensor(self) -> np.ndarray:
        """The trace of ad-composites, contracted on the structure tensor."""
        d = self.dim
        AD = self.tensor
        m = absmax(AD)
        check_int64(self.name, "Killing form", m * m * d * d)
        A2 = AD.reshape(d, -1)
        B2 = np.transpose(AD, (0, 2, 1)).reshape(d, -1)
        # only the columns where both views are nonzero contribute
        cols = np.flatnonzero(A2.any(axis=0) & B2.any(axis=0))
        return A2[:, cols] @ B2[:, cols].T

    @property
    def killing_form(self) -> np.ndarray:
        """The Killing form as a Fraction matrix, built on first read."""
        if self._killing is None:
            self._killing = unscaled(self.killing_ints, 1)
        return self._killing

    def bracket_coords(self, u, v) -> np.ndarray:
        """Coordinates of [u, v], read from the matrix commutator."""
        (lu, U), (lv, V) = scaled_ints(u), scaled_ints(v)
        N, L = self._brackets(np.array([U, V]), [0], [1])
        return unscaled(N[0], L * lu * lv)

    # -- Cartan involution --------------------------------------------------

    @property
    def theta(self) -> np.ndarray:
        """Coordinate matrix of the Cartan involution (columns = images)."""
        if self._theta_coord is None:
            if self.theta_conjugator is None:
                raise ValueError(f"{self.name}: no Cartan involution attached")
            lg, G = scaled_ints(self.theta_conjugator)
            N, L = self.read_coords(int_matmul(int_matmul(G, self.stack), G))
            self._theta_coord = unscaled(N.T, L * lg * lg)
        return self._theta_coord

    def k_subspace(self) -> Subspace:
        """Fixed space of theta (maximal compact part), in coordinates."""
        return self._theta_eigenspace(1)

    def p_subspace(self) -> Subspace:
        return self._theta_eigenspace(-1)

    def _theta_eigenspace(self, lam) -> Subspace:
        M = self.theta - lam * np.eye(self.dim, dtype=object)
        return Subspace.from_rows(kernel(M), self.dim)

    def restricted_gram(self, sub: Subspace) -> np.ndarray:
        """Integer Gram matrix of the Killing form on the subspace basis."""
        V = sub.matrix()
        return int_matmul(int_matmul(V, self.killing_ints), V.T)

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


def span_closure(alg: LieAlgebra, sub: Subspace) -> Subspace:
    """Smallest Lie subalgebra containing the given coordinate subspace.

    Each round forms the matrix commutators of all pairs of the current
    basis in one batch and tests each for membership in the span of the
    basis's own flattened matrices: one ``CoordinateSolver`` on their
    support columns, then ``solve_rows`` (a commutator with an entry off
    that support is outside).  A closed basis ends there, so a closed input
    is proved closed over all k(k-1)/2 brackets without a coordinate read
    in g.  Only the brackets outside the span are read in g
    (``LieAlgebra._brackets``) to grow the basis, which is kept in reduced
    echelon form (``echelon_rows``), so its entries stay small."""
    if sub.ambient_dim != alg.dim:
        raise ValueError("subspace lives in a different coordinate space")
    cur = sub
    while cur.dim > 1:
        rows = cur.matrix()
        M = int_matmul(rows, alg._flat)
        a, b = np.triu_indices(cur.dim, 1)
        C = alg._commutators(M, a, b)
        on = M.any(axis=0)
        out = ~CoordinateSolver(M[:, on]).solve_rows(C[:, on])[2]
        out |= C[:, ~on].any(axis=1)
        if not out.any():
            break
        N, _L = alg._brackets(rows, a[out], b[out])
        grown = Subspace.from_rows(list(cur.basis) + list(N), alg.dim)
        cur = Subspace(alg.dim, tuple(echelon_rows(grown.matrix())))
    return cur


def is_compactly_embedded(alg: LieAlgebra, sub: Subspace):
    """True iff the Killing form of alg is negative definite on the subspace.

    Returns (flag, sylvester_signature).
    """
    if sub.dim == 0:
        return True, (0, 0, 0)
    sig = signature(alg.restricted_gram(sub))
    return sig == (0, sub.dim, 0), sig


def direct_sum(a: LieAlgebra, b: LieAlgebra, name=None) -> LieAlgebra:
    """Block-diagonal direct sum of the two basis stacks.  The solver and the
    Killing form are assembled blockwise from the factors'; the theta
    conjugator is the block-diagonal one, and ``theta`` reads its
    coordinate matrix on first use, like any algebra's."""
    n1, N = a.n, a.n + b.n
    B = np.zeros((a.dim + b.dim, N, N), dtype=np.result_type(a._flat, b._flat))
    B[: a.dim, :n1, :n1] = a.stack
    B[a.dim :, n1:, n1:] = b.stack
    conj = None
    if a.theta_conjugator is not None and b.theta_conjugator is not None:
        conj = embed_block(a.theta_conjugator, N, 0)
        conj[n1:, n1:] = b.theta_conjugator
    # the flattened positions of the two blocks, factor a's all first
    at = np.arange(N * N).reshape(N, N)
    solver = CoordinateSolver.block_sum(
        a._solver, b._solver, at[:n1, :n1].ravel(), at[n1:, n1:].ravel(),
        B.reshape(len(B), -1),
    )
    meta = {
        "factors": [
            {"algebra": a, "coord_offset": 0, "block_offset": 0},
            {"algebra": b, "coord_offset": a.dim, "block_offset": n1},
        ],
        "family": "product",
        "_solver": solver,
    }
    out = LieAlgebra(name or f"{a.name}x{b.name}", B, conj, meta)

    # the Killing form is block diagonal: set it from the factors; brackets
    # are read from matrix commutators, so the product never needs a tensor
    # of its own
    d = out.dim
    K = np.zeros((d, d), dtype=np.int64)
    K[: a.dim, : a.dim] = a.killing_ints
    K[a.dim :, a.dim :] = b.killing_ints
    out._killing_ints = K
    return out
