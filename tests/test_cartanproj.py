"""Cartan projection numerics and the Weyl-translate gap experiment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import ckforms.cartanproj as cartanproj
from ckforms.cartanproj import (
    GapReport,
    GapSpace,
    GapSpaceError,
    GroupElement,
    cartan_projection,
    gap_experiment,
    gap_space_keys,
    gap_union,
    mu_norm,
    union_distance,
)
from ckforms.cli import main
from ckforms.embeddings import Embedding, product_algebra
from ckforms.exactlin import int_matmul
from ckforms.realforms import build_real_form
from ckforms.rootweyl import chamber_sort, split_data


def _floats(m):
    return np.array([[float(x) for x in row] for row in m], dtype=float)


def _boost(alg, coords):
    sd = split_data(alg)
    X = np.zeros((alg.n, alg.n))
    for c, A in zip(coords, sd.a_matrices):
        X += c * _floats(A)
    return X


def _random_k(alg, rng):
    basis = alg.k_subspace().basis
    co = rng.normal(size=len(basis))
    co /= np.linalg.norm(co)
    Y = np.zeros((alg.n, alg.n))
    for c, row in zip(co, basis):
        Y += c * _floats(alg.matrix(np.array(row, dtype=object)))
    return expm(Y)


def test_projection_of_the_identity_is_zero():
    alg = build_real_form("so(2,3)")
    v = cartan_projection(GroupElement(alg, (np.eye(5),)))
    assert v.coords.shape == (2,)
    assert np.allclose(v.coords, 0.0)
    assert mu_norm(v) == 0.0


def test_projection_recovers_the_boost_coordinates():
    alg = build_real_form("so(2,3)")
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = np.sort(rng.uniform(0.1, 4.0, size=2))[::-1]
        g = GroupElement(alg, (expm(_boost(alg, x)),))
        assert np.abs(cartan_projection(g).coords - x).max() < 1e-9


def test_projection_is_bi_invariant_under_the_compact_group():
    alg = build_real_form("so(2,3)")
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = np.sort(rng.uniform(0.1, 4.0, size=2))[::-1]
        M = _random_k(alg, rng) @ expm(_boost(alg, x)) @ _random_k(alg, rng)
        assert np.abs(cartan_projection(GroupElement(alg, (M,))).coords - x).max() < 1e-9


def test_even_split_chamber_keeps_one_sign():
    # for so(4,4) the closed chamber allows a negative last coordinate
    alg = build_real_form("so(4,4)")
    rng = np.random.default_rng(23)
    x = np.array([4.0, 3.0, 2.0, -1.0])
    M = _random_k(alg, rng) @ expm(_boost(alg, x)) @ _random_k(alg, rng)
    got = cartan_projection(GroupElement(alg, (M,))).coords
    assert np.abs(got - x).max() < 1e-9


def test_squared_norms_add_over_product_factors():
    g = product_algebra("so(2,3)", "so(2,4)")
    f1 = build_real_form("so(2,3)")
    f2 = build_real_form("so(2,4)")
    rng = np.random.default_rng(29)
    for _ in range(10):
        x1 = np.sort(rng.uniform(0.1, 3.0, size=2))[::-1]
        x2 = np.sort(rng.uniform(0.1, 3.0, size=2))[::-1]
        m1 = _random_k(f1, rng) @ expm(_boost(f1, x1)) @ _random_k(f1, rng)
        m2 = _random_k(f2, rng) @ expm(_boost(f2, x2)) @ _random_k(f2, rng)
        joint = mu_norm(cartan_projection(GroupElement(g, (m1, m2))))
        left = mu_norm(cartan_projection(GroupElement(g, (m1, np.eye(6)))))
        right = mu_norm(cartan_projection(GroupElement(g, (np.eye(5), m2))))
        assert abs(joint ** 2 - (left ** 2 + right ** 2)) < 1e-9 * joint ** 2


def test_group_elements_are_validated():
    alg = build_real_form("so(2,3)")
    with pytest.raises(ValueError):
        GroupElement(alg, (np.eye(4),))
    with pytest.raises(ValueError):
        GroupElement(alg, (np.eye(5), np.eye(5)))
    bad = np.eye(5)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError, match="preserve the indefinite form"):
        cartan_projection(GroupElement(alg, (bad,)))
    with pytest.raises(ValueError, match="indefinite-orthogonal"):
        GroupElement(build_real_form("su(2,2)"), (np.eye(8),))


def test_translate_union_is_deduplicated():
    translates = gap_union("so44xso24-delta")
    assert len(translates) == 48
    assert all(s.dim == 2 for s in translates)
    # dedup: all translates are pairwise distinct as subspaces
    keys = {tuple(map(tuple, s.matrix())) for s in translates}
    assert len(keys) == 48


def test_union_distance_vanishes_exactly_on_translates():
    translates = gap_union("so44xso24-delta")
    for s in translates[:6]:
        v = np.array([float(x) for x in s.basis[0]])
        assert union_distance("so44xso24-delta", 10.0 * v) < 1e-9
    off = np.array([50.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert union_distance("so44xso24-delta", off) > 1.0


def test_gap_space_registry():
    assert gap_space_keys() == [
        "so34xso24-delta",
        "so44xso24-delta",
        "so44xso24-delta-control",
    ]
    with pytest.raises(GapSpaceError, match="unknown gap space"):
        gap_experiment("so99", 10, 0)


@pytest.fixture(scope="module")
def small_gap_report():
    return gap_experiment("so44xso24-delta", 2000, seed=7)


def test_gap_experiment_reports_a_positive_margin(small_gap_report):
    r = small_gap_report
    assert r.space == "so44xso24-delta"
    assert r.samples == 2000 and r.seed == 7
    assert r.fitted_epsilon > 0.0
    assert r.fitted_C >= 0.0
    assert r.min_margin >= 0.0
    # near-identity samples were cross-checked against the eigenvalue route
    assert r.checked > 0
    assert r.check_error <= 1e-6
    assert set(r.to_json()) == {
        "space",
        "samples",
        "seed",
        "fitted_epsilon",
        "fitted_C",
        "min_margin",
    }


def test_gap_experiment_is_deterministic(small_gap_report):
    again = gap_experiment("so44xso24-delta", 2000, seed=7)
    assert again.to_json() == small_gap_report.to_json()
    other_seed = gap_experiment("so44xso24-delta", 2000, seed=8)
    assert other_seed.fitted_epsilon != small_gap_report.fitted_epsilon


def test_control_space_has_no_gap():
    r = gap_experiment("so44xso24-delta-control", 2000, seed=3)
    assert r.fitted_epsilon == 0.0
    assert r.fitted_C == 0.0
    assert r.min_margin == 0.0


# Reports of the per-sample sampler (one Python iteration per sample) that
# the batched sampler replaced, floats exactly as ``repr`` printed them.  The
# batched sampler must reproduce them bit for bit: a changed draw order or
# summation order moves these digits.  The check errors are those of the
# cross-check on factor blocks with closed-form exponentials; with SciPy's
# ``expm`` on the whole ambient they were 1.1368683772161603e-13,
# 7.069900220812997e-13 and 5.702105454474804e-13.
_PINNED_GAP_REPORTS = [
    ("so44xso24-delta", 7, 0.3175301032753859, 47, 1.0769163338863902e-14),
    ("so34xso24-delta", 11, 0.34371891714561387, 59, 8.453793221008254e-13),
    ("so44xso24-delta-control", 3, 0.0, 66, 2.3203661214665232e-14),
]


@pytest.mark.parametrize(
    "space,seed,eps,checked,err",
    _PINNED_GAP_REPORTS,
    ids=[f"{space}-{seed}" for space, seed, *_ in _PINNED_GAP_REPORTS],
)
def test_gap_reports_are_pinned(space, seed, eps, checked, err, capsys):
    want = GapReport(space, 2000, seed, eps, 0.0, 0.0, checked, err)
    assert repr(gap_experiment(space, 2000, seed)) == repr(want)
    argv = ["gap", "--space", space, "--samples", "2000", "--seed", str(seed)]
    assert main(argv + ["--format", "md"]) == 0
    assert capsys.readouterr().out == (
        f"space: {space}\n"
        f"samples: 2000  seed: {seed}\n"
        f"fitted_epsilon: {eps!r}\n"
        "fitted_C: 0.0\n"
        "min_margin: 0.0\n"
        f"consistency: {checked} group elements, max error {err:.3e}\n"
    )


# exp of one symmetric matrix, and of one skew matrix through the Hermitian
# -iK; columns scaled by broadcasting (a product with a complex diagonal
# matrix rounds differently)
def _exp_sym(S):
    w, V = np.linalg.eigh(S)
    return (V * np.exp(w)) @ V.T


def _exp_skew(K):
    w, U = np.linalg.eigh(-1j * K)
    return ((U * np.exp(1j * w)) @ U.conj().T).real


def _per_sample_shard(sp, seed_seq, count):
    """The sampler as one Python iteration per sample, each group element
    built block by block from one closed-form exponential per matrix: the
    reference that the batched ``_run_shard`` must match bit for bit."""
    rng = np.random.default_rng(seed_seq)
    parts = cartanproj._part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    mus = np.empty((count, sp.sd.rank))
    checked, worst = 0, 0.0
    for i in range(count):
        u = rng.normal(size=sum(ranks))
        u /= np.linalg.norm(u)
        radius = math.exp(rng.uniform(0.0, 50.0))
        x = radius * u
        amb = np.zeros(sp.sd.rank)
        off = 0
        for p, r in zip(parts, ranks):
            amb += x[off : off + r] @ p["a_map"]
            off += r
        mus[i] = chamber_sort(sp.sd, amb)
        if radius > 5.0:
            continue

        def combine(co, mats):
            Y = np.zeros(mats[0].shape)
            for c, M in zip(co, mats):
                Y += c * M
            return Y

        total = [np.eye(a.n) for a, _c, _o in sp.algebra.factors]
        off = 0
        for p, r in zip(parts, ranks):
            left, right = rng.normal(size=p["kdim"]), rng.normal(size=p["kdim"])
            left /= np.linalg.norm(left)
            right /= np.linalg.norm(right)
            for f, A, K in p["blocks"]:
                boost = _exp_sym(combine(x[off : off + r], A))
                k1, k2 = _exp_skew(combine(left, K)), _exp_skew(combine(right, K))
                total[f] = total[f] @ (k1 @ boost @ k2)
            off += r
        g = GroupElement(sp.algebra, tuple(total))
        mu_num = cartan_projection(g).coords
        worst = max(worst, float(np.abs(mu_num - mus[i]).max()))
        checked += 1
    return mus, checked, worst


@pytest.mark.parametrize("space", gap_space_keys())
def test_batched_shard_matches_the_per_sample_loop(space, monkeypatch):
    sp = cartanproj._get_space(space)
    seqs = np.random.SeedSequence(2024).spawn(3)
    got = [cartanproj._run_shard(sp, sq, 700) for sq in seqs]
    want = [_per_sample_shard(sp, sq, 700) for sq in seqs]
    for (mus, checked, worst), (mus0, checked0, worst0) in zip(got, want):
        assert mus.tobytes() == mus0.tobytes()
        assert (checked, repr(worst)) == (checked0, repr(worst0))
    assert sum(w[1] for w in want) > 0
    # distances in chunks, with a short last one, equal one whole-array pass
    mus = np.concatenate([g[0] for g in got])
    Qs, scale = cartanproj._union_tensor(sp)
    Y = mus * scale[None, :]
    proj = np.einsum("mrk,nr->mnk", Qs, Y)
    best = np.max(np.einsum("mnk,mnk->mn", proj, proj), axis=0)
    whole = np.sqrt(np.maximum(np.einsum("nr,nr->n", Y, Y) - best, 0.0))
    monkeypatch.setattr(cartanproj, "_DIST_CHUNK", 999)
    assert cartanproj._union_distances(sp, mus).tobytes() == whole.tobytes()


_GAP_AMBIENTS = ("so44xso24-delta", "so34xso24-delta")
_CHAMBER_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -1.5, math.exp(50), -math.exp(50)]),
    st.floats(-math.exp(50), math.exp(50), allow_nan=False),
)


@given(st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_row_wise_chamber_sort_matches_chamber_sort(data):
    sd = cartanproj._get_space(data.draw(st.sampled_from(_GAP_AMBIENTS))).sd
    assert {f.root_type for f in sd.factors} <= {"B", "D"}
    # zeros, -0.0, ties and an odd count of negatives (D4 of so(4,4) first)
    edges = [
        [-3.0, 2.0, 0.0, -0.0, 1.0, -1.0],
        [-0.0, -0.0, -0.0, 0.0, -0.0, 0.0],
        [2.0, -2.0, -2.0, 2.0, -math.exp(50), 0.0],
        [-1.0, -1.0, -1.0, -math.exp(50), 0.0, -0.0],
    ]
    rows = [row[: sd.rank] for row in edges] + data.draw(
        st.lists(
            st.lists(_CHAMBER_ENTRIES, min_size=sd.rank, max_size=sd.rank),
            min_size=1,
            max_size=8,
        )
    )
    amb = np.array(rows)
    want = np.array([chamber_sort(sd, row) for row in amb])
    # bytes, so that 0.0 and -0.0 count as different
    assert cartanproj._chamber_rows(sd, amb).tobytes() == want.tobytes()


def test_the_sampler_never_sees_a_g2_factor(monkeypatch):
    g = product_algebra("so(3,4)", "g2(2)")
    space = GapSpace("so34xg2", g, split_data(g), [], None, "g2 factor")
    assert "G" in {f.root_type for f in space.sd.factors}
    monkeypatch.setitem(cartanproj._space_cache, "so34xg2", space)
    monkeypatch.setitem(cartanproj._SPACE_BUILDERS, "so34xg2", lambda: space)
    with pytest.raises(ValueError, match="indefinite-orthogonal"):
        gap_experiment("so34xg2", 10, 0)


# ---------------------------------------------------------------------------
# the closed-form exponentials of the cross-check against SciPy's expm
# ---------------------------------------------------------------------------


def _assert_close_to_expm(got, mats):
    want = np.array([expm(M) for M in mats])
    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
    assert (np.abs(got - want) <= 1e-12 * scale).all()


@pytest.mark.parametrize("n", [6, 7, 8])
def test_closed_form_exponentials_match_expm(n):
    rng = np.random.default_rng(100 + n)
    M = rng.normal(size=(40, n, n))
    # spectral radii up to 6-9, as far as the cross-check's images reach
    M *= rng.uniform(0.0, 5.0 / (2 * math.sqrt(n)), size=(40, 1, 1))
    S, K = M + M.transpose(0, 2, 1), M - M.transpose(0, 2, 1)
    _assert_close_to_expm(cartanproj._sym_expm(S), S)
    _assert_close_to_expm(cartanproj._skew_expm(K), K)


def _draws(sp, count, seed):
    """Boost coordinates of radius at most 5 and compact coefficients, in
    the layout of ``_run_shard``'s cross-checked samples."""
    rng = np.random.default_rng(seed)
    parts = cartanproj._part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    U = rng.normal(size=(count, sum(ranks)))
    X = U / np.linalg.norm(U, axis=1)[:, None] * rng.uniform(0, 5, (count, 1))
    kdraws = [
        [rng.normal(size=p["kdim"]) for p in parts for _ in "lr"]
        for _ in range(count)
    ]
    return parts, ranks, X, kdraws


@pytest.mark.parametrize("space", gap_space_keys())
def test_closed_form_exponentials_match_expm_on_the_part_images(space):
    # against a 40-digit expm: SciPy's own expm is off by up to 1.1e-12
    # relative on the g2(2) boosts, whose spectral radius reaches 8
    mpmath = pytest.importorskip("mpmath")

    def assert_exact_to_1e12(got, mats):
        for G, M in zip(got, mats):
            with mpmath.workdps(40):
                E = mpmath.expm(mpmath.matrix(M.tolist()))
            want = np.array(E.tolist(), dtype=float)
            assert np.abs(G - want).max() <= 1e-12 * np.abs(want).max()

    sp = cartanproj._get_space(space)
    parts, ranks, X, kdraws = _draws(sp, 5, 7)
    off = 0
    for j, (p, r) in enumerate(zip(parts, ranks)):
        co = np.array([d[2 * j] for d in kdraws])
        co /= np.linalg.norm(co, axis=1)[:, None]
        for _f, A, K in p["blocks"]:
            boosts = cartanproj._combine(X[:, off : off + r], A)
            compacts = cartanproj._combine(co, K)
            assert_exact_to_1e12(cartanproj._sym_expm(boosts), boosts)
            assert_exact_to_1e12(cartanproj._skew_expm(compacts), compacts)
        off += r


def _ambient_images(e):
    """A part's boost and compact images as float matrices on the whole
    ambient, as the cross-check once built them."""
    src = e.source
    la, A = split_data(src).boosts
    Ya, sa = e.apply_ints(A)
    K = int_matmul(src.k_subspace().matrix(), src.stack.reshape(src.dim, -1))
    Yk, sk = e.apply_ints(K.reshape(-1, src.n, src.n))
    return [np.array(Ya / (sa * la), dtype=float),
            np.array(Yk / sk, dtype=float)]


@pytest.mark.parametrize("space", gap_space_keys())
def test_group_blocks_equal_the_ambient_expm_product(space):
    sp = cartanproj._get_space(space)
    parts, ranks, X, kdraws = _draws(sp, 25, 11)
    blocks = cartanproj._group_blocks(sp, parts, ranks, X, kdraws)
    n = sp.algebra.n
    images = [_ambient_images(e) for e in sp.parts]
    for i, x in enumerate(X):
        total = np.eye(n)
        off = 0
        for j, ((A, K), r) in enumerate(zip(images, ranks)):
            cl, cr = (kdraws[i][2 * j + side] for side in (0, 1))
            k1 = expm(np.tensordot(cl / np.linalg.norm(cl), K, 1))
            k2 = expm(np.tensordot(cr / np.linalg.norm(cr), K, 1))
            total = total @ (k1 @ expm(np.tensordot(x[off : off + r], A, 1)) @ k2)
            off += r
        placed = np.zeros((n, n))
        for M, (a, _c, o) in zip(blocks, sp.algebra.factors):
            placed[o : o + a.n, o : o + a.n] = M[i]
        # 3e-12, not 1e-12: SciPy's expm of the g2(2) boosts is itself off
        # by up to 1.1e-12 relative (see the test above)
        assert np.abs(placed - total).max() <= 3e-12 * np.abs(total).max()


@pytest.mark.parametrize("tamper,flag", [
    ("boost", "boosts symmetric: False"),
    ("compact", "compacts skew: False"),
    ("block", "within the factor blocks: False"),
])
def test_images_unfit_for_the_closed_form_exit_3(tamper, flag, monkeypatch,
                                                   capsys):
    sp = cartanproj._get_space("so44xso24-delta")
    cartanproj._union_tensor(sp)
    monkeypatch.setattr(sp, "_parts_data", None)
    apply_ints = Embedding.apply_ints

    def tampered(self, X):
        # boost sources are symmetric, compact ones skew; "block" keeps that
        # symmetry and puts one entry off the factor blocks
        Y, s = apply_ints(self, X)
        Y = Y.astype(object)
        boosts = np.array_equal(X, np.swapaxes(X, 1, 2))
        if tamper == "block":
            Y[:, 0, -1] += s
            Y[:, -1, 0] += s if boosts else -s
        elif boosts == (tamper == "boost"):
            Y[:, 0, 1] += s
        return Y, s

    monkeypatch.setattr(Embedding, "apply_ints", tampered)
    argv = ["gap", "--space", "so44xso24-delta", "--samples", "10"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal error in cartanproj._part_data: ")
    assert flag in err and err.count("False") == 1
