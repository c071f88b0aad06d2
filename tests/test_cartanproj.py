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
from ckforms.embeddings import Embedding, adapted_split_part, product_algebra
from ckforms.exactlin import (
    Subspace, echelon_rows, int_matmul, scaled_ints, unscaled,
)
from ckforms.realforms import build_real_form
from ckforms.rootweyl import chamber_sort, split_data, weyl_elements


def _floats(m):
    return np.array([[float(x) for x in row] for row in m], dtype=float)


def _boost(alg, coords):
    sd = split_data(alg)
    X = np.zeros((alg.n, alg.n))
    den, A = sd.boosts
    for c, M in zip(coords, unscaled(A, den)):
        X += c * _floats(M)
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


# The smallest principal sine between the sampled split part and the
# translates, which the sampled epsilon estimates from above: 1/sqrt(10) on
# so44xso24-delta and about 0.343713 on so34xso24-delta (float values; see
# ROADMAP item 4).  At 20,000 samples, seeds 1 to 5 came within 4.4e-4 and
# 6.7e-5 of them, with the draws in bulk and with the draws per sample.
_GAP_INFIMA = [
    ("so44xso24-delta", 0.316227, 1 / math.sqrt(10) + 1e-3),
    ("so34xso24-delta", 0.343712, 0.343713 + 2e-4),
]


@pytest.mark.parametrize("space,lo,hi", _GAP_INFIMA, ids=[s for s, *_ in _GAP_INFIMA])
def test_sampled_epsilon_estimates_the_infimum(space, lo, hi):
    for seed in range(1, 6):
        assert lo <= gap_experiment(space, 20000, seed).fitted_epsilon <= hi


# Seeded reports, floats exactly as ``repr`` printed them; a changed draw
# order or summation order moves these digits.  Each shard draws every
# direction, then every radius, then the checked samples' compact
# coefficients, in three bulk calls (``_run_shard``), and the per-sample
# reference makes the same draws one sample at a time
# (``test_batched_shard_matches_the_per_sample_loop``).  The check errors are
# those of the cross-check on factor blocks, with each boost exponential read
# off its part's joint eigenbasis and each compact one as cos W + K sinc W
# (W^2 = -K K) on each so(p), so(q) block.
#
# The per-sample draw order that came before (direction, radius, then the
# compact coefficients of a checked sample, sample by sample) gave the same
# laws but other samples: (eps, checked, err) were (0.3175301032753859, 47,
# 2.4535928844215357e-14), (0.34371891714561387, 59, 6.102340854852173e-13)
# and (0.0, 66, 4.329869796037923e-14).  With one ``eigh`` per boost and per
# -iK, the errors of that stream were 1.0769163338863902e-14,
# 8.453793221008254e-13 and 2.3203661214665232e-14; with SciPy's ``expm`` on
# the whole ambient, 1.1368683772161603e-13, 7.069900220812997e-13 and
# 5.702105454474804e-13.
_PINNED_GAP_REPORTS = [
    ("so44xso24-delta", 7, 0.3175779461448304, 49, 2.6756374893465556e-14),
    ("so34xso24-delta", 11, 0.3438798364685237, 72, 1.1826317702912092e-11),
    ("so44xso24-delta-control", 3, 0.0, 56, 1.619815392927841e-13),
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


# exp of one boost on its part's joint eigenbasis, and of one skew matrix
# as (U diag(cos w) + K U diag(sinc w)) U^T, where U diag(w^2) U^T = -K K,
# taken on each so(p), so(q) block of a compact image; columns scaled by
# broadcasting (a product with a diagonal matrix rounds differently)
def _exp_boost(V, lam, x):
    w = np.zeros(len(V))
    for c, row in zip(x, lam):
        w += c * row
    return (V * np.exp(w)) @ V.T


def _exp_skew(K):
    s, U = np.linalg.eigh(-(K @ K))
    w = np.sqrt(np.maximum(s, 0.0))
    sinc = np.sin(w) / np.where(w > 0.0, w, 1.0)
    sinc[w == 0.0] = 1.0
    return (U * np.cos(w) + (K @ U) * sinc) @ U.T


def _combine_one(co, mats):
    Y = np.zeros(mats[0].shape)
    for c, M in zip(co, mats):
        Y += c * M
    return Y


def _exp_compact(co, compacts, n):
    E = np.eye(n)
    for a, b, K in compacts:
        E[a:b, a:b] = _exp_skew(_combine_one(co, K))
    return E


def _per_sample_shard(sp, seed_seq, count):
    """The sampler with its three bulk draws made one sample at a time, in
    the same order (every direction, every radius, then each checked
    sample's compact coefficients, part by part, left then right), and one
    Python iteration per sample for the arithmetic, each group element built
    block by block from one closed-form exponential per matrix: the
    reference that the batched ``_run_shard`` must match bit for bit."""
    rng = np.random.default_rng(seed_seq)
    parts = cartanproj._part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    dirs = [rng.standard_normal(sum(ranks)) for _ in range(count)]
    radii = [math.exp(50.0 * rng.random()) for _ in range(count)]
    coeffs = iter([
        [rng.standard_normal(p["kdim"]) for p in parts for _ in "lr"]
        for radius in radii
        if radius <= 5.0
    ])
    mus = np.empty((count, sp.sd.rank))
    checked, worst = 0, 0.0
    for i, (u, radius) in enumerate(zip(dirs, radii)):
        u /= np.linalg.norm(u)
        x = radius * u
        amb = np.zeros(sp.sd.rank)
        off = 0
        for p, r in zip(parts, ranks):
            amb += x[off : off + r] @ p["a_map"]
            off += r
        mus[i] = chamber_sort(sp.sd, amb)
        if radius > 5.0:
            continue
        draws = next(coeffs)
        total = [np.eye(a.n) for a, _c, _o in sp.algebra.factors]
        off = 0
        for j, (p, r) in enumerate(zip(parts, ranks)):
            left, right = draws[2 * j], draws[2 * j + 1]
            left /= np.linalg.norm(left)
            right /= np.linalg.norm(right)
            for f, V, lam, compacts in p["blocks"]:
                boost = _exp_boost(V, lam, x[off : off + r])
                k1 = _exp_compact(left, compacts, len(V))
                k2 = _exp_compact(right, compacts, len(V))
                total[f] = total[f] @ (k1 @ boost @ k2)
            off += r
        g = GroupElement(sp.algebra, tuple(total))
        mu_num = cartan_projection(g).coords
        worst = max(worst, float(np.abs(mu_num - mus[i]).max()))
        checked += 1
    return mus, checked, worst


def _shard_error(sp, X, co, mu_exact):
    """The cross-check of one shard's checked rows on their own, as the
    sampler ran it before the checked rows of all shards were pooled."""
    if not len(X):
        return 0.0
    parts = cartanproj._part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    return cartanproj._consistency_error(sp, parts, ranks, X, co, mu_exact)


@pytest.mark.parametrize("space", gap_space_keys())
def test_batched_shard_matches_the_per_sample_loop(space, monkeypatch):
    sp = cartanproj._get_space(space)
    seqs = np.random.SeedSequence(2024).spawn(3)
    got = [cartanproj._run_shard(sp, sq, 700) for sq in seqs]
    want = [_per_sample_shard(sp, sq, 700) for sq in seqs]
    for (mus, X, co, mu_exact), (mus0, checked0, worst0) in zip(got, want):
        assert mus.tobytes() == mus0.tobytes()
        worst = _shard_error(sp, X, co, mu_exact)
        assert (len(X), repr(worst)) == (checked0, repr(worst0))
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


@pytest.mark.parametrize("seed", [0, 5, 7, 901, 2024])
def test_lean_draws_equal_normal_and_uniform(seed):
    # the facts the per-sample reference relies on: one standard_normal((m,
    # r)) has the bytes of m sequential standard_normal(r) calls, one
    # random(m) those of m sequential random() calls, and each bulk call
    # leaves the generator where the sequential calls leave it
    bulk, seq = np.random.default_rng(seed), np.random.default_rng(seed)
    for m, r in ((700, 5), (1, 6), (37, 21), (0, 10), (40, 10)):
        want = np.array([seq.standard_normal(r) for _ in range(m)])
        assert bulk.standard_normal((m, r)).tobytes() == want.tobytes()
        assert bulk.bit_generator.state == seq.bit_generator.state
        want = np.array([seq.random() for _ in range(m)])
        assert bulk.random(m).tobytes() == want.tobytes()
        assert bulk.bit_generator.state == seq.bit_generator.state


@pytest.mark.parametrize("space", gap_space_keys())
def test_run_shard_makes_exactly_the_three_bulk_draws(space, monkeypatch):
    sp = cartanproj._get_space(space)
    parts = cartanproj._part_data(sp)
    rank = sum(p["a_map"].shape[0] for p in parts)
    kdims = sum(p["kdim"] for p in parts)
    used = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        used.append(default_rng(seed))
        return used[-1]

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    seed_seq = np.random.SeedSequence(2026)
    mus, X, co, mu_exact = cartanproj._run_shard(sp, seed_seq, 1024)
    monkeypatch.undo()
    rng = np.random.default_rng(seed_seq)
    rng.standard_normal((1024, rank))
    radii = np.array([math.exp(50.0 * u) for u in rng.random(1024)])
    small = radii <= 5.0
    want_co = rng.standard_normal((np.count_nonzero(small), 2 * kdims))
    assert len(X) == np.count_nonzero(small) > 0
    assert co.tobytes() == want_co.tobytes()
    assert mu_exact.tobytes() == mus[small].tobytes()
    assert X.shape == (len(X), rank)
    assert len(used) == 1
    assert used[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize(
    "space,samples,seed",
    [(space, 40000, 3) for space in gap_space_keys()]
    + [("so44xso24-delta", 1, 0)],  # one sample, none of them checked
)
def test_pooled_cross_check_equals_the_per_shard_one(space, samples, seed,
                                                     monkeypatch):
    sp = cartanproj._get_space(space)
    seqs = np.random.SeedSequence(seed).spawn(-(-samples // 1024))
    mus, checked, worst = [], 0, 0.0
    for lo, sq in zip(range(0, samples, 1024), seqs):
        shard_mus, X, co, mu_exact = cartanproj._run_shard(sp, sq, min(1024, samples - lo))
        mus.append(shard_mus)
        checked += len(X)
        worst = max(worst, _shard_error(sp, X, co, mu_exact))
    chunks, seen_mus = [], []
    pooled, distances = cartanproj._consistency_error, cartanproj._union_distances

    def recording(sp, parts, ranks, X, co, mu_exact):
        chunks.append(len(X))
        return pooled(sp, parts, ranks, X, co, mu_exact)

    def recording_distances(sp, mus):
        seen_mus.append(mus.copy())
        return distances(sp, mus)

    monkeypatch.setattr(cartanproj, "_consistency_error", recording)
    monkeypatch.setattr(cartanproj, "_union_distances", recording_distances)
    report = gap_experiment(space, samples, seed)
    assert (report.checked, repr(report.check_error)) == (checked, repr(worst))
    # the shards' mu, written into one preallocated array
    assert [m.tobytes() for m in seen_mus] == [np.concatenate(mus).tobytes()]
    # the checked rows of all shards, in chunks of 1,024 and a short last one
    full, rest = divmod(checked, 1024)
    assert chunks == [1024] * full + ([rest] if rest else [])
    assert samples == 1 or checked > 1024


def _einsum_distances(sp, mus):
    """Distances to the translate union by the einsum formula the sampler
    used before it summed the projections itself."""
    Qs, scale = cartanproj._union_tensor(sp)
    Y = mus * scale[None, :]
    proj = np.einsum("mrk,rn->mnk", Qs, np.ascontiguousarray(Y.T))
    best = np.max(np.einsum("mnk,mnk->mn", proj, proj), axis=0)
    return np.sqrt(np.maximum(np.einsum("nr,nr->n", Y, Y) - best, 0.0))


@pytest.mark.parametrize("space", gap_space_keys())
def test_union_distances_equal_the_einsum_formula(space, monkeypatch):
    sp = cartanproj._get_space(space)
    seqs = np.random.SeedSequence(31).spawn(3)
    mus = [cartanproj._run_shard(sp, sq, 1500)[0] for sq in seqs]
    # a zero row, rows near e^50 and a translate at e^50 (distance 0 up to
    # cancellation)
    big = math.exp(50)
    edge = np.zeros((4, sp.sd.rank))
    edge[1] = big
    edge[2, 0], edge[2, -1] = big, -big * (1 - 2**-40)
    edge[3] = big * np.array([float(x) for x in gap_union(sp)[5].basis[0]])
    mus = np.concatenate(mus[:2] + [edge] + mus[2:])
    want = _einsum_distances(sp, mus)
    assert want[3000] == 0.0 and want[3001] > 0.0
    # chunks of one sample, of 999 and of 4096 (4,504 rows: a short last one)
    for chunk in (1, 999, 4096):
        monkeypatch.setattr(cartanproj, "_DIST_CHUNK", chunk)
        assert cartanproj._union_distances(sp, mus).tobytes() == want.tobytes()


@pytest.mark.parametrize("space", gap_space_keys())
def test_translate_union_matches_the_weyl_matrices(space):
    # signed permutations against the exact Weyl matrices: the same
    # translates with the same integer bases, in the same first-seen order
    sp = cartanproj._get_space(space)
    rows = adapted_split_part(sp.target).matrix()
    seen = {}
    for W in weyl_elements(sp.sd):
        moved = rows @ scaled_ints(W)[1].T
        key = tuple(map(tuple, echelon_rows(moved)))
        seen.setdefault(key, Subspace.from_rows(moved, sp.sd.rank))
    got = gap_union(sp)
    assert [S.matrix().tolist() for S in got] == [
        S.matrix().tolist() for S in seen.values()
    ]
    assert all(type(x) is int for S in got for row in S.basis for x in row)


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
    _assert_close_to_expm(cartanproj._skew_expm(K), K)
    # each S as a one-boost family, exp(1.0 * S)
    for B in S:
        V = np.linalg.eigh(B)[1]
        lam = np.diagonal(V.T @ B @ V)[None]
        _assert_close_to_expm(cartanproj._boost_expm(V, lam, np.ones((1, 1))), B[None])
    # three commuting matrices Q diag(lam[i]) Q^T with weights of every sign,
    # 0 and repeats included, and boosts of radius up to 5 on them, against
    # Q diag(e^(x lam)) Q^T (SciPy's expm is off by up to 1e-12 here)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.integers(-2, 3, size=(3, n)) / 2.0
    A = np.array([(Q * w) @ Q.T for w in lam])
    V = np.linalg.eigh(np.tensordot(np.pi ** -np.arange(3), A, 1))[1]
    lam_v = np.diagonal(V.T @ A @ V, axis1=1, axis2=2)
    X = rng.normal(size=(40, 3))
    X *= rng.uniform(0.0, 5.0, size=(40, 1)) / np.linalg.norm(X, axis=1)[:, None]
    want = np.array([(Q * np.exp(x @ lam)) @ Q.T for x in X])
    got = cartanproj._boost_expm(V, lam_v, X)
    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
    assert (np.abs(got - want) <= 1e-12 * scale).all()


def _block_boosts(sp):
    """Each part's float boost images cut into the factor blocks of its
    ``_part_data`` entry, built from the embedding, not from ``_part_data``."""
    spans = [(o, o + a.n) for a, _c, o in sp.algebra.factors]
    out = []
    for e, p in zip(sp.parts, cartanproj._part_data(sp)):
        A = _ambient_images(e)[0]
        out.append([A[:, lo:hi, lo:hi] for lo, hi in (spans[f] for f, *_ in p["blocks"])])
    return out


def _draws(sp, count, seed):
    """Boost coordinates of radius at most 5 and compact coefficients, in
    the layout of ``_run_shard``'s cross-checked samples: per part, left
    then right coefficients."""
    rng = np.random.default_rng(seed)
    parts = cartanproj._part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    U = rng.normal(size=(count, sum(ranks)))
    X = U / np.linalg.norm(U, axis=1)[:, None] * rng.uniform(0, 5, (count, 1))
    co = rng.normal(size=(count, 2 * sum(p["kdim"] for p in parts)))
    return parts, ranks, X, co


def _sides(parts, co, j):
    """Part j's left and right coefficient columns of ``co``."""
    lo = 2 * sum(p["kdim"] for p in parts[:j])
    k = parts[j]["kdim"]
    return co[:, lo : lo + k], co[:, lo + k : lo + 2 * k]


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
    parts, ranks, X, co = _draws(sp, 5, 7)
    off = 0
    for j, (p, r, images) in enumerate(zip(parts, ranks, _block_boosts(sp))):
        left = _sides(parts, co, j)[0]
        left = left / np.linalg.norm(left, axis=1)[:, None]
        for (_f, V, lam, compacts), A in zip(p["blocks"], images):
            x = X[:, off : off + r]
            boosts = np.array([np.tensordot(row, A, 1) for row in x])
            assert_exact_to_1e12(cartanproj._boost_expm(V, lam, x), boosts)
            for _a, _b, K in compacts:
                Y = cartanproj._combine(left, K)
                assert_exact_to_1e12(cartanproj._skew_expm(Y), Y)
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
    parts, ranks, X, co = _draws(sp, 25, 11)
    blocks = cartanproj._group_blocks(sp, parts, ranks, X, co)
    n = sp.algebra.n
    images = [_ambient_images(e) for e in sp.parts]
    for i, x in enumerate(X):
        total = np.eye(n)
        off = 0
        for j, ((A, K), r) in enumerate(zip(images, ranks)):
            cl, cr = (side[i] for side in _sides(parts, co, j))
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
    ("halves", "within the factor blocks: False"),
])
def test_images_unfit_for_the_closed_form_exit_3(tamper, flag, monkeypatch,
                                                   capsys):
    sp = cartanproj._get_space("so44xso24-delta")
    cartanproj._union_tensor(sp)
    cartanproj._part_data(sp)
    monkeypatch.setattr(sp, "_parts_data", None)
    apply_ints = Embedding.apply_ints

    def tampered(self, X):
        # boost sources are symmetric, compact ones skew; "block" keeps that
        # symmetry and puts one entry off the factor blocks, "halves" puts a
        # compact one in the first factor block, off its so(4) + so(4)
        Y, s = apply_ints(self, X)
        Y = Y.astype(object)
        boosts = np.array_equal(X, np.swapaxes(X, 1, 2))
        if tamper == "block":
            Y[:, 0, -1] += s
            Y[:, -1, 0] += s if boosts else -s
        elif tamper == "halves":
            if not boosts:
                Y[:, 0, 7] += s
                Y[:, 7, 0] -= s
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


@pytest.mark.parametrize("space", gap_space_keys())
def test_joint_eigenbases_diagonalize_the_boost_images(space):
    sp = cartanproj._get_space(space)
    for p, images in zip(cartanproj._part_data(sp), _block_boosts(sp)):
        for (_f, V, lam, _K), A in zip(p["blocks"], images):
            assert len(lam) == len(A) and A.any()
            assert np.abs(V.T @ V - np.eye(len(V))).max() <= 1e-14
            D = V.T @ A @ V
            assert np.abs(D - lam[:, :, None] * np.eye(len(V))).max() <= 1e-14


def test_boost_images_without_a_joint_eigenbasis_exit_3(monkeypatch, capsys):
    sp = cartanproj._get_space("so44xso24-delta")
    cartanproj._union_tensor(sp)
    cartanproj._part_data(sp)
    monkeypatch.setattr(sp, "_parts_data", None)
    apply_ints = Embedding.apply_ints

    def tampered(self, X):
        # the first of several boost images gains a symmetric pair of entries
        # inside the first factor block: the images stay symmetric and within
        # the blocks, but no longer commute
        Y, s = apply_ints(self, X)
        if len(X) > 1 and np.array_equal(X, np.swapaxes(X, 1, 2)):
            Y = Y.astype(object)
            Y[0, 0, 1] += s
            Y[0, 1, 0] += s
        return Y, s

    monkeypatch.setattr(Embedding, "apply_ints", tampered)
    argv = ["gap", "--space", "so44xso24-delta", "--samples", "10"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal error in cartanproj._part_data: ")
    assert "boost images on factor block 0 have no joint eigenbasis" in err


def _dense_projected_norms2(Qs, YT):
    """The squared projections summed over every entry of the bases, zeros
    included, in the order of ``einsum("mrk,rn->mnk")`` and
    ``einsum("mnk,mnk->mn")``: the reference for the sparse sums."""
    m, rank, kdim = Qs.shape
    proj, tmp = np.empty((2, m, YT.shape[1]))
    total = np.zeros_like(proj)
    for k in range(kdim):
        np.multiply(Qs[:, 0, k, None], YT[0], out=proj)
        for r in range(1, rank):
            np.multiply(Qs[:, r, k, None], YT[r], out=tmp)
            proj += tmp
        proj *= proj
        total += proj
    return total


_BASIS_ENTRIES = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda x: x != 0.0)


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_sparse_projected_norms_equal_the_dense_sums(data):
    m, rank, kdim = (data.draw(st.integers(1, hi)) for hi in (8, 6, 3))
    # a few support patterns shared by the translates; a column's support is
    # empty, one entry, every entry or any subset
    subsets = st.one_of(
        st.just(()),
        st.integers(0, rank - 1).map(lambda r: (r,)),
        st.just(tuple(range(rank))),
        st.sets(st.integers(0, rank - 1)).map(tuple),
    )
    patterns = data.draw(
        st.lists(st.tuples(*[subsets] * kdim), min_size=1, max_size=3)
    )
    Qs = np.empty((m, rank, kdim))
    for t in range(m):
        supports = patterns[data.draw(st.integers(0, len(patterns) - 1))]
        for k, support in enumerate(supports):
            for r in range(rank):
                Qs[t, r, k] = data.draw(
                    _BASIS_ENTRIES if r in support else st.sampled_from([0.0, -0.0])
                )
    YT = np.array(data.draw(
        st.lists(
            st.lists(_CHAMBER_ENTRIES, min_size=rank, max_size=rank),
            min_size=1,
            max_size=6,
        )
    )).T.copy()
    want = _dense_projected_norms2(Qs, YT)
    got = cartanproj._projected_norms2(cartanproj._support_plan(Qs), YT)
    assert got.tobytes() == want.tobytes()
