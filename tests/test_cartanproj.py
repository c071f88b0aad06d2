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
from ckforms.embeddings import product_algebra
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
# summation order moves these digits.
_PINNED_GAP_REPORTS = [
    ("so44xso24-delta", 7, 0.3175301032753859, 47, 1.1368683772161603e-13),
    ("so34xso24-delta", 11, 0.34371891714561387, 59, 7.069900220812997e-13),
    ("so44xso24-delta-control", 3, 0.0, 66, 5.702105454474804e-13),
]


@pytest.mark.parametrize("space,seed,eps,checked,err", _PINNED_GAP_REPORTS)
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


def _per_sample_shard(sp, seed_seq, count):
    """The sampler as one Python iteration per sample: the reference that
    the batched ``_run_shard`` must match bit for bit."""
    rng = np.random.default_rng(seed_seq)
    parts = cartanproj._part_data(sp)
    ranks = [p["a_map"].shape[0] for p in parts]
    n = sp.algebra.n
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

        def cmat(k_imgs):
            co = rng.normal(size=len(k_imgs))
            co /= np.linalg.norm(co)
            Y = np.zeros((n, n))
            for c, K in zip(co, k_imgs):
                Y += c * K
            return expm(Y)

        total = np.eye(n)
        off = 0
        for p, r in zip(parts, ranks):
            X = np.zeros((n, n))
            for c, A in zip(x[off : off + r], p["a_imgs"]):
                X += c * A
            total = total @ (cmat(p["k_imgs"]) @ expm(X) @ cmat(p["k_imgs"]))
            off += r
        factors = tuple(
            total[o : o + a.n, o : o + a.n] for a, _c, o in sp.algebra.factors
        )
        mu_num = cartan_projection(GroupElement(sp.algebra, factors)).coords
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
