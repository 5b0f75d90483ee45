import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from plumeplace import mi
from plumeplace.mi import (
    _JITTER_SEED,
    KnnConfig,
    _jitter_draw,
    _jittered,
    _knn_radii,
    _strict_counts,
    _window_radii,
    knn_entropy,
    ksg_mi,
)

from oracles import (
    brute_knn_entropy,
    brute_knn_radii,
    brute_ksg_mi,
    brute_strict_counts,
    chebyshev_all_pairs,
)
from source_scan import definitions_calling

GAUSS_ENTROPY = 1.4189385332046727  # 0.5 * ln(2*pi*e)


class TestKnnConfig:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KnnConfig(k=0)

    @pytest.mark.parametrize("k", [2.5, 6.0, "6", None, True])
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            KnnConfig(k=k)

    def test_accepts_numpy_integer_k(self):
        assert KnnConfig(k=np.int64(4)).k == 4

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, -1e-10])
    def test_rejects_bad_jitter_scale(self, scale):
        with pytest.raises(ValueError, match="jitter_scale must be (a finite number|>= 0)"):
            KnnConfig(jitter_scale=scale)


class TestKnnEntropy:
    def test_uniform_close_to_zero(self):
        x = np.random.default_rng(0).uniform(0, 1, 5000)
        assert abs(knn_entropy(x)) < 0.05

    def test_standard_normal(self):
        x = np.random.default_rng(1).standard_normal(5000)
        assert knn_entropy(x) == pytest.approx(GAUSS_ENTROPY, abs=0.05)

    def test_scaling_law_exact(self):
        x = np.random.default_rng(2).standard_normal((500, 2))
        shift = knn_entropy(3.0 * x) - knn_entropy(x)
        assert shift == pytest.approx(2 * np.log(3.0), abs=1e-9)

    def test_needs_k_plus_one_samples(self):
        with pytest.raises(ValueError):
            knn_entropy(np.arange(5.0), KnnConfig(k=6))

    def test_rejects_duplicate_saturated(self):
        with pytest.raises(ValueError, match="duplicate"):
            knn_entropy(np.zeros(100))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            knn_entropy(np.array([1.0, np.nan, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))

    def test_matches_brute_force(self):
        x = np.random.default_rng(3).standard_normal((300, 2))
        cfg = KnnConfig(k=4, jitter_scale=0.0)
        assert knn_entropy(x, cfg) == pytest.approx(brute_knn_entropy(x, 4), abs=1e-12)

    def test_matches_brute_force_1d(self):
        x = np.random.default_rng(3).standard_normal(300)
        cfg = KnnConfig(k=4, jitter_scale=0.0)
        assert knn_entropy(x, cfg) == pytest.approx(brute_knn_entropy(x, 4), abs=1e-12)


class TestKsgMi:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(4)
        est = ksg_mi(rng.uniform(size=2000), rng.uniform(size=2000))
        assert abs(est) < 0.05

    def test_gaussian_rho_09(self):
        rng = np.random.default_rng(5)
        z = rng.multivariate_normal([0, 0], [[1, 0.9], [0.9, 1]], size=2000)
        truth = -0.5 * np.log(1 - 0.81)
        assert ksg_mi(z[:, 0], z[:, 1]) == pytest.approx(truth, abs=0.08)

    def test_symmetry_bit_for_bit(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((400, 2))
        y = x[:, :1] + 0.5 * rng.standard_normal((400, 1))
        assert ksg_mi(x, y) == ksg_mi(y, x)

    def test_monotone_map_invariance(self):
        rng = np.random.default_rng(7)
        z = rng.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=2000)
        base = ksg_mi(z[:, 0], z[:, 1])
        warped = ksg_mi(np.exp(z[:, 0]), z[:, 1])
        assert abs(warped - base) < 0.05

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((300, 2))
        y = x @ np.array([[1.0], [0.5]]) + 0.3 * rng.standard_normal((300, 1))
        cfg = KnnConfig(k=5, jitter_scale=0.0)
        assert ksg_mi(x, y, cfg) == pytest.approx(brute_ksg_mi(x, y, 5), abs=1e-12)

    def test_matches_brute_force_1d_by_1d(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300)
        y = x + 0.3 * rng.standard_normal(300)
        cfg = KnnConfig(k=5, jitter_scale=0.0)
        assert ksg_mi(x, y, cfg) == pytest.approx(brute_ksg_mi(x, y, 5), abs=1e-12)

    def test_needs_k_plus_one_samples(self):
        with pytest.raises(ValueError, match="need at least k\\+1=7 samples, got 5"):
            ksg_mi(np.arange(5.0), np.arange(5.0) ** 2, KnnConfig(k=6))

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            ksg_mi(np.arange(10.0), np.arange(11.0))

    def test_rejects_duplicate_saturated(self):
        with pytest.raises(ValueError, match="duplicate"):
            ksg_mi(np.zeros(50), np.zeros(50))

    def test_k_wider_than_the_window_matches_brute_force(self):
        # k = 70 needs more than the 32 rows a side the joint's window takes
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300)
        y = x + 0.3 * rng.standard_normal(300)
        cfg = KnnConfig(k=70, jitter_scale=0.0)
        assert ksg_mi(x, y, cfg) == pytest.approx(brute_ksg_mi(x, y, 70), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_entropy_deterministic_per_input(seed):
    x = np.random.default_rng(seed).standard_normal(64)
    assert knn_entropy(x) == knn_entropy(x)


def _tie_heavy(data, max_dim, n=None):
    """Rounded samples, many duplicates, and radii of which about half equal
    an exact pairwise distance, so boundary cases are common."""
    if n is None:
        n = data.draw(st.integers(min_value=8, max_value=80), label="n")
    dim = data.draw(st.integers(min_value=1, max_value=max_dim), label="dim")
    decimals = data.draw(st.integers(min_value=0, max_value=3), label="decimals")
    offset = data.draw(st.sampled_from([0.0, 1e3, -7.3e5]), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    block = np.round(3.0 * rng.standard_normal((n, dim)), decimals) + offset
    pairs = chebyshev_all_pairs(block)[np.arange(n), rng.integers(0, n, n)]
    radii = np.where(rng.uniform(size=n) < 0.5, pairs, rng.uniform(0.0, 3.0, n))
    return block, np.where(radii > 0, radii, 1.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_strict_counts_match_brute_force(data):
    block, radii = _tie_heavy(data, max_dim=4)
    np.testing.assert_array_equal(_strict_counts(block, radii), brute_strict_counts(block, radii))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_1d_knn_radii_match_brute_force(data):
    block, _ = _tie_heavy(data, max_dim=1)
    k = data.draw(st.integers(min_value=1, max_value=7), label="k")
    expected = brute_knn_radii(block, k)
    if np.any(expected == 0):
        with pytest.raises(ValueError, match="duplicate"):
            _knn_radii(block, k)
    else:
        np.testing.assert_array_equal(_knn_radii(block, k), expected)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_stacked_1d_knn_radii_match_each_row_and_brute_force(data):
    n = data.draw(st.integers(min_value=8, max_value=80), label="n")
    rows = data.draw(st.integers(min_value=1, max_value=6), label="B")
    k = data.draw(st.integers(min_value=1, max_value=7), label="k")
    stack = np.stack([_tie_heavy(data, max_dim=1, n=n)[0] for _ in range(rows)])
    expected = np.stack([brute_knn_radii(block, k) for block in stack])
    if np.any(expected == 0):
        with pytest.raises(ValueError, match="duplicate"):
            _knn_radii(stack, k)
        return
    radii = _knn_radii(stack, k)
    np.testing.assert_array_equal(radii, expected)
    np.testing.assert_array_equal(radii, [_knn_radii(block, k) for block in stack])
    # one duplicate-saturated row anywhere in the stack is still an error
    stack[data.draw(st.integers(0, rows - 1), label="saturated row")] = 1.5
    with pytest.raises(ValueError, match="duplicate"):
        _knn_radii(stack, k)


class TestStackedKnnEntropy:
    def test_each_entry_is_its_sets_estimate(self):
        x = np.round(np.random.default_rng(9).standard_normal((2, 3, 200, 1)), 2)
        stacked = knn_entropy(x)
        assert stacked.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert stacked[idx] == knn_entropy(x[idx][:, 0])

    def test_each_entry_of_a_stack_of_2d_sets_is_its_sets_estimate(self, monkeypatch):
        x = np.round(np.random.default_rng(10).standard_normal((2, 3, 200, 2)), 2)
        x[0, :, :, 1] *= 1e3  # the first row's sets are certified, the second's need windows
        builds, queried = _counting_trees(monkeypatch)
        stacked = knn_entropy(x)
        jittered = _jittered(x[1], KnnConfig.jitter_scale)
        assert queried == [rows for rows in (_path(b, 6)[1] for b in jittered) if rows]
        assert builds == [200] * len(queried)
        assert stacked.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert stacked[idx] == knn_entropy(x[idx])

    def test_names_the_stack_it_takes(self):
        with pytest.raises(ValueError, match=r"or an \(\.\.\., n, d\) stack, got shape \(\)"):
            knn_entropy(np.float64(1.0))

    def test_ksg_mi_takes_no_stack(self):
        with pytest.raises(ValueError, match="expected 1D or 2D sample array, got"):
            ksg_mi(np.zeros((2, 50, 1)), np.zeros((2, 50, 1)))


class TestJitterDraw:
    def test_cached_draw_is_read_only(self):
        g = _jitter_draw((40, 2))
        assert _jitter_draw((40, 2)) is g
        assert not g.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g[0, 0] = 1.0

    def test_jitter_is_the_fixed_streams_draw(self):
        x = np.random.default_rng(4).standard_normal((60, 3))
        fresh = np.random.default_rng(_JITTER_SEED).standard_normal(x.shape)
        assert np.array_equal(_jittered(x, 1e-10), x * (1.0 + 1e-10 * fresh))

    def test_repeat_estimates_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        y = 10.0 + np.round(x + rng.standard_normal(300), 1)  # ties only the jitter breaks
        assert ksg_mi(x, y) == ksg_mi(x, y)
        assert knn_entropy(y) == knn_entropy(y)


def _counting_trees(mp) -> tuple[list, list]:
    """Patch mi.cKDTree to record the rows of each tree it builds and of
    each kNN query made of one; returns both records."""
    builds, queried = [], []

    class Tree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            builds.append(len(data))
            super().__init__(data, *args, **kwargs)

        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    mp.setattr(mi, "cKDTree", Tree)
    return builds, queried


def _tree_rows(block, k, w) -> int:
    """How many rows of one (n, d) set a window of w rows a side leaves
    to the tree, by brute force: in the first column's stable order, the
    rows whose k-th distance to the rows within w places exceeds the
    first-column gap to the nearest row beyond them on either side."""
    n = len(block)
    s = block[np.argsort(block[:, 0], kind="stable")]
    dist = chebyshev_all_pairs(s)
    left = 0
    for i in range(n):
        kth = np.sort(np.r_[dist[i, max(0, i - w) : i], dist[i, i + 1 : i + w + 1]])[k - 1]
        lo, hi = i - w - 1, i + w + 1  # the nearest rows beyond the window
        gaps = ([s[i, 0] - s[lo, 0]] if lo >= 0 else []) + ([s[hi, 0] - s[i, 0]] if hi < n else [])
        left += any(gap < kth for gap in gaps)
    return left


def _path(block, k) -> tuple[bool, int]:
    """(passes the whole-set certificate, rows left to the tree) for one
    (n, d) set: its next widest spread is at most its widest column's
    least 1D radius; otherwise the rows a window of k rows a side, the
    widest column first, leaves to the tree."""
    spans = np.ptp(block, axis=0)
    w = np.argmax(spans)
    other = np.max(np.delete(spans, w), initial=0.0)
    if other <= brute_knn_radii(block[:, [w]], k).min():
        return True, 0
    return False, _tree_rows(np.roll(block, -w, axis=1), k, k)


def _dominated(data, n, d, k):
    """An (n, d) set with a drawn widest column w, rounded so that w has
    ties (rounding to thousands makes k-fold ties common), and other
    columns of one spread t drawn against the whole-set certificate: at
    most min(r_w), its edge included; just above it, up to
    k * span_w / (n - k), the most min(r_w) can be (pigeonhole over the
    n - k windows of k + 1 sorted points); or above that."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    decimals = data.draw(st.integers(min_value=-3, max_value=2), label="decimals")
    offset = data.draw(st.sampled_from([0.0, 1e3, -7.3e5]), label="offset")
    w = np.round(1e3 * rng.standard_normal(n), decimals) + offset
    least = brute_knn_radii(w, k).min()
    bound = k * np.ptp(w) / (n - k)
    regime = data.draw(st.sampled_from(["certified", "between", "rejected"]), label="regime")
    if regime == "certified":
        t = least * data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="t / min(r_w)")
    elif regime == "between":
        f = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="f")
        t = max(np.nextafter(least, np.inf), least + f * (bound - least))
    else:
        t = bound * data.draw(st.sampled_from([1.01, 2.0, 50.0]), label="t / bound")
    u = rng.uniform(size=(n, d - 1))
    u[:2] = [[0.0], [1.0]]  # each other column spans exactly t
    wide = data.draw(st.integers(min_value=0, max_value=d - 1), label="widest column")
    return np.insert(t * u, wide, w, axis=1)


def _check_radii(stack, k):
    """_knn_radii of an (..., n, d) stack equals brute force and cKDTree
    for every set, bit for bit, takes the 1D radii of every set's widest
    column in one pass, and queries a tree at exactly the rows that
    neither the whole-set certificate nor a window certifies; a zero
    radius anywhere is an error."""
    n, d = stack.shape[-2:]
    sets = stack.reshape(-1, n, d)
    expected = np.stack([brute_knn_radii(block, k) for block in sets])
    tree = np.stack([cKDTree(block).query(block, k=k + 1, p=np.inf)[0][:, k] for block in sets])
    np.testing.assert_array_equal(tree, expected)
    with pytest.MonkeyPatch.context() as mp:
        builds, queried = _counting_trees(mp)
        sorted_sets = []
        sorted_radii = mi._sorted_radii
        mp.setattr(mi, "_sorted_radii", lambda v, k: (sorted_sets.append(len(v)), sorted_radii(v, k))[1])
        if np.any(expected == 0):
            with pytest.raises(ValueError, match="duplicate"):
                _knn_radii(stack, k)
            return
        radii = _knn_radii(stack, k)
    np.testing.assert_array_equal(radii, expected.reshape(stack.shape[:-1]))
    assert sorted_sets == [len(sets)]
    assert queried == [rows for _, rows in map(_path, sets, [k] * len(sets)) if rows]
    assert builds == [n] * len(queried)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_knn_radii_of_a_dominated_set_match_brute_force_and_the_tree(data):
    n = data.draw(st.integers(min_value=8, max_value=80), label="n")
    d = data.draw(st.sampled_from([2, 3]), label="d")
    k = data.draw(st.integers(min_value=1, max_value=7), label="k")
    _check_radii(_dominated(data, n, d, k), k)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_knn_radii_of_a_mixed_stack_match_brute_force_and_the_tree(data):
    n = data.draw(st.integers(min_value=8, max_value=80), label="n")
    rows = data.draw(st.integers(min_value=1, max_value=5), label="B")
    k = data.draw(st.integers(min_value=1, max_value=7), label="k")
    stack = np.stack([_dominated(data, n, 2, k) for _ in range(rows)])
    # tie-heavy sets of columns alike in spread, which go to the window
    for b in range(rows):
        if data.draw(st.booleans(), label=f"set {b} tie-heavy"):
            stack[b] = _tie_heavy(data, max_dim=1, n=2 * n)[0].reshape(n, 2)
    _check_radii(stack, k)


class TestCertifiedRadii:
    def test_ties_in_the_widest_column_only_take_the_trees_radii(self):
        w = np.repeat(100.0 * np.arange(20), 5)  # each value five times: r_w = 0 at k = 4
        block = np.column_stack([w, np.linspace(0.0, 1.0, 100)])
        radii = _knn_radii(block, 4)
        np.testing.assert_array_equal(radii, brute_knn_radii(block, 4))
        assert radii.min() > 0

    @pytest.mark.parametrize("other", [0.0, 2.5])
    def test_duplicate_saturated_sets_still_raise(self, other):
        w = np.repeat(100.0 * np.arange(20), 5)
        with pytest.raises(ValueError, match="duplicate"):
            _knn_radii(np.column_stack([w, np.full(100, other)]), 4)
        with pytest.raises(ValueError, match="duplicate"):
            _knn_radii(np.full((3, 50, 2), other), 4)

    def test_ksg_mi_on_standardised_data_builds_one_tree_and_no_1d_radii(self, monkeypatch):
        builds, queried = _counting_trees(monkeypatch)

        def unreachable(*args):
            raise AssertionError("ksg_mi reached the 1D radii")

        monkeypatch.setattr(mi, "_sorted_radii", unreachable)
        z = np.random.default_rng(11).multivariate_normal([0, 0], [[1, 0.9], [0.9, 1]], size=500)
        z = (z - z.mean(axis=0)) / z.std(axis=0)
        ksg_mi(z[:, 0], z[:, 1])
        joint = np.hstack([_jittered(z[:, [0]], 1e-10), _jittered(z[:, [1]], 1e-10)])
        left = _tree_rows(joint, 6, 32)
        assert 0 < left < 100
        assert builds == [500]
        assert queried == [left]


def _window_case(data):
    """(block, k, w): an (n, d) set for a window of w >= k rows a side,
    with n from k + 1 to past 2w + 1, so that windows reach both ends.
    The columns are unit-variance and correlated, like ksg_mi's
    projections; rounded, so that ties are common; or clamped at a
    floor, as readings at the concentration floor are, and jittered or
    not, so that exact duplicates can saturate a row."""
    k = data.draw(st.integers(min_value=1, max_value=7), label="k")
    w = data.draw(st.integers(min_value=k, max_value=12), label="w")
    n = data.draw(st.integers(min_value=k + 1, max_value=2 * w + 40), label="n")
    d = data.draw(st.integers(min_value=1, max_value=3), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(["correlated", "tie-heavy", "floor"]), label="kind")
    if kind == "correlated":
        rho = data.draw(st.sampled_from([0.0, 0.5, 0.9, 0.999, -0.9]), label="rho")
        z = rng.standard_normal((n, d))
        z[:, 1:] = rho * z[:, :1] + np.sqrt(1.0 - rho**2) * z[:, 1:]
        block = (z - z.mean(axis=0)) / z.std(axis=0)
    elif kind == "tie-heavy":
        decimals = data.draw(st.integers(min_value=0, max_value=2), label="decimals")
        block = np.round(3.0 * rng.standard_normal((n, d)), decimals)
    else:
        floor = data.draw(st.sampled_from([-1.0, 0.0, 1.0]), label="floor")
        block = np.maximum(rng.standard_normal((n, d)), floor)
        if data.draw(st.booleans(), label="jittered"):
            block = _jittered(block, 1e-10)
    return block, k, w


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_radii_match_brute_force_and_the_tree(data):
    block, k, w = _window_case(data)
    expected = brute_knn_radii(block, k)
    if np.any(expected == 0):
        with pytest.raises(ValueError, match="duplicate"):
            _window_radii(block, k, w)
        return
    tree = cKDTree(block).query(block, k=k + 1, p=np.inf)[0][:, k]
    np.testing.assert_array_equal(tree, expected)
    np.testing.assert_array_equal(_window_radii(block, k, w), expected)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_rows_tree_radius_does_not_depend_on_the_other_rows_queried(data):
    block, k, _ = _window_case(data)
    rows = data.draw(
        st.lists(st.integers(0, len(block) - 1), min_size=1, unique=True), label="rows"
    )
    tree = cKDTree(block)
    whole = tree.query(block, k=k + 1, p=np.inf)[0][:, k]
    np.testing.assert_array_equal(tree.query(block[rows], k=k + 1, p=np.inf)[0][:, k], whole[rows])


def test_only_the_window_and_the_strict_counts_build_trees():
    assert definitions_calling("mi.py", {"cKDTree"}) == {"_window_radii", "_strict_counts"}
