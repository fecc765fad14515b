import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass import featsel, parallel
from rareclass.data import Dataset, FeatureMatrix
from rareclass.featsel import (FeatselError, SelectorDecision, run_default_roster, run_roster,
                               select_boruta, select_f_score, select_lasso,
                               select_mutual_info, select_rfe, select_sfs, vote)


def _ds(values, labels):
    values = np.asarray(values, dtype=float)
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1])),
                   np.asarray(labels, dtype=int))


def _signal_noise(n=150, n_signal=3, n_noise=7, shift=2.5, seed=0):
    """First n_signal columns carry a class shift, the rest are pure noise."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(int)
    y[:2] = [0, 1]
    x = rng.normal(size=(n, n_signal + n_noise))
    x[:, :n_signal] += shift * y[:, None]
    return _ds(x, y)


class TestFScore:
    def test_hand_anova_oracle(self):
        # 6 points, one column; direct one-way ANOVA F arithmetic
        x = np.array([[1.0], [2.0], [3.0], [7.0], [8.0], [9.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        g0, g1 = x[:3, 0], x[3:, 0]
        grand = x[:, 0].mean()
        ssb = 3 * (g0.mean() - grand) ** 2 + 3 * (g1.mean() - grand) ** 2
        ssw = ((g0 - g0.mean()) ** 2).sum() + ((g1 - g1.mean()) ** 2).sum()
        expected = (ssb / 1) / (ssw / 4)
        dec = select_f_score(_ds(x, y), n_keep=1)
        assert dec.scores[0] == pytest.approx(expected, abs=1e-10)

    def test_ranks_signal_first(self):
        d = _signal_noise()
        dec = select_f_score(d, n_keep=3)
        assert set(dec.selected) == {0, 1, 2}

    def test_separated_constant_groups_sentinel(self):
        # zero within-group variance with distinct means: infinite F
        x = np.array([[1.0], [1.0], [5.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        dec = select_f_score(_ds(x, y), n_keep=1)
        assert dec.scores[0] == np.inf

    def test_nan_input_rejected(self):
        d = _ds([[np.nan], [1.0]], [0, 1])
        with pytest.raises(FeatselError, match="imputed"):
            select_f_score(d, 1)


class TestMutualInfo:
    def test_plug_in_table_oracle(self):
        # two bins split at the median; hand-computed joint table
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        # bins: {0,1} vs {2,3}; perfectly aligned with the label
        # I(X;Y) = H(Y) = ln 2
        dec = select_mutual_info(_ds(x, y), n_keep=1, n_bins=2)
        assert dec.scores[0] == pytest.approx(np.log(2), abs=1e-12)

    def test_mi_bounded_by_label_entropy(self):
        d = _signal_noise(seed=2)
        p = d.labels.mean()
        h_y = -(p * np.log(p) + (1 - p) * np.log(1 - p))
        dec = select_mutual_info(d, n_keep=5, n_bins=8)
        assert all(v <= h_y + 1e-9 for v in dec.scores.values())
        assert all(v >= -1e-12 for v in dec.scores.values())

    def test_independent_column_near_zero(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4000, 1))
        y = (rng.random(4000) < 0.5).astype(int)
        dec = select_mutual_info(_ds(x, y), n_keep=1, n_bins=4)
        assert dec.scores[0] < 0.01

    def test_bad_bins(self):
        with pytest.raises(FeatselError):
            select_mutual_info(_signal_noise(), 1, n_bins=1)


class TestLasso:
    def test_soft_threshold_oracle_orthonormal(self):
        # with orthonormal standardized design the CD solution is the
        # soft-thresholded univariate coefficient
        n = 64
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(n, 2)))
        X = q * np.sqrt(n)  # columns: mean ~0, unit variance scaling
        X = X - X.mean(axis=0)
        X = X / X.std(axis=0)
        beta = np.array([0.8, 0.05])
        y_cont = X @ beta
        y = (y_cont > np.median(y_cont)).astype(int)
        d = _ds(X, y)
        lam = 0.2
        dec = select_lasso(d, lam=lam)
        t = np.where(y == 1, 1.0, -1.0)
        t_c = t - t.mean()
        for j in range(2):
            rho = float(X[:, j] @ t_c) / n
            expected = np.sign(rho) * max(abs(rho) - lam, 0.0)
            assert dec.scores[j] == pytest.approx(expected, abs=1e-5)

    def test_lambda_max_gives_empty_set(self):
        d = _signal_noise()
        dec = select_lasso(d, lam=10.0)
        assert dec.selected == ()

    def test_objective_monotone_and_kkt(self):
        d = _signal_noise(seed=5)
        dec = select_lasso(d, lam=0.02)
        trace = np.array(dec.diagnostics["objective_trace"])
        assert (np.diff(trace) <= 1e-10).all()
        assert dec.diagnostics["kkt_residual"] < 1e-5

    def test_small_lambda_keeps_signal(self):
        d = _signal_noise(seed=6)
        dec = select_lasso(d, lam=0.005)
        assert {0, 1, 2} <= set(dec.selected)


class TestBoruta:
    def test_recovers_signal_across_seeds(self, monkeypatch):
        monkeypatch.setattr(featsel, "BORUTA_ROUNDS", 12)
        hits = 0
        for seed in range(20):
            d = _signal_noise(n=120, shift=3.0, seed=seed)
            dec = select_boruta(d, seed=seed)
            if {0, 1, 2} <= set(dec.selected):
                hits += 1
        assert hits >= 19

    def test_rarely_confirms_pure_noise(self, monkeypatch):
        monkeypatch.setattr(featsel, "BORUTA_ROUNDS", 10)
        false_pos = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(100, 8))
            y = (rng.random(100) < 0.3).astype(int)
            y[:2] = [0, 1]
            dec = select_boruta(_ds(x, y), seed=seed)
            false_pos += len(dec.selected)
        assert false_pos <= 4

    def test_exact_binomial_tails(self):
        # Binomial(20, 1/2): C(20,15) + ... + C(20,20) = 21700
        assert featsel._half_binom_mass(20, range(15, 21)) == 21700 / 2 ** 20
        assert featsel._half_binom_mass(20, range(0, 6)) == 21700 / 2 ** 20
        assert featsel._half_binom_mass(20, range(0, 21)) == 1.0
        assert featsel._half_binom_mass(5, range(0, 1)) == 1 / 32
        assert featsel._half_binom_mass(200, range(200, 201)) == 2.0 ** -200

    def test_binomial_decision_boundaries(self, monkeypatch):
        # n = 20, alpha = 0.05: P(X >= 15) = 0.021 confirms, P(X >= 14) = 0.058
        # does not; P(X <= 5) = 0.021 rejects, P(X <= 6) = 0.058 does not
        hits = np.array([15, 14, 5, 6])
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        monkeypatch.setattr(featsel, "_boruta_round", lambda train, seed, it, *_: it < hits)
        dec = select_boruta(_signal_noise(n_signal=2, n_noise=2))         # 20 rounds
        assert dec.selected == (0,) and dec.scores == {0: 15, 1: 14, 2: 5, 3: 6}
        assert dec.diagnostics["rejected"] == (2,)
        assert dec.diagnostics["tentative"] == (1, 3)

    def test_diagnostics_partition(self, monkeypatch):
        monkeypatch.setattr(featsel, "BORUTA_ROUNDS", 10)
        d = _signal_noise(seed=3)
        dec = select_boruta(d, seed=3)
        diag = dec.diagnostics
        all_cols = set(dec.selected) | set(diag["rejected"]) | set(diag["tentative"])
        assert all_cols == set(dec.universe)
        assert not set(dec.selected) & (set(diag["rejected"]) | set(diag["tentative"]))


class TestRfe:
    @pytest.mark.parametrize("estimator", ["logistic", "linear_svm", "forest"])
    def test_eliminates_noise(self, estimator):
        hits = 0
        for seed in range(20):
            d = _signal_noise(n=120, shift=3.0, seed=30 + seed)
            dec = select_rfe(d, estimator, n_keep=3, seed=seed)
            if set(dec.selected) == {0, 1, 2}:
                hits += 1
        assert hits >= 18

    def test_keep_all_is_identity(self):
        d = _signal_noise()
        dec = select_rfe(d, "logistic", n_keep=d.n_cols)
        assert set(dec.selected) == set(d.column_ids)

    def test_unknown_estimator(self):
        with pytest.raises(FeatselError):
            select_rfe(_signal_noise(), "nearest_centroid", 2)


class TestSfs:
    def test_forward_keep_one_matches_exhaustive(self):
        # oracle: evaluate every single-column model with the same CV
        from rareclass.featsel import _cv_balanced_accuracy
        from rareclass.models import ModelSpec
        from rareclass.preprocess import stratified_kfold
        d = _signal_noise(n=90, n_signal=2, n_noise=3, seed=9)
        est, seed = "linear_svm", 0
        family, hp = featsel._SFS_ESTIMATORS[est]
        spec = ModelSpec(family, hp, seed=seed)
        folds = stratified_kfold(d, featsel.SFS_FOLDS, seed)
        scores = {int(c): _cv_balanced_accuracy(d, [int(c)], spec, folds)
                  for c in d.column_ids}
        best = min(sorted(scores), key=lambda c: (-scores[c], c))
        dec = select_sfs(d, est, n_keep=1, seed=seed)
        assert dec.selected == (best,)

    def test_forward_finds_signal(self):
        d = _signal_noise(n=120, shift=3.0, seed=10)
        dec = select_sfs(d, "linear_svm", n_keep=3, seed=1)
        assert len(set(dec.selected) & {0, 1, 2}) >= 2


class TestVote:
    def _dec(self, name, cols, universe=(0, 1, 2, 3)):
        return SelectorDecision(name, tuple(cols), universe=tuple(universe))

    def test_threshold_counting(self):
        decs = [self._dec("a", [0, 1]), self._dec("b", [1, 2]), self._dec("c", [1])]
        led = vote(decs, threshold=2)
        assert led.selected == (1,)
        # the universe column that nobody picked is present with zero votes
        assert led.votes == {0: 1, 1: 3, 2: 1, 3: 0}

    def test_threshold_one_is_union(self):
        decs = [self._dec("a", [0]), self._dec("b", [3])]
        led = vote(decs, threshold=1)
        assert set(led.selected) == {0, 3}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_permutation_invariance(self, data, n):
        # each selector picks from its own universe (an empty one stands for
        # its picks); the order the selectors ran in must not change the
        # ledger, only the order of its contributor lists
        decs = []
        for i in range(n):
            universe = sorted(data.draw(st.sets(st.integers(0, 15), max_size=10)))
            picked = data.draw(st.sets(st.sampled_from(universe or list(range(16)))))
            decs.append(self._dec(f"s{i}", sorted(picked), universe=universe))
        order = data.draw(st.permutations(range(n)))
        threshold = data.draw(st.integers(1, n))
        led1 = vote(decs, threshold)
        led2 = vote([decs[i] for i in order], threshold)
        assert led1.selected == led2.selected
        assert led1.votes == led2.votes
        assert ({c: set(v) for c, v in led1.contributors.items()}
                == {c: set(v) for c, v in led2.contributors.items()})

    def test_selected_monotone_in_threshold(self):
        decs = [self._dec(n, c) for n, c in
                [("a", [0, 1, 2]), ("b", [1, 2]), ("c", [2]), ("d", [2, 3])]]
        prev = None
        for t in range(1, 5):
            cur = set(vote(decs, t).selected)
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_threshold_above_roster_warns_and_empties(self):
        decs = [self._dec("a", [0]), self._dec("b", [0])]
        with pytest.warns(UserWarning):
            led = vote(decs, threshold=3)
        assert led.selected == ()

    def test_contributors_recorded(self):
        decs = [self._dec("a", [0]), self._dec("b", [0])]
        led = vote(decs, 2)
        assert set(led.contributors[0]) == {"a", "b"}


class TestRoster:
    def test_twelve_voters_distinct_names(self):
        # twelve names, in the order of the contributors in votes.csv
        d = _signal_noise(n=100, seed=12)
        decs = run_default_roster(d, master_seed=0, n_keep=3)
        assert [dec.name for dec in decs] == [
            "f_score", "mutual_info_4", "mutual_info_8", "mutual_info_16",
            "lasso_0.005", "lasso_0.02", "boruta", "rfe_logistic", "rfe_linear_svm",
            "rfe_forest", "sfs_boosted_trees_forward", "sfs_linear_svm_forward"]

    @pytest.mark.parametrize("master_seed", [0, 1, 2])
    def test_six_wrappers_get_six_seeds(self, master_seed):
        # a seed from a name's first four bytes gave the three rfe_* one seed
        # and the two sfs_* another
        keys = {key for key, _ in featsel.ROSTERS["default"] if key is not None}
        assert len(keys) == 6
        assert len({featsel._selector_seed(master_seed, k) for k in keys}) == 6

    def test_roster_deterministic(self):
        d = _signal_noise(n=100, seed=12)
        a = run_default_roster(d, master_seed=5, n_keep=3)
        b = run_default_roster(d, master_seed=5, n_keep=3)
        assert [x.selected for x in a] == [y.selected for y in b]

    def test_named_rosters(self):
        d = _signal_noise(n=100, seed=12)
        assert run_roster("none", d) == []
        fast = run_roster("fast", d)
        assert [x.name for x in fast] == ["f_score", "mutual_info_8", "lasso_0.01"]
        assert len(fast[0].selected) == d.n_cols // 2
        with pytest.raises(FeatselError, match="unknown selector roster"):
            run_roster("all", d)

    def test_majority_vote_finds_signal(self):
        d = _signal_noise(n=150, shift=3.0, seed=13)
        decs = run_default_roster(d, master_seed=0, n_keep=3)
        led = vote(decs, threshold=3)
        assert {0, 1, 2} <= set(led.selected)


# -- references: the per-element loops the vectorised selectors replaced ----

def _reference_mutual_info(col, y, n_bins):
    """Three full-column scans per (bin, class) cell."""
    edges = np.unique(np.quantile(col, np.linspace(0, 1, n_bins + 1)[1:-1]))
    bins = np.searchsorted(edges, col, side="right")
    n = len(y)
    mi = 0.0
    for b in np.unique(bins):
        for cls in (0, 1):
            nij = np.sum((bins == b) & (y == cls))
            if nij == 0:
                continue
            pij = nij / n
            pi = np.sum(bins == b) / n
            pj = np.sum(y == cls) / n
            mi += pij * math.log(pij / (pi * pj))
    return max(mi, 0.0)


def _reference_top(column_ids, score, n_keep):
    order = sorted(range(len(score)), key=lambda i: (-score[i], column_ids[i]))
    return tuple(int(column_ids[i]) for i in order[:n_keep])


def _reference_lasso(X, labels, lam, tol=1e-7, max_sweeps=10_000):
    """Cyclic coordinate descent, then the KKT residual column by column."""
    y = np.where(labels == 1, 1.0, -1.0)
    y = y - y.mean()
    n, p = X.shape
    mu, sd = X.mean(axis=0), X.std(axis=0)
    live = sd > 0
    Z = np.zeros_like(X)
    Z[:, live] = (X[:, live] - mu[live]) / sd[live]
    w, r = np.zeros(p), y.copy()
    for _ in range(max_sweeps):
        delta = 0.0
        for j in range(p):
            if not live[j]:
                continue
            rho = (Z[:, j] @ r) / n + w[j]
            new = math.copysign(max(abs(rho) - lam, 0.0), rho)
            if new != w[j]:
                r += Z[:, j] * (w[j] - new)
                delta = max(delta, abs(new - w[j]))
                w[j] = new
        if delta < tol:
            break
    grad = -(Z.T @ r) / n
    kkt = 0.0
    for j in range(p):
        if not live[j]:
            continue
        if w[j] != 0:
            kkt = max(kkt, abs(grad[j] + lam * math.copysign(1.0, w[j])))
        else:
            kkt = max(kkt, max(abs(grad[j]) - lam, 0.0))
    return w, kkt


def _selector_problem(seed, n, n_cols):
    """Continuous, constant and few-level (tied) columns, unsorted column
    ids, and labels with both classes."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(np.int64)
    y[:2] = [0, 1]
    cols = []
    for kind in rng.choice(["continuous", "constant", "2", "3", "copy"], size=n_cols):
        if kind == "continuous":
            cols.append(rng.normal(size=n) + y * rng.normal())
        elif kind == "constant":
            cols.append(np.full(n, 0.3))
        elif kind == "copy" and cols:
            cols.append(cols[-1].copy())                  # a tie in every score
        else:
            cols.append(rng.integers(0, 3 if kind == "3" else 2, size=n) * 0.7)
    ids = rng.permutation(3 * n_cols)[:n_cols]
    return Dataset(FeatureMatrix(np.column_stack(cols), ids), y)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 80), n_cols=st.integers(1, 8),
       n_bins=st.sampled_from([2, 3, 4, 8, 16]))
def test_mutual_info_matches_the_per_cell_reference(seed, n, n_cols, n_bins):
    d = _selector_problem(seed, n, n_cols)
    n_keep = 1 + seed % n_cols
    dec = select_mutual_info(d, n_keep, n_bins=n_bins)
    want = [_reference_mutual_info(d.features.values[:, j], d.labels, n_bins)
            for j in range(n_cols)]
    assert [dec.scores[int(c)].hex() for c in d.column_ids] == [float(v).hex() for v in want]
    assert dec.selected == _reference_top(d.column_ids, want, n_keep)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 60), n_cols=st.integers(1, 6),
       lam=st.sampled_from([0.0, 0.005, 0.02, 0.1, 10.0]))
def test_lasso_kkt_matches_the_per_column_reference(seed, n, n_cols, lam):
    d = _selector_problem(seed, n, n_cols)
    dec = select_lasso(d, lam=lam)
    w, kkt = _reference_lasso(d.features.values, d.labels, lam)
    assert float(dec.diagnostics["kkt_residual"]).hex() == float(kkt).hex()
    assert dec.selected == tuple(int(c) for c, wj in zip(d.column_ids, w) if wj != 0)
