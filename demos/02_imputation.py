"""Compare the three imputation families on the same holes.

We punch holes in a dataset with a known linear relation between two
columns, then watch how close each method lands to the true values."""

import numpy as np

from rareclass.data import Dataset, FeatureMatrix, column_stats
from rareclass.impute import (KnnImputeParams, MiceParams,
                              assign_simple_strategies, fit_simple_plan,
                              knn_impute, mice_impute, simple_impute)


def main():
    rng = np.random.default_rng(0)
    n = 300
    x = rng.normal(size=n)
    cols = np.column_stack([
        x,
        2.0 * x + 0.1 * rng.normal(size=n),   # nearly determined by col 0
        rng.normal(size=n),
        np.exp(rng.normal(size=n)),            # right-skewed
    ])
    truth = cols.copy()
    holes = rng.random(cols.shape) < 0.08
    cols[holes] = np.nan
    y = (rng.random(n) < 0.1).astype(int)
    y[:2] = [0, 1]
    d = Dataset(FeatureMatrix(cols, np.arange(4)), y)

    def rmse(filled):
        return float(np.sqrt(((filled.features.values[holes] - truth[holes]) ** 2).mean()))

    plan = assign_simple_strategies(column_stats(d))
    print("simple strategies chosen per column:",
          {c: s for c, s in plan.strategies.items()})
    # every imputer fits on the first n_train rows of the table it fills;
    # here every row is a training row
    simple = simple_impute(fit_simple_plan(plan, d), d, n_train=n)
    knn = knn_impute(KnnImputeParams(k=5), d, n_train=n)
    mice = mice_impute(MiceParams(n_iterations=5), d, n_train=n)

    print(f"\nRMSE on the held-out cells:")
    print(f"  simple (mean/median):    {rmse(simple):.3f}")
    print(f"  k-NN (k=5):              {rmse(knn):.3f}")
    print(f"  chained regressions:     {rmse(mice):.3f}")
    print("\nthe chained method wins whenever columns predict each other, "
          "as they do here by construction")


if __name__ == "__main__":
    main()
