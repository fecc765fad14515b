"""End to end: generate a sensor-style file pair, run all three fixed
scenarios, and leave the full artifact set (report, ROC curves, vote
ledger, drop log) in ./demo_out."""

import tempfile
from pathlib import Path

from rareclass.pipeline import format_report_table, reproduce
from rareclass.synth import make_imbalanced, write_secom_like


def main():
    d = make_imbalanced(n_rows=400, n_informative=5, n_noise=12,
                        positive_fraction=0.08, missing_fraction=0.04,
                        n_constant=2, n_duplicate=2, n_high_missing=2,
                        class_separation=1.8, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        data, labels = Path(tmp) / "demo.data", Path(tmp) / "demo_labels.data"
        write_secom_like(d, data, labels)

        for scenario in (1, 2, 3):
            out = Path("demo_out") / f"scenario_{scenario}"
            report = reproduce(scenario, seed=0, out_dir=out,
                               data_path=data, labels_path=labels, roster="fast")
            print(f"--- scenario {scenario} "
                  f"(resampling: {report.resample_summary.get('strategy', 'none') if report.resample_summary else 'none'}) ---")
            print(format_report_table(report))
            print(f"artifacts in {out}/\n")

    print("compare the regularized-boosting recall across the three tables: "
          "resampling buys recall on the rare class")


if __name__ == "__main__":
    main()
