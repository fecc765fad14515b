"""Run the twelve-selector roster on data with a known answer and watch
the vote tally separate signal from noise."""

from rareclass.featsel import run_default_roster, vote
from rareclass.synth import make_imbalanced


def main():
    # columns 0-4 carry signal; everything after is noise
    d = make_imbalanced(n_rows=250, n_informative=5, n_noise=15,
                        positive_fraction=0.15, missing_fraction=0.0,
                        class_separation=2.0, seed=3)
    print(f"{d.n_cols} columns, first 5 informative by construction\n")

    decisions = run_default_roster(d, master_seed=0, n_keep=5)
    for dec in decisions:
        print(f"  {dec.name:<22} picked {sorted(dec.selected)}")

    ledger = vote(decisions, threshold=3)
    print(f"\nvote tally (threshold 3):")
    for cid in sorted(ledger.votes, key=lambda c: -ledger.votes[c])[:8]:
        mark = "*" if cid in ledger.selected else " "
        print(f" {mark} column {cid:2d}: {ledger.votes[cid]} votes")
    print(f"\nselected: {sorted(ledger.selected)}")
    print(f"unanimity leaders: {ledger.max_vote_features()}")
    print("\nno single selector is trusted; a feature needs three "
          "independent methods to agree before it survives")


if __name__ == "__main__":
    main()
