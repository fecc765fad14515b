"""Command-line entry points.

Subcommands mirror the pipeline stages: eda, preprocess, select, train,
evaluate, and reproduce.  All but eda/reproduce take --config; exit code 0
on success, 1 with a stage-named message otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import models
from .config import ConfigError, load_config
from .data import column_stats, load_secom
from .pipeline import PipelineError, emit_report, reproduce, run_pipeline, write_drops


def cmd_eda(args) -> int:
    d = load_secom(args.data, args.labels)
    stats = column_stats(d)
    n_pos = int(d.labels.sum())
    missing = [s.missing_fraction for s in stats]
    n_const = sum(1 for s in stats if s.is_constant)
    print(f"rows: {d.n_rows}   columns: {d.n_cols}   positives: {n_pos} "
          f"({n_pos / d.n_rows:.1%})")
    print(f"missing cells: {sum(m * d.n_rows for m in missing) / (d.n_rows * d.n_cols):.2%} overall")
    print(f"columns over 50% missing: {sum(1 for m in missing if m > 0.5)}")
    print(f"constant columns: {n_const}")
    worst = sorted(stats, key=lambda s: -s.missing_fraction)[:10]
    print("highest-missing columns:")
    for s in worst:
        print(f"  column {s.column_id}: {s.missing_fraction:.1%} missing")
    return 0


def _write_drops(res, out: Path) -> None:
    path = write_drops(res.drop_logs, out)
    print(f"{res.pruned.n_cols} columns survive pruning; drop log in {path}")


def _write_votes(res, out: Path) -> None:
    if res.ledger is None:
        print("selector roster is 'none'; nothing to vote on")
        return
    (out / "votes.csv").write_text(res.ledger.to_csv())
    print(f"{len(res.ledger.selected)} features selected at threshold "
          f"{res.ledger.threshold}; ledger in {out / 'votes.csv'}")


def _write_models(res, out: Path) -> None:
    for fam, m in res.trained.items():
        path = out / f"model_{fam}.json"
        path.write_text(models.model_to_json(m))
        print(f"trained {fam} -> {path}")


def _write_report(res, out: Path) -> None:
    print("\n".join(emit_report(res.report, out, result=res)))


# subcommand -> (last stage it runs, writer of that stage's output)
_STAGE_COMMANDS = {
    "preprocess": ("prune", _write_drops),
    "select": ("select", _write_votes),
    "train": ("train", _write_models),
    "evaluate": ("evaluate", _write_report),
}


def _run_stages(args) -> int:
    cfg = load_config(args.config)
    stop_after, write = _STAGE_COMMANDS[args.command]
    res = run_pipeline(cfg, stop_after=stop_after)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write(res, out)
    return 0


def cmd_reproduce(args) -> int:
    report = reproduce(args.scenario, args.seed, args.out,
                       data_path=args.data, labels_path=args.labels,
                       roster=args.roster)
    from .pipeline import format_report_table
    print(format_report_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rareclass",
                                     description="Rare-class yield-prediction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eda", help="summarize a sensor/labels file pair")
    p.add_argument("data")
    p.add_argument("labels")
    p.set_defaults(func=cmd_eda)

    for name in _STAGE_COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.set_defaults(func=_run_stages)

    p = sub.add_parser("reproduce", help="run one of the three fixed testing scenarios")
    p.add_argument("--scenario", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--roster", default="default", choices=("default", "fast", "none"))
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, ConfigError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
