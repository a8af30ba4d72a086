"""Compare two source trees on seeded training runs, paired by seed.

    python3 tools/paired_seeds.py CONFIG --seeds 1-12 --root BASE --root CHANGE --out DIR

For each seed and each tree, it sets every `seeds.*` key of CONFIG to the
seed and runs gen-data, build-graph, train-poincare and train, then `eval`
over the run's test split (`split_test.tsv`) and over its training split
(`split_train.tsv`), each stage in a fresh process on the sources under
TREE/src at one BLAS thread (`stage_digests.run_stages`). Runs write into
DIR/seed<n>/a and DIR/seed<n>/b, each split's `eval_report.json` into
eval-test/ and eval-train/ there.

Per seed it prints test hit@1 and hit@10 from `train_report.json`, NDCG@10
from the test split's `eval_report.json` and train hit@1 from the training
split's, for both trees, and the paired difference (second tree minus
first). Train hit@1 beside test hit@1 shows how much of the training set
the model memorises. Per metric it prints the median
difference, the sign count (+ / - / =) and the exact two-sided sign-flip
p-value: the share of the 2^n ways to flip the signs of the n differences
whose sum lies at least as far from zero as the observed sum.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from stage_digests import run_stages

TRAIN_STAGES = ("gen-data", "build-graph", "train-poincare", "train")
METRICS = ("hit@1", "hit@10", "ndcg@10", "train hit@1")
SEED_KEYS = ("data", "poincare", "train", "linkpred")


def eval_split(config: dict, out: Path, root: Path, split: str) -> dict:
    """The `eval_report.json` of the run in `out` over its `split_<split>.tsv`,
    written into out/eval-<split>."""
    config["data"]["labels"] = str(out / f"split_{split}.tsv")
    run_stages(config, out / f"eval-{split}", root, ("eval",))
    return json.loads((out / f"eval-{split}" / "eval_report.json").read_text(encoding="utf-8"))


def run_seed(config: dict, seed: int, root: Path, out: Path) -> dict:
    """The metrics of one seeded run of `config` on the tree `root`."""
    config = json.loads(json.dumps(config))  # a fresh copy per run
    config["seeds"] = dict.fromkeys(SEED_KEYS, seed)
    run_stages(config, out, root, TRAIN_STAGES)
    train = json.loads((out / "train_report.json").read_text(encoding="utf-8"))["metrics"]
    return {"hit@1": train["test_hit_at_1"], "hit@10": train["test_hit_at_10"],
            "ndcg@10": eval_split(config, out, root, "test")["ndcg_at_10"],
            "train hit@1": eval_split(config, out, root, "train")["hit_rate_at"]["1"]}


def sign_flip_p(diffs: list[float]) -> float:
    """Exact two-sided sign-flip p-value of the paired differences `diffs`.
    The sums of all sign patterns are counted by value, rounded to 1e-9, so
    differences on a grid (hit rates over a fixed test split) stay cheap at
    any n."""
    counts = {0.0: 1}
    for d in diffs:
        step: dict = {}
        for total, n in counts.items():
            for signed in (round(total + d, 9), round(total - d, 9)):
                step[signed] = step.get(signed, 0) + n
        counts = step
    observed = abs(round(sum(diffs), 9))
    extreme = sum(n for total, n in counts.items() if abs(total) >= observed - 1e-9)
    return extreme / 2 ** len(diffs)


def summarize(rows: list[tuple[int, dict, dict]]) -> dict:
    """Per metric: the median paired difference, the count of differences
    above, below and at zero, and the sign-flip p-value. Equal runs write
    equal reports, so a tie is an exact zero."""
    summary = {}
    for metric in METRICS:
        diffs = [b[metric] - a[metric] for _, a, b in rows]
        summary[metric] = {
            "median_diff": statistics.median(diffs),
            "signs": (sum(d > 0 for d in diffs), sum(d < 0 for d in diffs),
                      sum(d == 0 for d in diffs)),
            "p": sign_flip_p(diffs),
        }
    return summary


def compare(config: dict, seeds: range, roots: tuple[Path, Path], out: Path):
    rows = [(seed, *(run_seed(config, seed, root, out / f"seed{seed}" / side)
                     for root, side in zip(roots, "ab")))
            for seed in seeds]
    return rows, summarize(rows)


def parse_seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path, help="JSON run config")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="a seed or a range A-B")
    parser.add_argument("--root", type=Path, action="append", required=True,
                        help="source tree; give it twice, the baseline first")
    parser.add_argument("--out", type=Path, required=True, help="empty or new output directory")
    args = parser.parse_args(argv)
    if len(args.root) != 2:
        parser.error("give --root twice: the baseline tree, then the changed one")
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    config = json.loads(args.config.read_text(encoding="utf-8"))
    rows, summary = compare(config, args.seeds, tuple(r.resolve() for r in args.root), out)
    print("seed  " + "  ".join(f"{m:>11} a  {m:>11} b  {'diff':>7}" for m in METRICS))
    for seed, a, b in rows:
        print(f"{seed:>4}  " + "  ".join(f"{a[m]:13.4f}  {b[m]:13.4f}  {b[m] - a[m]:+7.4f}"
                                         for m in METRICS))
    for metric, s in summary.items():
        print(f"{metric}: median diff {s['median_diff']:+.4f}, signs +{s['signs'][0]} "
              f"-{s['signs'][1]} ={s['signs'][2]}, sign-flip p {s['p']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
