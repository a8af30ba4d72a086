"""Run every CLI stage on one config and print a sha256 of each output.

    python3 tools/stage_digests.py CONFIG --out DIR [--root TREE]

Each stage runs in a fresh `python -m titlemap.cli` process on the sources
under TREE/src (default: this checkout), with the BLAS and OpenMP thread
variables at 1, so a seeded run writes the same bytes every time. The stages
write into DIR: `output_dir` is set to it, and every `data.*` path the
config leaves unset points at the file an earlier stage writes there. Unless
the config names `data.titles`, the titles of `map` and `encode-semantic` are
the titles of the generated resumes in file order, repeats kept.

It prints one `sha256  file` line per file in DIR, sorted by name. A config
echo (`*_config.json`, and the run config itself) is hashed with DIR
replaced by `<output_dir>`, so two runs into different directories, say on
the trees of two commits, can be compared with one `diff`:

    python3 tools/stage_digests.py run.json --out /tmp/a --root ../old > a.txt
    python3 tools/stage_digests.py run.json --out /tmp/b > b.txt
    diff a.txt b.txt

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

STAGES = ("gen-data", "build-graph", "train-poincare", "encode-semantic", "train", "map",
          "eval", "linkpred", "mobility")

# data key -> the file in the output directory that fills it when unset
ARTIFACTS = {
    "taxonomy": "taxonomy.tsv",
    "labels": "labels.tsv",
    "resumes": "resumes.jsonl",
    "pairs": "pairs.tsv",
    "hyperbolic": "hyperbolic.tsv",
    "vectors": "hyperbolic.tsv",
    "model": "model.json",
    "titles": "titles.txt",
}

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

PLACEHOLDER = b"<output_dir>"
RUN_CONFIG = "run_config.json"


def write_titles(out: Path) -> None:
    """Every resume's title in file order, one per line."""
    with open(out / "resumes.jsonl", encoding="utf-8") as fh:
        titles = [json.loads(line)["title"] for line in fh if line.strip()]
    (out / "titles.txt").write_text("".join(f"{title}\n" for title in titles), encoding="utf-8")


def run_stages(config: dict, out: Path, root: Path, stages=STAGES) -> None:
    """Run `stages` in order on the sources under `root`, each in a fresh
    process, writing into `out`; exit with a message if one fails."""
    data = config.setdefault("data", {})
    own_titles = data.get("titles") is None
    for key, name in ARTIFACTS.items():
        if data.get(key) is None:
            data[key] = str(out / name)
    config["output_dir"] = str(out)
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / RUN_CONFIG
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           **dict.fromkeys(THREAD_VARIABLES, "1")}
    for stage in stages:
        command = [sys.executable, "-m", "titlemap.cli", stage, "--config", str(config_path)]
        code = subprocess.run(command, env=env, cwd=root).returncode
        if code != 0:
            sys.exit(f"stage {stage} exited {code}")
        if stage == "gen-data" and own_titles:
            write_titles(out)


def digests(out: Path) -> list[str]:
    lines = []
    for path in sorted(out.iterdir()):
        payload = path.read_bytes()
        if path.name.endswith("_config.json") or path.name == RUN_CONFIG:
            payload = payload.replace(str(out).encode("utf-8"), PLACEHOLDER)
        lines.append(f"{hashlib.sha256(payload).hexdigest()}  {path.name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path, help="JSON run config")
    parser.add_argument("--out", type=Path, required=True, help="empty or new output directory")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source tree whose src/ runs (default: this checkout)")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    config = json.loads(args.config.read_text(encoding="utf-8"))
    run_stages(config, out, args.root.resolve())
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
