"""The comparison tools. `tools/stage_digests.py` compares two runs written
into different directories, so its digests must not see the directory where
a config echo names it, and must see every other byte. `tools/paired_seeds.py`
pairs two trees' seeded runs, so a tree compared with itself must read no
difference."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_stage_digests():
    return load_tool("stage_digests")


def test_digests_hide_the_output_directory_only_in_config_echoes(tmp_path):
    stage_digests = load_stage_digests()
    lines = {}
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        (out / "map_config.json").write_text(f'{{"output_dir": "{out}"}}\n')
        (out / "mappings.tsv").write_text(f"{out}\n")
        lines[run] = stage_digests.digests(out)
    (config_a, mappings_a), (config_b, mappings_b) = lines["a"], lines["b"]
    assert config_a == config_b and mappings_a != mappings_b
    assert [line.split("  ")[1] for line in lines["a"]] == ["map_config.json", "mappings.tsv"]


def test_paired_seeds_reads_no_difference_between_a_tree_and_itself(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # paired_seeds imports stage_digests
    paired_seeds = load_tool("paired_seeds")
    config = {
        "dims": {"d_h": 4, "d_b": 8, "d_r": 4},
        "datagen": {"groups": 4, "synonyms": 2, "persons": 20, "jobs_per_person": 3},
        "poincare": {"epochs": 1, "burn_in_epochs": 1},
        "train": {"max_epochs": 2, "batch_size": 16},
    }
    rows, summary = paired_seeds.compare(config, range(1, 3), (ROOT, ROOT), tmp_path)
    assert [seed for seed, _, _ in rows] == [1, 2]
    for _, a, b in rows:
        assert set(a) == set(paired_seeds.METRICS) and a == b
        assert all(0.0 <= value <= 1.0 for value in a.values())
    for s in summary.values():
        assert s == {"median_diff": 0.0, "signs": (0, 0, 2), "p": 1.0}


@pytest.mark.parametrize("diffs,p", [([0.1], 1.0), ([0.1, 0.2, 0.3], 0.25), ([0.1, -0.1], 1.0),
                                     ([1 / 60] * 6, 2 / 64)])
def test_sign_flip_p_counts_every_sign_pattern(diffs, p):
    assert load_tool("paired_seeds").sign_flip_p(diffs) == pytest.approx(p, abs=1e-12)
