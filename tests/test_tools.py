"""`tools/stage_digests.py` compares two runs written into different
directories, so its digests must not see the directory where a config echo
names it, and must see every other byte."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_stage_digests():
    spec = importlib.util.spec_from_file_location("stage_digests", TOOLS / "stage_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
