"""Drive the pipeline command line stage by stage and inspect what each
stage leaves on disk.

Every stage writes one artifact plus a manifest recording the config hash,
input hashes, and timing, so a run can be audited and reproduced.  The
final report stage collates the trained ranker against the two baselines.

Run from the repository root (about ten seconds):

    python3 demos/03_pipeline_tour.py
"""

import json
import tempfile
from pathlib import Path

from consultrank import cli
from consultrank.ablation import SMALL

# the ablation's small setting on a smaller corpus and a shorter run
CONFIG = {**SMALL, "gen_users": 20, "gen_items": 16, "seed": 7,
          "max_epochs": 25, "patience": 25}

STAGES = ("datagen", "ingest", "index", "link", "assess", "train", "eval")


def run(stage, out, config_path, *extra):
    code = cli.main([stage, "--config", str(config_path),
                     "--out", str(out), *extra])
    assert code == 0, f"stage {stage} exited {code}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(CONFIG))

        print("== 1. run the stages in dependency order ==")
        for stage in STAGES:
            run(stage, out, config_path)
        run("eval", out, config_path, "--ranker", "bm25")
        run("eval", out, config_path, "--ranker", "semantic")
        run("report", out, config_path)

        print("\n== 2. what each stage left behind ==")
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.suffix in (".jsonl", ".json", ".f64", ".csv", ".txt"):
                size = path.stat().st_size
                print(f"  {path.relative_to(out)!s:32s} {size:8d} bytes")

        print("\n== 3. one manifest, for the assess stage ==")
        manifest = json.loads((out / "manifests" / "assess.json").read_text())
        print(json.dumps(manifest, indent=2))

        print("\n== 4. the collated comparison ==")
        print((out / "reports" / "comparison.txt").read_text())

        print("== 5. guard rails ==")
        fresh = Path(tmp) / "fresh"
        fresh.mkdir()
        code = cli.main(["assess", "--config", str(config_path),
                         "--out", str(fresh)])
        print(f"assess without upstream artifacts exits {code} "
              f"(missing artifact)")
        bad = out / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "typo_key": 5, "another": "x"}))
        code = cli.main(["index", "--config", str(bad), "--out", str(out)])
        print(f"config with unknown keys exits {code} (config error)")


if __name__ == "__main__":
    main()
