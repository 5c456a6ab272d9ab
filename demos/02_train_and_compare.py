"""Train the value-aware ranker on a synthetic corpus and compare it with
two baselines on held-out sessions.

Three scorers rank the same candidate lists:

  value-aware   trained model reading value-filtered consultations
  semantic-only same checkpoint, but fed the most recent consultations
                with no value filtering
  bm25          lexical match between query and item text, no history

The synthetic generator plants users whose recent on-topic consultations
predict their next purchase, so reading the right consultations should pay
off directly in ranking quality.  It runs the ablation study's small
setting, `consultrank.ablation.SMALL`, through the ablation's own `fit`.

Run from the repository root (about ten seconds):

    python3 demos/02_train_and_compare.py
"""

from consultrank.ablation import SMALL, fit
from consultrank.cli import build_settings, validate_config
from consultrank.datagen import GenSpec, generate
from consultrank.evaluate import bm25_score_fn, evaluate_sessions, format_metric_table
from consultrank.linkage import LinkageParams, build_linkage
from consultrank.train import kept_consultations, model_score_fn, split_sessions
from consultrank.value import fit_buckets


def main():
    cfg = validate_config(SMALL)

    print("== 1. generate a synthetic corpus ==")
    corpus, _ = generate(build_settings(GenSpec, cfg))
    split = split_sessions(corpus)
    print(f"{len(corpus.users)} users, {len(corpus.items)} items, "
          f"{len(split.train)} train / {len(split.valid)} valid / "
          f"{len(split.test)} test sessions")

    print("\n== 2. score consultation value ==")
    table = build_linkage(corpus, build_settings(LinkageParams, cfg))
    buckets = fit_buckets(table, cfg["n_buckets"])
    assessments, result = fit(corpus, table, buckets, cfg)
    kept = kept_consultations(assessments)
    n_kept = sum(len(v) for v in kept.values())
    print(f"{len(assessments)} searches assessed, keeping the single "
          f"top-value consultation each ({n_kept} kept in total)")

    print("\n== 3. train the ranker ==")
    print(f"trained {len(result.rows)} epochs in {result.rows[-1].elapsed_seconds:.1f}s, "
          f"best validation NDCG@10 {result.best_valid_ndcg10:.4f} at epoch {result.best_epoch}")

    print("\n== 4. evaluate three scorers on the test sessions ==")
    n_neg = min(cfg["n_neg_eval"], len(corpus.items) - 1)
    scorers = {
        "value-aware": model_score_fn(result.model, corpus, kept,
                                      l_seq=cfg["l_seq"], value_filter=True),
        "semantic-only": model_score_fn(result.model, corpus, None,
                                        l_seq=cfg["l_seq"], value_filter=False),
        "bm25": bm25_score_fn(corpus),
    }
    reports = {
        name: evaluate_sessions(fn, corpus, split.test, n_neg=n_neg, seed=0)
        for name, fn in scorers.items()
    }
    print(format_metric_table(reports))

    gap = (reports["value-aware"].macro["ndcg@10"]
           - reports["semantic-only"].macro["ndcg@10"])
    print(f"\nReading value-filtered consultations instead of merely recent "
          f"ones is worth {gap:+.4f} NDCG@10 here.")


if __name__ == "__main__":
    main()
