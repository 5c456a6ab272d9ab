"""Train the value-aware ranker on a synthetic corpus and compare it with
two baselines on held-out sessions.

Three scorers rank the same candidate lists:

  value-aware   trained model reading value-filtered consultations
  semantic-only same checkpoint, but fed the most recent consultations
                with no value filtering
  bm25          lexical match between query and item text, no history

The synthetic generator plants users whose recent on-topic consultations
predict their next purchase, so reading the right consultations should pay
off directly in ranking quality.

Run from the repository root (about ten seconds):

    python3 demos/02_train_and_compare.py
"""

import time

from consultrank.datagen import GenSpec, generate
from consultrank.evaluate import (
    bm25_score_fn,
    evaluate_sessions,
    format_metric_table,
)
from consultrank.linkage import LinkageParams, build_linkage
from consultrank.model import ModelConfig, init_model
from consultrank.train import (
    TrainConfig,
    kept_consultations,
    model_score_fn,
    split_sessions,
    train,
)
from consultrank.value import ValueParams, assess_corpus, fit_buckets


def main():
    print("== 1. generate a synthetic corpus ==")
    corpus, _ = generate(GenSpec(n_users=30, n_items=20, seed=0))
    split = split_sessions(corpus)
    print(f"{len(corpus.users)} users, {len(corpus.items)} items, "
          f"{len(split.train)} train / {len(split.valid)} valid / "
          f"{len(split.test)} test sessions")

    print("\n== 2. score consultation value ==")
    table = build_linkage(corpus, LinkageParams())
    params = ValueParams(l_seq=1)
    buckets = fit_buckets(table, params.n_buckets)
    assessments = assess_corpus(corpus, table, buckets, params)
    kept = kept_consultations(assessments)
    n_kept = sum(len(v) for v in kept.values())
    print(f"{len(assessments)} searches assessed, keeping the single "
          f"top-value consultation each ({n_kept} kept in total)")

    print("\n== 3. train the ranker ==")
    model = init_model(corpus, ModelConfig(d=32, seed=0))
    cfg = TrainConfig(tau1=1.0, lambda_va=0.3, lr=3e-3, batch_size=24,
                      va_batch=32, max_epochs=40, patience=40, seed=0)
    started = time.perf_counter()
    result = train(corpus, table, assessments, model, cfg, l_seq=1)
    print(f"trained {len(result.rows)} epochs in "
          f"{time.perf_counter() - started:.1f}s, best validation "
          f"NDCG@10 {result.best_valid_ndcg10:.4f} at epoch {result.best_epoch}")

    print("\n== 4. evaluate three scorers on the test sessions ==")
    n_neg = min(99, len(corpus.items) - 1)
    scorers = {
        "value-aware": model_score_fn(result.model, corpus, kept,
                                      l_seq=1, value_filter=True),
        "semantic-only": model_score_fn(result.model, corpus, None,
                                        l_seq=1, value_filter=False),
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
