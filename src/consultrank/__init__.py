"""Consultation-aware personalized product search at desk scale.

The package is organised as a pipeline of small, independently testable
layers:

- ``corpus``    timestamped user histories (searches, consultations, clicks,
                buys) loaded from JSONL
- ``datagen``   synthetic journey generator with planted consultation
                patterns and a usefulness oracle
- ``index``     scenario-term inverted index and the scope score
- ``linkage``   offline retrieval linking consultations to the consumer
                actions that follow them
- ``value``     time-decay / scope / posterior-action scores, aggregation,
                and per-search rank-and-filter of consultation histories
- ``tensor``    minimal numpy-backed reverse-mode autodiff with Adam
- ``model``     embedding tables, text encoder, consultation-action
                cross-attention, cascaded encoder, candidate scoring
- ``train``     kept maps (the consultations each search reads), contrastive
                losses and the training loop
- ``evaluate``  HR/NDCG/MRR, candidate sampling, BM25 baseline
- ``ablation``  multi-seed component-removal study, one row of CLI config
                overrides per variant
- ``cli``       pipeline orchestration (datagen | ingest | index | link |
                assess | train | eval | report)
"""

__version__ = "0.1.0"
