"""ARLIF: streaming intrusion detection.

Isolation-forest per-tree anomaly probabilities, fused over a sliding
k-step history by a single attention layer that is the only thing trained
— online, one SGD step per labeled sample.

The top level exports nothing: import from the submodules (ingest, iforest,
attention, detector, metrics, errors, cli).
"""
