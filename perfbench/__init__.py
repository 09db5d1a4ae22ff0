"""End-to-end and per-layer benchmark for liftloss; see perfbench/README.md."""
