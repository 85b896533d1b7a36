"""End-to-end and per-layer benchmark for rhoperp (see README.md)."""
