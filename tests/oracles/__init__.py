"""Reference implementations kept as test oracles, not library code."""
