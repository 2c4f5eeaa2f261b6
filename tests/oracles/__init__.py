"""Reference implementations the suite checks ``src/`` against."""
