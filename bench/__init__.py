"""End-to-end and per-module benchmark of the ico-hbac CLI; see ``run.py``."""
