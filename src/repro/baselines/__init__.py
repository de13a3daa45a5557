"""Competitor algorithms the paper evaluates against — built from scratch."""
