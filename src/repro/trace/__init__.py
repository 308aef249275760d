"""Trace infrastructure: execution events and interval utilities."""
