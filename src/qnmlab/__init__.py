"""Quasi-normal modes of the emergent cavity in an atom-terminated waveguide."""

__version__ = "0.1.0"
