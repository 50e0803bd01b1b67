"""Quasi-normal modes of the emergent cavity in an atom-terminated waveguide."""

__version__ = "0.1.0"

#: Newton tolerance on |f|: the default of the root searches and of the
#: --tol flag of the commands whose output is the roots. It sits here, not
#: in qnm, so that the command-line parser needs no library module.
DEFAULT_TOL = 1e-12

#: The modules that bench/layers.py's tracer reads as attributes of the
#: package; a command imports them only when it runs.
_SUBMODULES = frozenset({"qnm", "dynamics", "scattering", "platforms"})


def __getattr__(name: str):
    """Import a traced module on its first access as an attribute.

    This serves the benchmark's tracer, not library callers: they import
    what they use (``from qnmlab.qnm import find_modes``).
    """
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return importlib.import_module(f"{__name__}.{name}")
