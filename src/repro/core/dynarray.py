"""Re-export of :class:`repro.graphs.dynarray.DynArray`.

The dynamic array belongs to the graph substrate (``repro.graphs``),
which ``repro.core`` builds on; this name keeps old imports working.
"""
from ..graphs.dynarray import DynArray

__all__ = ["DynArray"]
