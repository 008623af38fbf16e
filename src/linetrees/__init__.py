"""Exact counting, enumeration, and uniform sampling of rooted line-colored
D-ary trees, with generating-function and root-isolation diagnostics.

The package namespace holds only ``__version__``; import from the
submodules (``linetrees.combinatorics``, ``linetrees.counting``, ...), so
that a program, the command line included, loads only the modules it uses.
"""

__version__ = "0.1.0"
