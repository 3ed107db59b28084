"""Trapping coins for the four-state discrete-time quantum walk on the 2D square lattice.

Importing the package loads the library modules; the command-line front end
is ``trapwalk.cli``.
"""

from . import classify, coins, errors, laurent, linalg, spectral, walk

__version__ = "0.1.0"

__all__ = ["linalg", "coins", "laurent", "classify", "spectral", "walk", "cli", "errors"]
