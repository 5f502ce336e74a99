"""Exact arithmetic and analysis on ultrametric spaces.

Subpackages cover p-adic and mixed-radix integer arithmetic, Hensel
lifting, max-ultranorm linear algebra, Hausdorff measures on Cantor
products, geometric audits, maximal functions with exact weak-type
constants, and character tables over exact roots of unity.

Names are imported from their modules (``from ultrametric.padic import
PAdicInt``): the package itself imports none of them, so that a command-line
call loads only the modules it runs.
"""

__version__ = "0.1.0"
