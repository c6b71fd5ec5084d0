"""Location Profile Routing workbench.

Subpackages and modules:

- ``analytic``: closed-form success, regularity, and cost models.
- ``figures``: CSV emission for the standard curve families.
- ``profile``: multi-order location profiles (build, predict, serialize).
- ``mobility``: synthetic trace generation and empirical validation.
- ``streams``: many numpy random streams drawn at once, without numpy.random.
- ``simnet``: unit-disk network simulator with GPSR, GHLS, and LPR.
- ``cli``: command-line entry point.
"""

__version__ = "0.1.0"
