"""Exact-arithmetic models of Picard lattices of weak del Pezzo surfaces.

Modules:
  picard       lattice arithmetic and r-class enumeration
  surface      weak del Pezzo surface types and the embedded catalog
  effectivity  effectiveness tests for divisor classes
  toric        toric systems, admissible sequences, exceptionality checkers
  weyl         Weyl group enumeration, orbits, stabilizers
  census       counterexample census over Weyl orbits (the engine)
  paper        the paper's printed tables and the suites that check them
  cli          command-line interface
"""

__version__ = "0.1.0"
