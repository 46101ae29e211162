"""The systems of a W-orbit for the tests: the walk yields the elements w
of W (`weyl.orbit_layers`), and the system w.A0 has the terms A0.terms @ w."""

import numpy as np

from delpezzo import census, weyl


def orbit_systems(A0, max_layers=None):
    """Yield (layer, systems [N, n, rank] int64) along the walk of W, the
    systems w.A0 for the layer's elements w, in row order."""
    terms = np.array(A0.terms, dtype=np.int64)
    for layer in weyl.orbit_layers(A0.lattice, max_layers=max_layers):
        yield layer, terms @ layer.elements


def plan_sums_tables(A0):
    """The census's window plan of A0, A0's window sums S0 (one array
    [w, rank] per window kind) and the class tables of those windows."""
    plan = census._window_plan(A0.squares())
    terms = np.array(A0.terms, dtype=np.int64)
    S0 = tuple(c @ terms for c in plan.coeffs)
    return plan, S0, census._window_tables(A0.lattice, S0)
