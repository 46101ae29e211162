import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delpezzo.effectivity import (
    anticlass_effective,
    brute_force_effective,
    is_effective,
    is_hole,
    root_stacks,
    solve_root_combination,
)
from delpezzo.errors import InputError
from delpezzo.picard import parse_divisor, vneg, vscale, vsub, vsum
from delpezzo.surface import catalog_load
from delpezzo.toric import blow_down
from delpezzo import census, weyl


def _anticlass_one(s, d):
    """One anti-class on one surface through the batched kernel."""
    return bool(anticlass_effective(root_stacks((s,)), [d], [0])[0])


def _bound(s, d):
    return max(0, s.lattice.intersect(d, vneg(s.lattice.canonical)))


def test_basic_effectivity():
    s = catalog_load(3).get("dP")
    lat = s.lattice
    assert is_effective(s, parse_divisor(lat, "E1"))
    assert is_effective(s, parse_divisor(lat, "-K"))
    assert is_effective(s, lat.zero())
    assert not is_effective(s, parse_divisor(lat, "-E1"))
    assert not is_effective(s, lat.canonical)
    # A root is effective iff the surface has it.
    root = parse_divisor(lat, "E1-E2")
    assert not is_effective(s, root)
    assert is_effective(catalog_load(3).get("A4"), root)


def test_brute_force_agreement_sample():
    rng = random.Random(7)
    for degree, label in [(3, "E6"), (4, "D5"), (5, "A2"), (6, "2A1")]:
        s = catalog_load(degree).get(label)
        for _ in range(60):
            d = tuple(rng.randint(-4, 4) for _ in range(s.lattice.rank))
            assert (
                is_effective(s, d)
                == brute_force_effective(s, d, _bound(s, d))
            ), (s.name, d)


def test_deciders_reject_a_wrong_length_divisor():
    s = catalog_load(3).get("A4")
    for d in (s.lattice.canonical[:-1], s.lattice.canonical + (0,)):
        with pytest.raises(InputError, match="does not match lattice rank"):
            is_effective(s, d)
        with pytest.raises(InputError, match="does not match lattice rank"):
            brute_force_effective(s, d, 3)


def test_anticlass_fast_on_explicit_windows():
    s = census.section13_surface()
    A = census.section13_system()
    for k, l in [(10, 10), (9, 10)]:
        d = vneg(A.window(k, l))
        assert _anticlass_one(s, d) == is_effective(s, d)
        assert not _anticlass_one(s, d)


def test_holes():
    s = census.section13_surface()
    A = census.section13_system()
    assert is_hole(s, vneg(A.window(10, 10)))
    assert is_hole(s, vneg(A.window(9, 10)))
    lat = s.lattice
    # Effective classes and classes with non-effective multiples are not holes.
    assert not is_hole(s, parse_divisor(lat, "E1"))
    dp = catalog_load(3).get("dP")
    assert not is_hole(dp, parse_divisor(dp.lattice, "E1-E2"))


def test_solve_root_combination():
    s = catalog_load(3).get("A4")
    lat = s.lattice
    d = parse_divisor(lat, "E1-E3")  # (E1-E2) + (E2-E3)
    combo = solve_root_combination(s, d)
    assert combo is not None
    assert solve_root_combination(s, parse_divisor(lat, "E3-E1")) is None


def _solve_by_fractions(s, d):
    """Reference: Gaussian elimination over Q on the pairing system."""
    roots = s.simple_roots
    lat = s.lattice
    k = len(roots)
    mat = [
        [Fraction(lat.intersect(roots[i], roots[j])) for j in range(k)]
        + [Fraction(lat.intersect(d, roots[i]))]
        for i in range(k)
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [v / pv for v in mat[col]]
        for r in range(k):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
    xs = [mat[i][k] for i in range(k)]
    if any(x.denominator != 1 or x < 0 for x in xs):
        return None
    if vsum((vscale(int(x), r) for x, r in zip(xs, roots)), lat.rank) != d:
        return None
    return tuple(int(x) for x in xs)


_SOLVE_SURFACES = [
    s for degree in (2, 3) for s in catalog_load(degree).entries if s.simple_roots
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_root_combination_matches_fractions(data):
    s = data.draw(st.sampled_from(_SOLVE_SURFACES))
    k, rank = len(s.simple_roots), s.lattice.rank
    coeffs = data.draw(st.lists(st.integers(-2, 4), min_size=k, max_size=k))
    noise = data.draw(
        st.one_of(
            st.just((0,) * rank),
            st.tuples(*[st.integers(-2, 2)] * rank),
        )
    )
    d = vsum([vscale(c, r) for c, r in zip(coeffs, s.simple_roots)] + [noise], rank)
    expected = _solve_by_fractions(s, d)
    assert solve_root_combination(s, d) == expected
    if noise == (0,) * rank:
        assert expected == (tuple(coeffs) if min(coeffs) >= 0 else None)


def test_fast_anticlass_precondition():
    s = catalog_load(3).get("A4")
    with pytest.raises(InputError, match="not an anti-class"):
        _anticlass_one(s, parse_divisor(s.lattice, "L"))
    # -E1 is an anti-class ((-E1)^2 - (-E1).K = -2) with D.K = 1 > 0.
    with pytest.raises(InputError, match="D.K <= 0"):
        _anticlass_one(s, parse_divisor(s.lattice, "-E1"))
    stacks = root_stacks((s, catalog_load(3).get("dP")))
    good = vneg(parse_divisor(s.lattice, "E1-E2"))
    with pytest.raises(InputError, match="not an anti-class"):
        anticlass_effective(stacks, [good, parse_divisor(s.lattice, "L")], [0, 1])
    with pytest.raises(InputError, match="expected"):
        anticlass_effective(stacks, [good[:-1]], [0])
    with pytest.raises(InputError, match="expected"):
        anticlass_effective(stacks, [good], [0, 1])
    with pytest.raises(InputError, match="one lattice"):
        root_stacks((s, catalog_load(2).get("dP")))


def _anticlass_by_loop(s, d):
    """Reference: the scalar subtraction loop the batched kernel replaced."""
    lat = s.lattice
    roots = s.simple_roots
    cap = max(1, 10 * (lat.rank + abs(lat.k_product(d))))
    current = d
    for _ in range(cap):
        ones = []
        any_negative = False
        for r in roots:
            p = lat.intersect(current, r)
            if p <= -2:
                return True
            if p == -1:
                ones.append(r)
                any_negative = True
        if not any_negative:
            return False
        disjoint = True
        for i in range(len(ones)):
            for j in range(i + 1, len(ones)):
                p = lat.intersect(ones[i], ones[j])
                if p > 0:
                    return True
                if p < 0:
                    disjoint = False
        if disjoint:
            current = vsub(current, vsum(ones, lat.rank))
        else:
            current = vsub(current, ones[0])
    raise AssertionError("reference loop did not terminate")


def _deep_anticlass_source(name):
    if name == "deg3":
        dp2 = catalog_load(2).get("dP")
        return blow_down(dp2, census.SEQUENCE_PRESETS["VI-deg2"].initial_system(), 3)[1]
    return census.SEQUENCE_PRESETS[name].initial_system()


@pytest.mark.parametrize("source,layers", [("IIb-deg2", 3), ("VI-deg1", 1), ("deg3", 2)])
def test_anticlass_kernel_matches_loop(source, layers):
    # The deep windows of the first orbit layers, negated, on every catalog
    # surface of the degree, all in one batched call.
    A0 = _deep_anticlass_source(source)
    plan = census._window_plan(A0.squares())
    anticlasses = [
        tuple(d)
        for layer in weyl.orbit_layers(A0.lattice, A0.terms, max_layers=layers)
        for row in plan.deep_coeffs
        for d in (-(row @ layer.payload)).tolist()
    ]
    surfaces = catalog_load(A0.lattice.degree).entries
    pairs = [(d, t) for d in anticlasses for t in range(len(surfaces))]
    verdicts = anticlass_effective(
        root_stacks(surfaces), [d for d, _ in pairs], [t for _, t in pairs]
    )
    assert verdicts.dtype == bool and verdicts.shape == (len(pairs),)
    for (d, t), verdict in zip(pairs, verdicts):
        s = surfaces[t]
        expected = _anticlass_by_loop(s, d)
        assert verdict == expected == is_effective(s, d), (s.name, d)
        assert _anticlass_one(s, d) is expected
    assert verdicts.any() and not verdicts.all()


def test_multiple_of_effective_is_effective():
    s = catalog_load(4).get("D4")
    d = parse_divisor(s.lattice, "2L-E1235")
    assert is_effective(s, d)
    assert is_effective(s, vscale(3, d))
