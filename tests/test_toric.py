import itertools

import pytest
from hypothesis import given, strategies as st

from delpezzo import census, paper, toric, weyl
from delpezzo.effectivity import is_effective, is_lo, is_slo
from delpezzo.errors import InputError
from delpezzo.picard import (
    PicardLattice,
    parse_divisor,
    parse_divisor_list,
    reflect,
    vneg,
)
from delpezzo.report import Report
from delpezzo.surface import catalog_load
from delpezzo.toric import (
    TABLE_CYCLIC_STRONG,
    ToricSystem,
    _noncyclic_windows,
    _reduction_word,
    _through_n_windows,
    augment_sequence,
    augmentation_chain,
    blow_down,
    bring_window_to_term,
    canonical_cyclic,
    classify_sequence,
    compute_IXA,
    compute_IXA_windows,
    cyclic_windows,
    enumerate_cyclic_strong_admissible,
    find_system_with_squares,
    from_json,
    is_admissible,
    is_cyclic_strong_exceptional,
    is_elementary_augmentation,
    is_exceptional,
    is_strong_exceptional,
    perm,
    sequence_shift,
    sequence_symmetry,
    shift,
    symmetry,
    system_violations,
    window_squares,
)


def _system(degree, text):
    lat = PicardLattice.standard(degree)
    return ToricSystem(lat, parse_divisor_list(lat, text))


SYS13 = census.section13_system()
SYS9_DEG6 = _system(6, paper.TABLE9_SYSTEM_TEXTS[6])


def test_validation_errors():
    lat = PicardLattice.standard(6)
    terms = parse_divisor_list(lat, "L13,E1,L12,E2,L23,E3")
    assert system_violations(lat, terms) == []
    assert system_violations(lat, terms[:-1])  # wrong length
    bad = terms[:-1] + (terms[0],)
    assert any("A_" in p or "sum" in p for p in system_violations(lat, bad))
    with pytest.raises(InputError):
        ToricSystem(lat, bad)


def test_windows():
    A = SYS9_DEG6
    assert A.window(1, 1) == A.terms[0]
    assert A.window(6, 1) == tuple(
        x + y for x, y in zip(A.terms[5], A.terms[0])
    )
    # Three terms of square -1 give a window of square (3 * (-1 + 2)) - 2 = 1.
    assert A.lattice.square(A.window(2, 4)) == 1


def test_perm_shift_symmetry():
    A = SYS13
    squares = A.squares()
    for k in range(1, A.n + 1):
        if squares[k - 1] != -2:
            continue
        B = perm(A, k)
        assert B.squares() == squares
        assert perm(B, k) == A
    assert shift(A).squares() == sequence_shift(squares)
    assert symmetry(A).squares() == sequence_symmetry(squares)
    assert shift(A).terms[-1] == A.terms[0]


def test_json_roundtrip():
    assert from_json(SYS13.to_json()) == SYS13


def test_from_json_rejects_an_overlong_term():
    with pytest.raises(InputError, match="divisor length 9 does not match"):
        from_json({"degree": 3, "terms": [[1, 0, 0, 0, 0, 0, 0, 0, 0]]})


def test_augment_sequence():
    assert augment_sequence((0, 0, 0, 0), 2) == (-1, -1, -1, 0, 0)
    assert augment_sequence((0, 0, 0, 0), 1) == (-1, -1, 0, 0, -1)
    with pytest.raises(InputError):
        augment_sequence((0, 0, 0, 0), 7)


def test_admissibility():
    assert is_admissible((1, 1, 1))
    assert is_admissible((0, 0, 0, 0))
    assert is_admissible((-1, -2, -2, -2, -1, -2, -2, -1, -2, -3))
    assert is_admissible((-2, -2, -1, -2, -2, -1, -2, -2, -1))
    assert not is_admissible((0, 0, 0))
    for a in TABLE_CYCLIC_STRONG.values():
        assert is_admissible(a)


@given(
    st.sampled_from(sorted(TABLE_CYCLIC_STRONG.values())),
    st.integers(0, 8),
    st.booleans(),
)
def test_admissibility_invariance(a, rot, flip):
    b = a
    for _ in range(rot % len(a)):
        b = sequence_shift(b)
    if flip:
        b = sequence_symmetry(b)
    assert is_admissible(b)
    assert canonical_cyclic(b) == canonical_cyclic(a)


def test_classify_sequence():
    kt = classify_sequence((-1, -2, -2, -2, -1, -2, -2, -1, -2, -3))
    assert (kt.kind, kt.type_tag) == ("second", "IIb")
    kt = classify_sequence((0, 0, -1, -1, -1))
    assert kt.kind == "first"
    for name, preset in census.SEQUENCE_PRESETS.items():
        tag = classify_sequence(preset.squares).type_tag
        assert name.startswith(tag), (name, tag)


def test_classify_shifted_sequence():
    # The one entry below -2 is rotated to the end before the match.
    a = shift(SYS13).squares()
    assert a == (-2, -2, -2, -1, -2, -2, -1, -2, -3, -1)
    for seq in (a, sequence_shift(a), sequence_symmetry(SYS13.squares())):
        kt = classify_sequence(seq)
        assert (kt.kind, kt.type_tag) == ("second", "IIb")
    # Two entries below -2: not strong admissible.
    with pytest.raises(InputError, match="not strong admissible"):
        classify_sequence((-7, -2, -1, -3, -1, 5, 0))


def test_enumerate_cyclic_strong():
    rows = list(enumerate_cyclic_strong_admissible())
    assert len(rows) == 15
    assert sum(1 for a in rows if len(a) == 4) == 3
    assert sum(1 for a in rows if len(a) == 9) == 1


def test_ixa_windows():
    assert set(compute_IXA_windows((0, 0, -1, -1, -1))) == {
        (3, 3),
        (4, 4),
        (5, 5),
    }
    assert len(compute_IXA_windows(TABLE_CYCLIC_STRONG["9"])) == 27
    assert len(compute_IXA(SYS13)) == 22


def test_checkers_on_explicit_system():
    s = census.section13_surface()
    assert is_strong_exceptional(s, SYS13).ok
    assert is_exceptional(s, SYS13).ok
    res = is_cyclic_strong_exceptional(s, SYS13)
    assert not res.ok and res.witness is not None


def test_checker_methods_agree_on_samples():
    s = census.section13_surface()
    for A in itertools.islice(weyl.orbit_of_toric_system(SYS13), 25):
        for checker in (is_exceptional, is_strong_exceptional):
            assert (
                checker(s, A, method="reference").ok
                == checker(s, A).ok
            )


def test_checker_methods_are_auto_and_reference():
    s = census.section13_surface()
    for checker in (is_exceptional, is_strong_exceptional, is_cyclic_strong_exceptional):
        for method in ("optimized", "fast", ""):
            with pytest.raises(InputError, match="unknown checker method"):
                checker(s, SYS13, method=method)
    # Outside the optimized checker's hypothesis, "auto" is the reference.
    A = shift(SYS13)
    for checker in (is_exceptional, is_strong_exceptional):
        assert checker(s, A) == checker(s, A, method="reference")
    assert is_exceptional(s, A).ok and not is_strong_exceptional(s, A).ok


def test_cyclic_strong_on_table_systems():
    dp6 = catalog_load(6).get("dP")
    assert is_cyclic_strong_exceptional(dp6, SYS9_DEG6).ok
    s = catalog_load(3).get("3A2")
    A3 = _system(3, paper.TABLE9_SYSTEM_TEXTS[3])
    assert is_cyclic_strong_exceptional(s, A3).ok
    # Cyclic strong exceptionality is preserved by shift and symmetry.
    assert is_cyclic_strong_exceptional(s, shift(A3)).ok
    assert is_cyclic_strong_exceptional(s, symmetry(A3)).ok


def test_elementary_augmentation_and_blow_down():
    dp6 = catalog_load(6).get("dP")
    i = is_elementary_augmentation(dp6, SYS9_DEG6)
    assert i is not None
    s2, A2 = blow_down(dp6, SYS9_DEG6, i)
    assert A2.n == SYS9_DEG6.n - 1
    assert A2.lattice.degree == 7


def test_augmentation_chain():
    dp6 = catalog_load(6).get("dP")
    chain = augmentation_chain(dp6, SYS9_DEG6)
    assert chain is not None and len(chain) == 2
    # The explicit counterexample admits no chain.
    assert augmentation_chain(census.section13_surface(), SYS13) is None


def test_find_system_with_squares():
    lat = PicardLattice.standard(7)
    for key in ("5a", "5b"):
        a = TABLE_CYCLIC_STRONG[key]
        A = find_system_with_squares(lat, a)
        assert A is not None and A.squares() == a


def test_find_system_with_rotated_squares():
    # The entry below -2 need not be last: the squares are rotated to put
    # it last, and the system found is shifted back.
    lat = PicardLattice.standard(2)
    iib = census.IIB_DEG2_SQUARES
    for k in (1, 4, 9):
        squares = iib[-k:] + iib[:-k]
        A = find_system_with_squares(lat, squares)
        assert A is not None and A.squares() == squares
        assert classify_sequence(squares) == classify_sequence(iib)


@pytest.mark.parametrize(
    "degree,longest", [(6, 2), (5, 2), (4, 3), (3, 3), (2, 4), (1, 6)]
)
def test_reduction_word_sends_every_line_to_e_last(degree, longest):
    # Every (-1)-class descends: the word (Cremona reflections, then at
    # most one transposition) sends it to E_last in a bounded number of
    # reflections, including the classes with a positive L-coefficient.
    lat = PicardLattice.standard(degree)
    last = tuple(int(j == lat.rank - 1) for j in range(lat.rank))
    lines = lat.enumerate_classes(-1)
    assert len(lines) == {6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}[degree]
    for d in lines:
        word = _reduction_word(lat, d)
        assert len(word) <= longest, d
        v = d
        for root in word:
            v = reflect(lat, v, root)
        assert v == last, d


def test_blow_down_of_a_line_with_positive_degree():
    # L - E1 - E2 is an irreducible (-1)-curve of the degree-5 del Pezzo
    # surface; contracting it lands on the degree-6 one.
    dp5 = catalog_load(5).get("dP")
    A = find_system_with_squares(dp5.lattice, TABLE_CYCLIC_STRONG["7a"])
    e = parse_divisor(dp5.lattice, "L-E1-E2")
    A = next(B for B in weyl.orbit_of_toric_system(A) if e in B.terms)
    s6, A6 = blow_down(dp5, A, A.terms.index(e) + 1)
    assert A6.lattice.degree == 6 and A6.n == A.n - 1
    assert s6.simple_roots == ()


def test_reduction_word_refuses_p1xp1():
    lat = PicardLattice.standard(7)
    with pytest.raises(InputError, match="P1 x P1"):
        _reduction_word(lat, parse_divisor(lat, "L-E1-E2"))
    assert _reduction_word(lat, parse_divisor(lat, "E1")) == ((0, 1, -1),)


# -- the shared window enumerator against the loops it replaced ------------


def _old_cyclic_windows(n):
    for k in range(1, n + 1):
        for length in range(1, n):
            yield k, (k - 1 + length - 1) % n + 1


def _old_noncyclic_windows(n):
    for k in range(1, n):
        for l in range(k, n):
            yield k, l


def _old_through_n_minimal_windows(sq):
    n = len(sq)
    for back in range(n):
        if any(sq[n - 1 - j] != -2 for j in range(1, back + 1)):
            break
        for fwd in range(n - back):
            if fwd and sq[fwd - 1] != -2:
                break
            if back + 1 + fwd < n:
                yield (n - back, fwd if fwd else n)


def _old_ixa_windows(a):
    n = len(a)
    out = []
    for k in range(1, n + 1):
        for length in range(1, n):
            entries = [a[(k - 1 + i) % n] for i in range(length)]
            if entries.count(-1) == 1 and entries.count(-2) == length - 1:
                out.append((k, (k - 1 + length - 1) % n + 1))
    return tuple(out)


def _old_window_plan(a):
    n = len(a)
    root_rows, root_through, deep = [], [], []
    for k in range(1, n + 1):
        for length in range(1, n):
            pos = [(k - 1 + i) % n for i in range(length)]
            sq = sum(a[p] + 2 for p in pos) - 2
            row = [0] * n
            for p in pos:
                row[p] = 1
            if sq == -2:
                root_rows.append(row)
                root_through.append((n - 1) in pos)
            elif sq <= -3:
                deep.append((tuple(row), (k, (k - 1 + length - 1) % n + 1)))
    ixa_rows = []
    for k, l in _old_ixa_windows(a):
        row = [0] * n
        for i in range((l - k) % n + 1):
            row[(k - 1 + i) % n] = 1
        ixa_rows.append(row)
    return root_rows, root_through, ixa_rows, tuple(deep)


def _old_first_kind_windows_in_range(A):
    n = A.n
    for k in range(1, n + 1):
        for length in range(1, n):
            l = (k - 1 + length - 1) % n + 1
            if not -1 <= A.lattice.square(A.window(k, l)) <= A.lattice.degree - 3:
                return False
    return True


def _old_irreducible_ixa_window(A, irr):
    """The scan of `augmentation_chain`: (k, position of the -1, l)."""
    for k, l in _old_ixa_windows(A.squares()):
        if A.window(k, l) in irr:
            for off in range(A.window_length(k, l)):
                mm = (k - 1 + off) % A.n + 1
                if A.lattice.square(A.term(mm)) == -1:
                    return (k, mm, l)
    return None


def _old_check(s, A, what, method):
    """`toric._check` as it was, on the old loops: (ok, witness)."""
    n = A.n
    sq = A.squares()
    hypothesis = all(x >= -2 for x in (sq if what == "cyclic-strong" else sq[:-1]))
    if method == "reference" or not hypothesis:
        if what == "cyclic-strong":
            windows = _old_cyclic_windows(n)
        else:
            windows = _old_noncyclic_windows(n)
        test = is_lo if what == "exceptional" else is_slo
        for k, l in windows:
            if not test(s, A.window(k, l)):
                return False, (k, l)
        return True, None

    def anti_effective(d):
        return is_effective(s, vneg(d))

    def effective(d):
        return is_effective(s, d)

    if what == "exceptional" and sq[-1] >= -2 or what == "cyclic-strong":
        for k, l in _old_cyclic_windows(n):
            if A.lattice.square(A.window(k, l)) != -2:
                continue
            d = A.window(k, l)
            if anti_effective(d) or (what == "cyclic-strong" and effective(d)):
                return False, (k, l)
        return True, None
    for k, l in _old_noncyclic_windows(n):
        if A.lattice.square(A.window(k, l)) == -2 and anti_effective(A.window(k, l)):
            return False, (k, l)
    if sq[-1] <= -2:
        for k, l in _old_through_n_minimal_windows(sq):
            if anti_effective(A.window(k, l)):
                return False, (k, l)
    if what == "strong":
        for k, l in _old_noncyclic_windows(n):
            if A.lattice.square(A.window(k, l)) == -2 and effective(A.window(k, l)):
                return False, (k, l)
    return True, None


def test_cyclic_windows_match_old_loops(monkeypatch):
    sequences = list(TABLE_CYCLIC_STRONG.values())
    sequences += [p.squares for p in census.SEQUENCE_PRESETS.values()]
    for a in sequences:
        n = len(a)
        windows = list(cyclic_windows(n))
        assert [(k, l) for k, l, _ in windows] == list(_old_cyclic_windows(n))
        for k, l, pos in windows:
            assert pos == tuple((k - 1 + i) % n for i in range((l - k) % n + 1))
        assert [(k, l) for k, l, _ in _noncyclic_windows(n)] == list(
            _old_noncyclic_windows(n)
        )
        assert _through_n_windows(a) == list(_old_through_n_minimal_windows(a))
        assert compute_IXA_windows(a) == _old_ixa_windows(a)
    assert _through_n_windows(census.IIB_DEG2_SQUARES) == [(10, 10), (9, 10)]

    # The census plan: the same rows in the same order, for every preset.
    for preset in census.SEQUENCE_PRESETS.values():
        plan = census._window_plan(preset.squares)
        root_rows, root_through, ixa_rows, deep = _old_window_plan(preset.squares)
        assert plan.root_coeffs.tolist() == root_rows
        assert plan.root_through_n.tolist() == root_through
        assert plan.ixa_coeffs.tolist() == ixa_rows
        assert plan.deep_coeffs.tolist() == [list(row) for row, _ in deep]

    # The classification suite's window checks, degree-5 search left out.
    monkeypatch.setattr(paper, "verify_degree5_negative", lambda: Report("skipped"))
    lines = {
        line.label: line.computed
        for line in paper.verify_cyclic_strong_classification().lines
    }
    lat8 = PicardLattice.standard(8)
    lat9 = PicardLattice.standard(9)
    hz = PicardLattice.hirzebruch()
    for label, A in (
        ("P2", ToricSystem(lat9, parse_divisor_list(lat9, "L,L,L"))),
        ("F0/F2", ToricSystem(hz, ((1, 0), (0, 1), (1, 0), (0, 1)))),
        ("F1", ToricSystem(lat8, parse_divisor_list(lat8, "L1,E1,L1,L"))),
    ):
        computed = lines[f"{label} system window r-values all in [-1, d-3]"]
        assert computed is _old_first_kind_windows_in_range(A) is True
    for degree in (5, 4, 3):
        A = _system(degree, paper.TABLE9_SYSTEM_TEXTS[degree])
        assert lines[f"degree {degree} cyclic (-2)-windows"] == {
            A.window(k, l)
            for k, l in _old_cyclic_windows(A.n)
            if A.lattice.square(A.window(k, l)) == -2
        }

    # The checkers' verdicts and witnesses, and the augmentation scan, on
    # the first two IIb orbit layers on every degree-2 surface.
    A0 = census.SEQUENCE_PRESETS["IIb-deg2"].initial_system()
    systems = [
        ToricSystem(A0.lattice, tuple(tuple(int(x) for x in t) for t in row))
        for layer in weyl.orbit_layers(A0.lattice, A0.terms, max_layers=1)
        for row in layer.payload
    ]
    assert len(systems) == 8
    checkers = {
        "exceptional": is_exceptional,
        "strong": is_strong_exceptional,
        "cyclic-strong": is_cyclic_strong_exceptional,
    }
    witnesses = set()
    scans = 0
    contractions = []
    blow_down = toric.blow_down
    monkeypatch.setattr(
        toric,
        "blow_down",
        lambda s, A, i: contractions.append((A, i)) or blow_down(s, A, i),
    )
    for s in catalog_load(2).entries:
        irr = s.irr_lines_set()
        for A in systems:
            for what, checker in checkers.items():
                for method in ("auto", "reference"):
                    result = checker(s, A, method=method)
                    assert (result.ok, result.witness) == _old_check(s, A, what, method)
                    witnesses.add(result.witness)
            if is_elementary_augmentation(s, A) is not None:
                continue
            found = _old_irreducible_ixa_window(A, irr)
            contractions.clear()
            chain = augmentation_chain(s, A)
            if found is None:
                assert chain is None and not contractions
                continue
            B = bring_window_to_term(A, *found)
            assert contractions[0] == (B, is_elementary_augmentation(s, B))
            scans += 1
    assert None in witnesses and len(witnesses) > 2
    assert scans


def test_window_squares_match_the_window_sums():
    systems = [p.initial_system() for p in census.SEQUENCE_PRESETS.values()]
    systems += [_system(d, text) for d, text in paper.TABLE9_SYSTEM_TEXTS.items()]
    for A in systems:
        assert window_squares(A.squares()) == tuple(
            A.lattice.square(A.window(k, l)) for k, l, _ in cyclic_windows(A.n)
        )


def test_augmentation_chain_ends_on_p1xp1():
    # On X_{7,A1} the only irreducible (-1)-curve among these terms is
    # A_4 = L - E1 - E2, whose contraction is P1 x P1: a complete chain.
    s = catalog_load(7).get("A1")
    A = _system(7, "L2,L1,E1,L12,E2")
    assert is_elementary_augmentation(s, A) == 4
    [step] = augmentation_chain(s, A)
    assert (step.index, step.contracted) == (4, A.term(4))
    assert step.surface.endswith("onto P1xP1")
    with pytest.raises(InputError, match="P1 x P1"):
        blow_down(s, A, 4)
