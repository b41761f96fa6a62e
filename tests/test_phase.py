"""Resonance phase values, the lower bound, and the support semigroup."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline_dnls import (PhaseTuple, certify_phase_bound, phase,
                           phase_lower_bound, resonance_phase,
                           support_semigroup)


def test_phase_alpha2_pair():
    assert resonance_phase(2, (1, 1)) == -2
    assert phase_lower_bound(2, (1, 1)) == 1


def test_phase_alpha3_pair():
    # -(2+1)^3 + 8 + 1
    assert resonance_phase(3, (2, 1)) == -18
    assert phase_lower_bound(3, (2, 1)) == 8


def test_phase_is_exact_integer_for_integer_alpha():
    val = resonance_phase(4, (100, 200, 300))
    assert isinstance(val, int)
    assert val == -(600**4) + 100**4 + 200**4 + 300**4


tuples = st.lists(st.integers(1, 30), min_size=2, max_size=5)


@settings(max_examples=100, deadline=None)
@given(tuples)
def test_phase_alpha2_algebraic_identity(idx):
    # Phi = -2 sum_{i<j} n_i n_j at alpha = 2
    direct = resonance_phase(2, idx)
    pairs = -2 * sum(a * b for a, b in itertools.combinations(idx, 2))
    assert direct == pairs


@settings(max_examples=60, deadline=None)
@given(tuples, st.randoms(use_true_random=False))
def test_phase_permutation_symmetric(idx, rnd):
    shuffled = list(idx)
    rnd.shuffle(shuffled)
    assert resonance_phase(3, idx) == resonance_phase(3, shuffled)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4]), tuples)
def test_phase_nonzero_and_bounded_below(alpha, idx):
    pt = PhaseTuple.build(alpha, idx)
    assert pt.phi != 0
    assert abs(pt.phi) >= pt.bound


def test_bound_vanishes_at_alpha_one():
    assert phase_lower_bound(1, (7, 5, 2)) == 0


def test_second_largest_with_ties():
    # (5,5): largest 5, second largest also 5, so (2-1) * 5^1 * 5
    assert phase_lower_bound(2, (5, 5)) == 25
    assert abs(resonance_phase(2, (5, 5))) >= 25


@pytest.mark.parametrize("alpha,k,cap", [(2, 1, 50), (4, 2, 20), (3, 3, 12)])
def test_certify_examples(alpha, k, cap):
    cert = certify_phase_bound(alpha, k, cap)
    assert cert.passed
    assert cert.counterexample is None
    assert cert.tuples_checked > 0


def test_certify_float_alpha_with_slack():
    cert = certify_phase_bound(2.5, 1, 15)
    assert cert.passed


def test_certify_counterexample_detection():
    # alpha = 1 gives bound 0 which every tuple meets; a synthetic violation
    # needs alpha < 1, which the bound rejects -- instead check that the
    # exhaustive scan really evaluates sorted representatives only.
    cert = certify_phase_bound(2, 1, 6)
    # multisets of size 2 with entries <= 6
    assert cert.tuples_checked == 21


def certify_oracle(alpha, k, cap):
    """The scalar scan: one PhaseTuple per nonincreasing tuple, in the
    certificate's order; returns (passed, tuples_checked, counterexample)."""
    checked = 0
    for lead in range(1, cap + 1):
        for rest in itertools.combinations_with_replacement(
                range(lead, 0, -1), k):
            checked += 1
            t = (lead, *rest)
            if not PhaseTuple.build(alpha, t).satisfies_bound():
                return False, checked, t
    return True, checked, None


def per_tuple_oracle(alpha, k, cap):
    """The per-tuple array scan the tail table replaced: every (k+1)-tuple
    of a chunk of leading indices built as a row and raised to the power
    alpha entry by entry, in the certificate's dtype; returns (passed,
    tuples_checked, counterexample)."""
    base = (k + 1) * cap
    if not float(alpha).is_integer():
        dtype = float
    else:
        a = int(alpha)
        dtype = np.int64 if a < 63 and base ** a < 2**63 else object
    checked = 0
    for leads in phase._lead_chunks(k, cap):
        t = phase._nonincreasing_tuples(leads, k).astype(dtype, copy=False)
        if dtype is not float:
            phi = -(t.sum(axis=1) ** a) + (t ** a).sum(axis=1)
            ok = np.abs(phi) >= (a - 1) * t[:, 0] ** (a - 1) * t[:, 1]
        else:
            af = float(alpha)
            phi = -np.power(t.sum(axis=1), af) + np.power(t, af).sum(axis=1)
            bound = (af - 1.0) * np.power(t[:, 0], af - 1.0) * t[:, 1]
            ok = np.abs(phi) >= bound * (1.0 - phase.FLOAT_ALPHA_SLACK)
        bad = np.flatnonzero(~ok)
        if bad.size:
            return (False, checked + int(bad[0]) + 1,
                    tuple(int(n) for n in t[bad[0]]))
        checked += len(t)
    return True, checked, None


@pytest.mark.parametrize("alpha,k,cap,python_ints", [
    (2, 3, 30, False), (4, 2, 30, False), (9, 3, 30, False),
    (13, 2, 40, True), (20, 3, 10, True),
    (1, 2, 12, False), (2.5, 2, 20, False), (3.7, 1, 40, False),
])
def test_certify_matches_scalar_oracle(alpha, k, cap, python_ints):
    # integer alpha with ((k+1) cap)^alpha >= 2^63 is checked in Python ints
    assert (((k + 1) * cap) ** alpha >= 2**63) == python_ints
    cert = certify_phase_bound(alpha, k, cap)
    assert (cert.passed, cert.tuples_checked, cert.counterexample) == \
        certify_oracle(alpha, k, cap)
    assert cert.tuples_checked == math.comb(cap + k, k + 1)


# int64, Python ints (((k+1) cap)^alpha >= 2^63) and floats, k = 1 to 4
@pytest.mark.parametrize("alpha", [1, 2, 4, 9, 13, 20, 1.5, 2.5, 3.7])
@pytest.mark.parametrize("k,cap", [
    (1, 1), (1, 40), (2, 17), (2, 40), (3, 30), (3, 40), (4, 1), (4, 21),
])
def test_certify_matches_per_tuple_oracle(alpha, k, cap):
    cert = certify_phase_bound(alpha, k, cap)
    got = (cert.passed, cert.tuples_checked, cert.counterexample)
    assert got == per_tuple_oracle(alpha, k, cap)
    assert got == (True, math.comb(cap + k, k + 1), None)


# (2.5, 1, 6): (1, 1) and (2, 2) pass, (2, 1) is the third tuple scanned;
# (3, 3, 1, 1) sits inside its leading-index block, (2, 1) and (3, 1, 1) end it
@pytest.mark.parametrize("alpha,k,cap,slack,checked,counterexample", [
    (2.5, 1, 6, -1.2, 3, (2, 1)),
    (3.5, 2, 9, -5.0, 10, (3, 1, 1)),
    (2.2, 3, 7, -6.0, 11, (3, 3, 1, 1)),
])
def test_certify_stops_at_first_counterexample(monkeypatch, alpha, k, cap,
                                               slack, checked,
                                               counterexample):
    # a negative slack demands |Phi| >= (1 - slack) bound, which some tuples
    # early in the scan violate
    monkeypatch.setattr(phase, "FLOAT_ALPHA_SLACK", slack)
    cert = certify_phase_bound(alpha, k, cap)
    assert (cert.passed, cert.tuples_checked, cert.counterexample) == \
        (False, checked, counterexample) == certify_oracle(alpha, k, cap) \
        == per_tuple_oracle(alpha, k, cap)
    assert cert.to_dict()["counterexample"] == list(counterexample)


# k=3, cap=20 scans leads in the chunks 1-12 (1365 tuples), 13-14, 15-16,
# 17, 18, 19, 20; both violations sit in the second block of a later chunk,
# so tuples_checked adds the rows of every earlier chunk
@pytest.mark.parametrize("alpha,slack,checked,counterexample", [
    (2.2, -1.8, 1925, (14, 14, 1, 1)),
    (3.3, -2.2, 3856, (16, 5, 1, 1)),
])
def test_certify_counts_across_chunks(monkeypatch, alpha, slack, checked,
                                      counterexample):
    monkeypatch.setattr(phase, "FLOAT_ALPHA_SLACK", slack)
    cert = certify_phase_bound(alpha, 3, 20)
    assert (cert.passed, cert.tuples_checked, cert.counterexample) == \
        (False, checked, counterexample) == certify_oracle(alpha, 3, 20) \
        == per_tuple_oracle(alpha, 3, 20)
    assert checked > math.comb(12 + 3, 4)


def comprehension_rows(leads, k):
    """The tuples as the scalar scan enumerates them, block after block."""
    return [(lead, *rest) for lead in leads for rest in
            itertools.combinations_with_replacement(range(lead, 0, -1), k)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tuple_generator_matches_comprehension(k):
    for lead in range(1, 31):
        rows = phase._nonincreasing_tuples([lead], k)
        assert rows.dtype == np.int64
        assert [tuple(r) for r in rows.tolist()] == \
            comprehension_rows([lead], k)
    leads = list(range(1, 31))
    rows = phase._nonincreasing_tuples(np.array(leads), k)
    assert rows.shape == (math.comb(30 + k, k + 1), k + 1)
    assert [tuple(r) for r in rows.tolist()] == comprehension_rows(leads, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tail_table_suffixes_are_the_blocks_of_each_lead(k):
    cap = 30
    table = phase._TailTable.build(2, k, cap, np.int64)
    tails = [tuple(r) for r in table.tails.tolist()]
    assert tails == list(itertools.combinations_with_replacement(
        range(cap, 0, -1), k))
    assert table.sums.tolist() == [sum(r) for r in tails]
    assert table.power_sums.tolist() == [sum(n**2 for n in r) for r in tails]
    assert table.firsts.tolist() == [r[0] for r in tails]
    for lead in range(1, cap + 1):
        assert table.suffix[lead] == math.comb(lead + k - 1, k)
        assert tails[len(tails) - table.suffix[lead]:] == list(
            itertools.combinations_with_replacement(range(lead, 0, -1), k))


@pytest.mark.parametrize("alpha,k,cap", [
    (2, 1, 300), (3, 2, 40), (4, 3, 30), (2.5, 4, 12), (20, 3, 10), (2, 5, 1),
])
def test_no_chunk_exceeds_the_largest_block(monkeypatch, alpha, k, cap):
    chunks = []
    tables = []
    check = phase._check_chunk

    def spy(table, leads):
        chunks.append([int(lead) for lead in leads])
        tables.append(table)
        return check(table, leads)

    monkeypatch.setattr(phase, "_check_chunk", spy)
    cert = certify_phase_bound(alpha, k, cap)
    assert cert.passed
    # consecutive leading indices, each once, every chunk within one block
    assert [lead for chunk in chunks for lead in chunk] == \
        list(range(1, cap + 1))
    sizes = [sum(math.comb(lead + k - 1, k) for lead in chunk)
             for chunk in chunks]
    largest = math.comb(cap + k - 1, k)
    assert max(sizes) <= largest
    assert sum(sizes) == cert.tuples_checked == math.comb(cap + k, k + 1)
    # one table per certificate, whose per-tail arrays hold one row per
    # tail, as many as the largest block; the power table has (k+1) cap + 1
    assert all(table is tables[0] for table in tables)
    table = tables[0]
    for rows in (table.tails, table.sums, table.power_sums, table.firsts):
        assert len(rows) == largest
    assert len(table.powers) == (k + 1) * cap + 1
    assert len(table.bound_factors) == len(table.suffix) == cap + 1


@pytest.mark.parametrize("alpha,k,cap", [
    (3, 2, 300), (2.5, 2, 300), (4, 3, 60), (2, 1, 3000),
])
def test_certificate_memory_stays_within_a_few_tail_tables(alpha, k, cap):
    # every array the certificate allocates holds at most C(cap+k-1, k)
    # rows, so its peak is a few dozen int64s per tail; a block of all
    # C(cap+k, k+1) tuples would take 63 to 3001 times one tail table
    largest = math.comb(cap + k - 1, k)
    tracemalloc.start()
    try:
        cert = certify_phase_bound(alpha, k, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.tuples_checked == math.comb(cap + k, k + 1)
    assert peak <= 24 * 8 * largest


@pytest.mark.parametrize("alpha,k,cap,dtype", [
    (62, 1, 1, np.int64), (63, 1, 1, object), (13, 2, 40, object),
    (10**6, 1, 3, object), (3 * 10**6, 1, 3, None), (10**100, 2, 5, None),
])
def test_certify_limits_the_exact_term_bits(monkeypatch, alpha, k, cap,
                                            dtype):
    # the limit is read from bit lengths, and the int64 test powers only
    # for alpha < 63, so neither builds a term of the largest size
    dtypes = []
    monkeypatch.setattr(phase._TailTable, "build", classmethod(
        lambda cls, alpha, k, cap, dtype: dtypes.append(dtype)))
    monkeypatch.setattr(phase, "_check_chunk", lambda table, leads: (1, None))
    bits = alpha * ((k + 1) * cap).bit_length()
    if dtype is None:
        assert bits > phase.MAX_EXACT_BITS
        with pytest.raises(ValueError, match=f"about {bits} bits"):
            certify_phase_bound(alpha, k, cap)
        assert dtypes == []
    else:
        assert certify_phase_bound(alpha, k, cap).passed
        assert dtypes == [dtype]


@pytest.mark.parametrize("k,cap,name", [
    (2.0, 10, "k"), (1, 10.0, "index_cap"), ("2", 10, "k"),
    (1, float("nan"), "index_cap"),
])
def test_certify_refuses_a_non_integer_k_or_cap(k, cap, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        certify_phase_bound(2, k, cap)


def test_certify_takes_numpy_integers():
    cert = certify_phase_bound(2, np.int64(2), np.int64(10))
    assert (cert.k, cert.index_cap, cert.tuples_checked) == (2, 10, 220)
    assert cert.to_dict() == certify_phase_bound(2, 2, 10).to_dict()


def test_certify_rejects_alpha_below_one():
    with pytest.raises(ValueError, match="alpha >= 1"):
        certify_phase_bound(0.5, 1, 4)


# -- support semigroup --------------------------------------------------------

def test_semigroup_carrier_multiples():
    got = support_semigroup({0, 5}, 23)
    assert got == {0, 5, 10, 15, 20}


def test_semigroup_empty_generators():
    assert support_semigroup(set(), 10) == set()


def test_semigroup_two_three():
    assert support_semigroup({2, 3}, 10) == {2, 3, 4, 5, 6, 7, 8, 9, 10}


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 12), max_size=4), st.integers(0, 40))
def test_semigroup_closed_under_addition(gens, cap):
    sg = support_semigroup(gens, cap)
    for a in sg:
        for b in sg:
            if a + b <= cap:
                assert a + b in sg
    # generators themselves are reachable (one-term sums)
    for g in gens:
        if g <= cap:
            assert g in sg


def test_semigroup_brute_force_oracle():
    # all sums of at most 6 generators, independently enumerated
    gens, cap = {3, 7}, 30
    reachable = set()
    for terms in range(1, 11):
        for combo in itertools.combinations_with_replacement(sorted(gens), terms):
            if sum(combo) <= cap:
                reachable.add(sum(combo))
    assert support_semigroup(gens, cap) == reachable
