import numpy as np
import pytest

from xxzent.errors import DomainError
from xxzent.model import (ModelParams, crossing_fields, level_energy,
                          log_multiplicity, log_multiplicity_span,
                          multiplicity, two_s_range)

from oracles.closed_forms import log_multiplicities, spectrum_table


def test_level_energy_n2():
    # oracle: full 4x4 diagonalization gives -1/2 (triplet M=0) and +1/2 (singlet)
    p = ModelParams(n=2, v=1.0, gamma=1.0, b=0.0, T=0.1)
    assert level_energy(p, 1, 0) == pytest.approx(-0.5, abs=1e-15)
    assert level_energy(p, 0, 0) == pytest.approx(+0.5, abs=1e-15)


def test_level_energy_refuses_a_spin_that_is_not_half_integer():
    with pytest.raises(DomainError,
                       match=r"^S = 0\.3 is not integer or half-integer$"):
        level_energy(ModelParams(n=4), 0.3, 0)


def test_level_energy_field_symmetry_at_b0():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        p = ModelParams(n=n, v=float(rng.uniform(0.2, 3)),
                        gamma=float(rng.uniform(-1, 1)), b=0.0, T=0.1)
        for two_S in two_s_range(n):
            for two_M in range(two_S % 2, two_S + 1, 2):
                e1 = level_energy(p, two_S / 2, two_M / 2)
                e2 = level_energy(p, two_S / 2, -two_M / 2)
                assert e1 == pytest.approx(e2, rel=1e-14)


def test_level_energy_rejects_bad_quantum_numbers():
    p = ModelParams(n=4, v=1.0, b=0.1, T=0.1)
    with pytest.raises(DomainError):
        level_energy(p, 3, 0)          # S > n/2
    with pytest.raises(DomainError):
        level_energy(p, 1.5, 0.5)      # wrong parity for even n
    with pytest.raises(DomainError):
        level_energy(p, 1, 2)          # |M| > S


def test_multiplicity_small_n():
    assert [multiplicity(4, s) for s in (2, 1, 0)] == [1, 3, 2]
    assert [multiplicity(3, s) for s in (1.5, 0.5)] == [1, 2]


def test_multiplicity_top_sector_is_one():
    for n in (2, 3, 10, 51, 64, 200):
        assert multiplicity(n, n / 2) == 1


def test_degeneracy_sum_rule_exact():
    # exact integers, so the rule holds with no tolerance at all
    for n in list(range(2, 33)) + [48, 64]:
        total = sum(multiplicity(n, two_S / 2) * (two_S + 1)
                    for two_S in two_s_range(n))
        assert total == 2 ** n


def test_log_multiplicity_matches_exact_integers():
    from math import log
    for n in (5, 20, 61, 200):
        for two_S in two_s_range(n):
            y = multiplicity(n, two_S / 2)   # exact big integer
            assert log_multiplicity(n, two_S) == pytest.approx(log(y),
                                                               rel=1e-12)


def test_log_multiplicity_large_n_no_overflow():
    val = log_multiplicity(10000, 10000 % 2)
    assert np.isfinite(val) and val > 6000   # ~ n ln 2 at S ~ 0


@pytest.mark.parametrize("n, two_S", [(4, 3), (5, 2), (4, -2), (4, 6)])
def test_invalid_spin_raises_domain_error(n, two_S):
    # 2S must have the parity of n and lie in [n mod 2, n], for the log
    # degeneracy as for the degeneracy and the level energy
    with pytest.raises(DomainError):
        log_multiplicity(n, two_S)
    with pytest.raises(DomainError):
        multiplicity(n, two_S / 2)
    with pytest.raises(DomainError):
        level_energy(ModelParams(n=n), two_S / 2, 0)


def test_log_multiplicities_bit_identical():
    # the array routes must reproduce the scalar one exactly, not just
    # closely: the exact tier's certified bracket is built from these
    # values. The span maps any run of sectors; the full table (the test
    # oracle of the full scan) all of them
    for n in (2, 3, 20, 21, 8810, 100_001):
        ref = [log_multiplicity(n, two_S) for two_S in two_s_range(n)]
        assert log_multiplicities(n).tolist() == ref, n
        assert log_multiplicity_span(n, 0, len(ref)).tolist() == ref, n
        for start, stop in ((0, 1), (len(ref) - 1, len(ref)),
                            (len(ref) // 3, len(ref) // 2), (5, 5)):
            got = log_multiplicity_span(n, start, stop)
            assert got.shape == (max(stop - start, 0),)
            assert got.tolist() == ref[start:stop], (n, start, stop)


def test_crossing_fields_n20():
    cf = crossing_fields(ModelParams(n=20, v=1.0, gamma=1.0))
    assert cf.b_c == pytest.approx(0.95, abs=1e-15)
    assert not cf.aligned
    assert len(cf.fields) == 20
    pos = [b for b in cf.fields if b > 0]
    assert len(pos) == 10
    assert pos[-1] == pytest.approx(cf.b_c)
    assert list(cf.fields) == sorted(cf.fields)


def test_crossing_fields_n2():
    cf = crossing_fields(ModelParams(n=2, v=1.0, gamma=1.0))
    assert cf.b_c == pytest.approx(0.5)
    assert set(np.round(cf.fields, 12)) == {-0.5, 0.5}


def test_crossing_fields_gamma_nonpositive():
    cf = crossing_fields(ModelParams(n=10, v=1.0, gamma=-0.5))
    assert cf.aligned and cf.fields == ()


def test_ground_state_piecewise_constant_between_crossings():
    # between consecutive b_M the argmin over M of E_{n/2, M} must not move
    p0 = ModelParams(n=12, v=1.0, gamma=0.8)
    cf = crossing_fields(p0)
    pos = [b for b in cf.fields if b > 0]
    edges = [0.0] + pos
    for lo, hi in zip(edges[:-1], edges[1:]):
        winners = set()
        for b in np.linspace(lo + 1e-6, hi - 1e-6, 7):
            p = p0.replace(b=float(b))
            levels = [(level_energy(p, 6, two_M / 2), two_M)
                      for two_M in range(-12, 13, 2)]
            winners.add(min(levels)[1])
        assert len(winners) == 1


def test_intensive_scaling():
    # E_SM / n at fixed (s = S/n, m = M/n) changes by O(1/n) under n -> 2n
    for n in (8, 16, 32):
        p1 = ModelParams(n=n, v=1.3, gamma=0.6, b=0.4)
        p2 = ModelParams(n=2 * n, v=1.3, gamma=0.6, b=0.4)
        for (s_num, s_den) in ((1, 2), (1, 4)):
            two_S1 = (n * s_num // s_den) * 2
            two_S2 = 2 * two_S1
            e1 = level_energy(p1, two_S1 / 2, two_S1 / 4) / n
            e2 = level_energy(p2, two_S2 / 2, two_S2 / 4) / (2 * n)
            assert abs(e1 - e2) < 3.0 / n


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(n=1)
    with pytest.raises(DomainError):
        ModelParams(n=4, v=-1.0)
    with pytest.raises(DomainError):
        ModelParams(n=4, gamma=1.2)
    with pytest.raises(DomainError):
        ModelParams(n=4, T=-0.1)
    nan, inf = float("nan"), float("inf")
    for bad in (dict(b=nan), dict(b=-inf), dict(T=nan), dict(T=inf),
                dict(gamma=nan), dict(gamma=-inf), dict(v=inf),
                dict(T=1e-310), dict(T=5e-324)):      # 1/T overflows
        with pytest.raises(DomainError):
            ModelParams(n=4, **bad)
        with pytest.raises(DomainError):
            ModelParams(n=4, T=0.1).replace(**bad)
    assert ModelParams(n=4, T=1e-308).beta == 1e308


@pytest.mark.parametrize("n, shown", [
    (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"),
    (2.5, "2.5"), ("4", "4"), (1, "1")])
def test_n_is_refused_unless_an_integer_of_at_least_2(n, shown):
    # int() of nan and inf raised a raw ValueError and OverflowError; a
    # string n stays a DomainError, not a TypeError from n < 2
    for build in (lambda: ModelParams(n=n),
                  lambda: ModelParams(n=4, T=0.1).replace(n=n)):
        with pytest.raises(DomainError) as err:
            build()
        assert str(err.value) == f"n must be an integer >= 2, got {shown}"
    assert type(ModelParams(n=4.0).n) is int


def test_beta_is_undefined_at_t_0():
    with pytest.raises(DomainError, match=r"^beta undefined at T = 0$"):
        ModelParams(n=4).beta


def test_replace_is_dataclasses_replace():
    # replace builds through the class: the same value and the same checks
    # as dataclasses.replace, a non-finite b and an unknown field included
    import dataclasses
    p = ModelParams(n=20, v=1.5, gamma=0.5, b=0.3, T=0.2)
    for kw in ({}, dict(T=0.7), dict(b=-1.0, gamma=-1.0), dict(n=8.0)):
        q = p.replace(**kw)
        assert q == dataclasses.replace(p, **kw)
        assert type(q.n) is int and q.__dict__ == dataclasses.replace(
            p, **kw).__dict__
    assert p == ModelParams(n=20, v=1.5, gamma=0.5, b=0.3, T=0.2)
    for b in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match="b must be finite"):
            p.replace(b=b)
    with pytest.raises(TypeError):
        p.replace(field=1.0)


def test_spectrum_table_rows():
    p = ModelParams(n=4, v=1.0, gamma=1.0, b=0.1)
    rows = spectrum_table(p)
    assert len(rows) == sum(two_S + 1 for two_S in two_s_range(4))
    assert {r.multiplicity for r in rows if r.S == 2.0} == {1}
