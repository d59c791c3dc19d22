"""Area integral operators and the similarity factor.

The closed-form monomial tables behind teodorescu_poly() and schwarz_pompeiu_poly() are
certified against their singularity-centered quadrature oracles here; the full
m,k sweep of the teodorescu table lives in the acceptance suite.  The dict
reference in oracles.py pins the tables' coefficients and the monomial sum
bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from conftest import interior_points, random_bivar, term_lists
from metadisk.disk import PolarGrid
from metadisk.integral import (PolyAnalytic, schwarz_pompeiu_poly,
                               similarity_factor, teodorescu_poly)
from oracles import (dict_eval, dict_schwarz_pompeiu, dict_similarity,
                     dict_teodorescu, dict_terms,
                     schwarz_pompeiu_quadrature_oracle,
                     teodorescu_quadrature_oracle, wirtinger_dbar)

RNG = np.random.default_rng(42)
POINTS = interior_points(RNG, 6, r_max=0.8)


small_coeff = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                 allow_infinity=False)


@st.composite
def bivar_polys(draw):
    n_terms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n_terms):
        m = draw(st.integers(0, 3))
        k = draw(st.integers(0, 3))
        terms[(m, k)] = draw(small_coeff)
    return PolyAnalytic.from_terms(terms)


@given(bivar_polys(), bivar_polys())
def test_dbar_product_rule(f, g):
    lhs = (f * g).dbar()
    rhs = f.dbar() * g + f * g.dbar()
    assert (lhs + rhs.scale(-1.0)).max_coeff() < 1e-9 * max(
        1.0, f.max_coeff() * g.max_coeff())


@given(bivar_polys())
def test_conjugation_swaps_exponents(f):
    # conj(c z^m zbar^k) = conj(c) z^k zbar^m: c[k, m] becomes conj(c)[m, k]
    conjugate = PolyAnalytic(f.c.T.conj())
    assert np.array_equal(conjugate.c.T.conj(), f.c)
    z = 0.3 + 0.4j
    assert conjugate(z) == pytest.approx(np.conjugate(f(z)))


def test_bivar_eval_vectorized():
    f = PolyAnalytic.from_terms({(1, 0): 2.0, (0, 2): 1j})
    z = np.array([0.1, 0.2 + 0.3j])
    expect = 2.0 * z + 1j * np.conjugate(z) ** 2
    assert np.allclose(f(z), expect)
    assert np.allclose(f.monomial_sum(z), expect)


def test_from_terms_adds_repeated_keys_in_input_order():
    f = PolyAnalytic.from_terms([((1, 0), 1.0), ((0, 2), complex(-0.0, 1.0)),
                                 ((1, 0), 1e-16), ((1, 0), -1.0)])
    assert f.coefficient(1, 0) == 0j  # (1 + 1e-16) - 1, not (1 - 1) + 1e-16
    reordered = PolyAnalytic.from_terms([((1, 0), 1.0), ((1, 0), -1.0),
                                         ((1, 0), 1e-16)])
    assert reordered.coefficient(1, 0) == 1e-16
    assert str(f.coefficient(0, 2)) == "1j"  # -0.0 + 0.0 is 0.0
    assert f.coefficient(5, 5) == f.coefficient(-1, 0) == 0j
    assert PolyAnalytic.from_terms({}).is_zero
    with pytest.raises(ValueError):
        PolyAnalytic.from_terms({(0, -1): 1.0})


def _terms(poly):
    m, k, c = poly.sorted_terms()
    return dict(zip(zip(m.tolist(), k.tolist()), c.tolist()))


def _hex(terms):
    return [(mk, c.real.hex(), c.imag.hex()) for mk, c in sorted(terms.items())]


def _bits(values):
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


@given(term_lists())
def test_tables_and_factors_match_dict_reference(pairs):
    f = PolyAnalytic.from_terms(pairs)
    terms = dict_terms(pairs)
    assert _hex(_terms(f)) == _hex(terms)
    assert _hex(_terms(teodorescu_poly(f))) == _hex(dict_teodorescu(terms))
    assert (_hex(_terms(schwarz_pompeiu_poly(f)))
            == _hex(dict_schwarz_pompeiu(terms)))
    for kind in ("cauchy", "schwarz"):
        assert (_hex(_terms(similarity_factor(f, kind)))
                == _hex(dict_similarity(terms, kind)))


CLI_MESH = PolarGrid.mesh(32, 64).points()
GRID_IO_MESH = PolarGrid.mesh(256, 512).points()


@given(term_lists())
def test_monomial_sum_matches_dict_reference(pairs):
    # both tables on the meshes transform.csv is written on in the tests and
    # the benchmark; both factors on the mesh solve samples e^s on
    f = PolyAnalytic.from_terms(pairs)
    terms = dict_terms(pairs)
    tables = [(teodorescu_poly(f).monomial_sum, dict_teodorescu(terms)),
              (schwarz_pompeiu_poly(f).monomial_sum,
               dict_schwarz_pompeiu(terms))]
    factors = [(similarity_factor(f, kind).monomial_sum,
                dict_similarity(terms, kind))
               for kind in ("cauchy", "schwarz")]
    for cases, meshes in ((tables, (CLI_MESH, GRID_IO_MESH, 0.3 - 0.2j)),
                          (factors, (CLI_MESH, 0.3 - 0.2j))):
        for evaluate, reference in cases:
            for z in meshes:
                got, want = evaluate(z), dict_eval(reference, z)
                assert type(got) is type(want)
                assert np.array_equal(_bits(got), _bits(want))


def test_monomial_sum_keeps_only_the_powers_of_conj_z_it_uses():
    # one term conj(z)^2000 on 256 points: a table of every power up to
    # 2000 would hold about 2000 arrays of the points' size at once
    z = PolarGrid.mesh(4, 64).points()
    f = PolyAnalytic.from_terms({(0, 2000): 1.0})
    tracemalloc.start()
    try:
        f.monomial_sum(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * z.nbytes, peak


def test_teodorescu_base_cases():
    one = PolyAnalytic.constant(1.0)
    zeta = PolyAnalytic.from_terms({(1, 0): 1.0})
    for z in POINTS:
        assert teodorescu_poly(one)(z) == pytest.approx(np.conjugate(z))
        assert teodorescu_poly(zeta)(z) == pytest.approx(z * np.conjugate(z) - 1.0)
    assert teodorescu_poly(PolyAnalytic.zero()).is_zero


def test_teodorescu_solves_dbar_equation():
    rng = np.random.default_rng(5)
    for _ in range(3):
        f = random_bivar(rng, 3, scale=0.5)
        g = teodorescu_poly(f)
        assert (g.dbar() + f.scale(-1.0)).max_coeff() < 1e-12
        for z in POINTS[:3]:
            assert abs(wirtinger_dbar(g, z) - f(z)) < 1e-5


def test_oracle_certifies_table_entries():
    # spot entries from both branches of the table; acceptance sweeps all
    cases = [(0, 0), (1, 0), (0, 2), (2, 1), (1, 3)]
    for m, k in cases:
        f = PolyAnalytic.from_terms({(m, k): 1.0})
        for z in (0.4j, 0.3 - 0.45j):
            want = teodorescu_poly(f)(z)
            got = teodorescu_quadrature_oracle(f, z)
            assert abs(got - want) < 1e-5, (m, k, z)


def test_oracle_trivial_cases():
    one = PolyAnalytic.constant(1.0)
    assert teodorescu_quadrature_oracle(one, 0.4j) == pytest.approx(-0.4j, abs=1e-5)
    assert teodorescu_quadrature_oracle(PolyAnalytic.zero(), 0.2) == pytest.approx(0.0, abs=1e-12)


def test_schwarz_pompeiu_contract():
    oracle = schwarz_pompeiu_quadrature_oracle
    zero = PolyAnalytic.zero()
    assert oracle(zero, 0.3 + 0.1j) == 0
    one = PolyAnalytic.constant(1.0)
    at_zero = oracle(one, 0j)
    assert abs(at_zero.imag) < 1e-6
    # for constant input the operator returns zbar - z
    z = 0.4 + 0.2j
    assert oracle(one, z) == pytest.approx(np.conjugate(z) - z, abs=1e-6)


def test_schwarz_minus_teodorescu_is_holomorphic():
    f = PolyAnalytic.constant(1.0)
    diff = lambda z: schwarz_pompeiu_quadrature_oracle(f, z) - teodorescu_poly(f)(z)
    assert abs(wirtinger_dbar(diff, 0.5 + 0j, h=1e-3)) < 1e-5


def test_schwarz_pompeiu_table_vs_oracle():
    # every monomial up to bidegree (4, 4) with a random complex coefficient;
    # the table is not complex-linear, so real coefficients would miss terms
    rng = np.random.default_rng(211)
    points = interior_points(rng, 3, r_max=0.8)
    worst = 0.0
    for m in range(5):
        for k in range(5):
            c = complex(rng.standard_normal(), rng.standard_normal())
            f = PolyAnalytic.from_terms({(m, k): c})
            for z in points:
                gap = abs(schwarz_pompeiu_quadrature_oracle(f, z)
                          - schwarz_pompeiu_poly(f)(z))
                worst = max(worst, gap)
    assert worst < 1e-5


def _symbolic(poly, z, zb):
    """Exact sympy image of a polynomial; its binary coefficients convert exactly."""
    return sum(
        (sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag)) * z**m * zb**k
        for (m, k), c in _terms(poly).items()
    )


def test_schwarz_pompeiu_table_exact():
    # c/1, c/2, c/3 and c/4 are all exact binary fractions for this c, so the
    # floating-point table is the exact operator and sympy can check it
    z, zb = sympy.symbols("z zb")
    c = 1.5 - 0.75j
    monomials = [PolyAnalytic.from_terms({(m, k): c}) for m in range(4) for k in range(4)]
    for f in monomials + [sum(monomials, PolyAnalytic.zero())]:
        table = schwarz_pompeiu_poly(f)
        s = _symbolic(table, z, zb)
        assert sympy.expand(sympy.diff(s, zb) - _symbolic(f, z, zb)) == 0
        # Re S f = (S f + conj(S f)) / 2, and conj(z) = 1/z on |z| = 1;
        # conj S f swaps the roles of z and zb and conjugates the coefficients
        conjugate = _symbolic(PolyAnalytic(table.c.conj()), zb, z)
        on_circle = (s + conjugate).subs(zb, 1 / z)
        assert sympy.cancel(on_circle) == 0
        assert sympy.im(s.subs({z: 0, zb: 0})) == 0


@pytest.mark.parametrize("coeff, expect_terms", [
    (PolyAnalytic.constant(2.5), {(0, 1): 2.5}),
    (PolyAnalytic.zero(), {}),
    (PolyAnalytic.from_terms({(1, 0): 1.0}), {(1, 1): 1.0, (0, 0): -1.0}),
])
def test_similarity_factor_cauchy_closed_forms(coeff, expect_terms):
    psi = similarity_factor(coeff, "cauchy")
    want = PolyAnalytic.from_terms({mk: complex(c) for mk, c in expect_terms.items()})
    assert (psi + want.scale(-1.0)).max_coeff() < 1e-12


def test_similarity_factor_schwarz_zero_coeff():
    psi = similarity_factor(PolyAnalytic.zero(), "schwarz")
    assert psi.is_zero


def test_similarity_factor_derivative_both_kinds():
    rng = np.random.default_rng(17)
    pts = interior_points(rng, 8, r_max=0.85)
    for kind in ("cauchy", "schwarz"):
        for _ in range(2):
            coeff = random_bivar(rng, 3)
            psi = similarity_factor(coeff, kind)
            for z in pts[:5]:
                assert abs(wirtinger_dbar(psi, z) - coeff(z)) < 1e-5
            if kind == "schwarz":
                assert abs(psi(0j).imag) < 1e-6


def test_holder_quotients_stay_bounded():
    # square-root modulus sampled over random pairs; bound frozen from a
    # 5-coefficient, 1000-pair sweep that measured 0.92
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        psi = similarity_factor(random_bivar(rng, 3, scale=0.2), "cauchy")
        r = np.sqrt(rng.uniform(0, 1, (1000, 2)))
        t = rng.uniform(0, 2 * np.pi, (1000, 2))
        z = r * np.exp(1j * t)
        sep = np.abs(z[:, 0] - z[:, 1])
        keep = sep > 1e-12
        quot = np.abs(psi(z[keep, 0]) - psi(z[keep, 1])) / np.sqrt(sep[keep])
        worst = max(worst, float(np.max(quot)))
    assert worst < 2.0
