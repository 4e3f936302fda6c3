import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qunimodal.errors import AlmkvistDivisionInexact, DegreeMismatch
from qunimodal.polynomials import (
    Polynomial,
    ProductSpec,
    build_product,
    coeff,
    divide_exact,
    dump_lines,
    evaluate_at_minus_one,
    evaluate_at_one,
    main_degree,
    main_rows,
    mul_binomial,
    parse_dump,
    product_rows,
    recurrence_step,
)

# Hand-expanded rows of the main family, frozen before the implementation
# existed. B2 was worked out with pencil and paper from B1.
B0 = [1, 1, 1, 1]
B1 = [1, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1]
B2 = [1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 3, 3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1]

# (1-q)(1-q^2)(1-q^4)(1-q^5), expanded by hand.
SIGNED_MAIN_1 = [1, -1, -1, 1, -1, 0, 2, 0, -1, 1, -1, -1, 1]

# (1-q^3)(1-q^6) / ((1-q)(1-q^2)) = (1+q+q^2)(1+q^2+q^4).
QUOTIENT_R3_N2 = [1, 1, 2, 1, 2, 1, 1]


signed_factors = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.integers(min_value=1, max_value=9)),
    min_size=0,
    max_size=7,
)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 3, 0, 0]).coeffs == (1, 2, 3)

    def test_zero_polynomial_canonical(self):
        assert Polynomial([]).coeffs == (0,)
        assert Polynomial([0, 0, 0]).coeffs == (0,)
        assert Polynomial([0]).is_zero()

    def test_degree_and_equality(self):
        p = Polynomial([1, 1, 1, 1])
        assert p.degree == 3
        assert p == Polynomial((1, 1, 1, 1))
        assert p != Polynomial([1, 1, 1])
        assert hash(p) == hash(Polynomial(B0))

    def test_repr_stays_short(self):
        text = repr(Polynomial(list(range(100))))
        assert len(text) < 120
        assert "degree=99" in text


class TestMulBinomial:
    def test_plus_factor(self):
        assert mul_binomial(Polynomial([1, 1]), 1, 2).coeffs == (1, 1, 1, 1)

    def test_minus_factor(self):
        assert mul_binomial(Polynomial([1]), -1, 1).coeffs == (1, -1)

    def test_zero_polynomial_absorbs(self):
        z = Polynomial([0])
        assert mul_binomial(z, 1, 5) == z

    def test_rejects_bad_sign_and_exponent(self):
        with pytest.raises(ValueError):
            mul_binomial(Polynomial([1]), 2, 1)
        with pytest.raises(ValueError):
            mul_binomial(Polynomial([1]), 1, 0)

    @given(signed_factors)
    def test_matches_naive_convolution(self, factors):
        p = Polynomial([1])
        for sign, exp in factors:
            p = mul_binomial(p, sign, exp)
        assert list(p.coeffs) == oracles.naive_product(factors)

    @given(signed_factors)
    def test_factor_order_is_irrelevant(self, factors):
        forward = Polynomial([1])
        for sign, exp in factors:
            forward = mul_binomial(forward, sign, exp)
        backward = Polynomial([1])
        for sign, exp in reversed(factors):
            backward = mul_binomial(backward, sign, exp)
        assert forward == backward

    @given(signed_factors.filter(lambda fs: len(fs) > 0))
    def test_degree_adds_up(self, factors):
        p = Polynomial([1])
        for sign, exp in factors:
            p = mul_binomial(p, sign, exp)
        # Leading coefficient is a product of +-1, never zero, so the
        # degree is exactly the sum of the factor exponents.
        assert p.degree == sum(exp for _, exp in factors)


class TestBuildProduct:
    def test_frozen_rows(self):
        assert list(build_product(ProductSpec.main(0)).coeffs) == B0
        assert list(build_product(ProductSpec.main(1)).coeffs) == B1
        assert list(build_product(ProductSpec.main(2)).coeffs) == B2

    @pytest.mark.parametrize("n", range(7))
    def test_main_family_matches_oracle(self, n):
        got = build_product(ProductSpec.main(n))
        assert list(got.coeffs) == oracles.naive_product(oracles.main_factors(n))
        assert got.degree == main_degree(n) == 3 * (n + 1) ** 2

    def test_general_family_signed(self):
        spec = ProductSpec.general(oracles.borwein_factors(1))
        assert list(build_product(spec).coeffs) == SIGNED_MAIN_1

    def test_quotient_family_frozen(self):
        got = build_product(ProductSpec.almkvist(3, 2))
        assert list(got.coeffs) == QUOTIENT_R3_N2

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_quotient_family_matches_block_oracle(self, r, n):
        got = build_product(ProductSpec.almkvist(r, n))
        assert list(got.coeffs) == oracles.gaussian_product(r, n)
        assert got.degree == (r - 1) * n * (n + 1) // 2

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_quotient_r2_is_distinct_parts_product(self, n):
        quotient = build_product(ProductSpec.almkvist(2, n))
        direct = build_product(ProductSpec.general([(1, k) for k in range(1, n + 1)]))
        assert quotient == direct

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProductSpec.main(-1)
        with pytest.raises(ValueError):
            ProductSpec.almkvist(1, 5)
        with pytest.raises(ValueError):
            ProductSpec.almkvist(3, 0)
        with pytest.raises(ValueError):
            ProductSpec.general([(2, 3)])
        with pytest.raises(ValueError):
            ProductSpec.general([(1, 0)])


class TestDivideExact:
    def test_full_denominator_agrees_with_factorwise_route(self):
        for r, n in [(2, 8), (3, 6), (4, 5)]:
            num = Polynomial([1])
            den = Polynomial([1])
            for k in range(1, n + 1):
                num = mul_binomial(num, -1, r * k)
                den = mul_binomial(den, -1, k)
            assert divide_exact(num, den) == build_product(ProductSpec.almkvist(r, n))

    def test_remainder_raises(self):
        # 1 + q + q^3 = (1 + q)(q^2 - q + 2) - 1, so the remainder is -1.
        with pytest.raises(AlmkvistDivisionInexact):
            divide_exact(Polynomial([1, 1, 0, 1]), Polynomial([1, 1]))

    def test_lower_degree_numerator_raises(self):
        with pytest.raises(AlmkvistDivisionInexact):
            divide_exact(Polynomial([1, 1]), Polynomial([1, 1, 1]))

    def test_inexact_leading_division_raises(self):
        # The leading coefficient 2 of (1 + 2q) cannot clear the leading
        # 3 of (1 + 3q^2) over the integers: the first step already fails.
        with pytest.raises(AlmkvistDivisionInexact):
            divide_exact(Polynomial([1, 0, 3]), Polynomial([1, 2]))

    def test_zero_numerator(self):
        assert divide_exact(Polynomial([0]), Polynomial([1, 1])).is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(Polynomial([1, 1]), Polynomial([0]))


class TestRecurrenceStep:
    def test_first_step_reproduces_frozen_row(self):
        assert list(recurrence_step(Polynomial(B0), 1).coeffs) == B1

    def test_degree_gate(self):
        with pytest.raises(DegreeMismatch):
            recurrence_step(Polynomial(B0), 2)
        with pytest.raises(ValueError):
            recurrence_step(Polynomial(B0), 0)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=12))
    def test_chain_equals_direct_build(self, n):
        p = build_product(ProductSpec.main(0))
        for step in range(1, n + 1):
            p = recurrence_step(p, step)
        assert p == build_product(ProductSpec.main(n))


class TestRowStream:
    def test_main_rows_match_oracle(self):
        rows = list(main_rows(6))
        assert len(rows) == 7
        for n, p in enumerate(rows):
            assert list(p.coeffs) == oracles.naive_product(oracles.main_factors(n))

    def test_signed_main_rows_match_oracle(self):
        for n, p in enumerate(main_rows(4, sign=-1)):
            assert list(p.coeffs) == oracles.naive_product(oracles.borwein_factors(n))

    def test_odd_rows_match_oracle(self):
        groups = [[(1, 2 * k - 1)] if k else [] for k in range(11)]
        for n, p in enumerate(product_rows(groups)):
            assert list(p.coeffs) == oracles.naive_product(oracles.odd_factors(n))

    def test_rows_follow_the_groups(self):
        rows = [p.coeffs for p in product_rows([[], [(1, 2), (-1, 1)], []])]
        assert rows == [(1,), (1, -1, 1, -1), (1, -1, 1, -1)]
        assert list(product_rows([])) == []


class TestEvaluations:
    def test_coeff_out_of_range_is_zero(self):
        p = Polynomial(B0)
        assert coeff(p, -4) == 0
        assert coeff(p, 2) == 1
        assert coeff(p, 99) == 0

    @pytest.mark.parametrize("n", range(9))
    def test_mass_identities(self, n):
        p = build_product(ProductSpec.main(n))
        assert evaluate_at_one(p) == 4 ** (n + 1)
        assert evaluate_at_minus_one(p) == 0

    def test_signed_evaluation_example(self):
        assert evaluate_at_minus_one(Polynomial([1, 2, 3])) == 2


class TestDumpFormat:
    def test_layout(self):
        lines = list(dump_lines(Polynomial(B0)))
        assert lines == ["0,1", "1,1", "2,1", "3,1"]

    def test_round_trip(self):
        p = build_product(ProductSpec.main(4))
        assert parse_dump(dump_lines(p)) == p

    def test_negative_coefficients_round_trip(self):
        p = Polynomial(SIGNED_MAIN_1)
        assert parse_dump(dump_lines(p)) == p

    def test_rejects_gaps_and_garbage(self):
        with pytest.raises(ValueError):
            parse_dump(["0,1", "2,1"])
        with pytest.raises(ValueError):
            parse_dump(["zero,one"])
        with pytest.raises(ValueError):
            parse_dump([])
