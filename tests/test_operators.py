import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multifix import (
    DistanceSpace,
    EvaluationError,
    LambdaFamily,
    MultiOperator,
    apply_lambda_f,
    coupled_preset,
    is_multiple_fixed_point,
    surjectivity_report,
    tripled_preset,
)
from multifix.operators import bind_lambda_f, check_lambda_arity
from helpers import reference_apply_lambda_f


@pytest.fixture
def reals():
    return DistanceSpace.reals()


class TestLambdaFamily:
    def test_coupled_preset_values(self):
        assert coupled_preset().rows == ((1, 2), (2, 1))

    def test_tripled_preset_values(self):
        assert tripled_preset().rows == ((1, 2, 3), (2, 1, 2), (3, 2, 1))

    def test_row_validation(self):
        with pytest.raises(ValueError):
            LambdaFamily(2, ((1, 2), (0, 1)))
        with pytest.raises(ValueError):
            LambdaFamily(2, ((1, 2),))

    def test_identity_family_diagonal(self):
        fam = LambdaFamily.identity(3)
        F = MultiOperator(3, lambda x, y, z: x + 10 * y + 100 * z)
        out = apply_lambda_f(F, fam, (1, 2, 3))
        assert out == (321, 321, 321)


class TestApplyLambdaF:
    def test_coupled_difference(self):
        F = MultiOperator(2, lambda x, y: x - y)
        assert apply_lambda_f(F, coupled_preset(), (3, 1)) == (2, -2)

    def test_constant_operator(self):
        F = MultiOperator.constant(3, 9)
        assert apply_lambda_f(F, tripled_preset(), (1, 2, 3)) == (9, 9, 9)

    def test_tripled_first_projection(self):
        # F(x, y, z) = x; rows give F(a,b,c)=a, F(b,a,b)=b, F(c,b,a)=c
        F = MultiOperator(3, lambda x, y, z: x)
        assert apply_lambda_f(F, tripled_preset(), ("a", "b", "c")) == ("a", "b", "c")

    def test_arity_mismatch(self):
        F = MultiOperator(2, lambda x, y: x)
        with pytest.raises(ValueError, match="arity"):
            apply_lambda_f(F, tripled_preset(), (1, 2, 3))

    def test_missing_table_entry_is_named(self):
        op = MultiOperator.from_table(2, {("a", "a"): "a"}, carrier=["a"])
        with pytest.raises(EvaluationError, match=r"\('a', 'b'\)"):
            apply_lambda_f(op, coupled_preset(), ("a", "b"))

    def test_table_completeness_validated_upfront(self):
        with pytest.raises(EvaluationError):
            MultiOperator.from_table(2, {("a", "a"): "a"}, carrier=["a", "b"])

    def test_table_value_outside_carrier_rejected(self):
        table = {(x, y): 0 for x in (0, 1) for y in (0, 1)}
        table[0, 0] = 9
        with pytest.raises(EvaluationError, match=r"value 9 at \(0, 0\)"):
            MultiOperator.from_table(2, table, carrier=[0, 1])


@st.composite
def families(draw):
    """Identity, coupled, tripled or random index families for m = 1..3."""
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["identity", "preset", "random"]))
    if kind == "identity":
        return LambdaFamily.identity(m)
    if kind == "preset" and m > 1:
        return coupled_preset() if m == 2 else tripled_preset()
    rows = st.tuples(*[st.integers(1, m)] * m)
    return LambdaFamily(m, tuple(draw(st.lists(rows, min_size=m, max_size=m))))


class TestBoundLambdaF:
    @settings(max_examples=200, deadline=None)
    @given(families(), st.data())
    def test_matches_generator_reference(self, family, data):
        m = family.m
        # an argument-order-sensitive F: every slot gets its own weight
        F = MultiOperator(m, lambda *args: sum(a * 10 ** k for k, a in enumerate(args)))
        x = data.draw(st.tuples(*[st.integers(-9, 9) | st.floats(-1e3, 1e3)] * m))
        want = reference_apply_lambda_f(F, family, x)
        assert bind_lambda_f(F, family)(x) == want
        assert bind_lambda_f(F, family)(list(x)) == want
        assert apply_lambda_f(F, family, x) == want

    def test_single_coordinate(self):
        F = MultiOperator(1, lambda x: x + 1)
        assert bind_lambda_f(F, LambdaFamily.identity(1))((4,)) == (5,)

    @pytest.mark.parametrize(
        "F_m, family, x",
        [(2, tripled_preset(), (1, 2, 3)), (2, coupled_preset(), (1, 2, 3)), (2, coupled_preset(), ())],
    )
    def test_arity_messages_match_the_reference(self, F_m, family, x):
        F = MultiOperator(F_m, lambda *args: 0)
        with pytest.raises(ValueError) as want:
            reference_apply_lambda_f(F, family, x)
        for check in (apply_lambda_f, check_lambda_arity):
            with pytest.raises(ValueError) as got:
                check(F, family, x)
            assert str(got.value) == str(want.value)

    def test_bind_rejects_operator_family_mismatch(self):
        with pytest.raises(ValueError, match="operator 2, family 3"):
            bind_lambda_f(MultiOperator(2, min), tripled_preset())


class TestFixedPointCertificate:
    def test_coupled_linear_fixed_point(self, reals):
        # oracle: solve the 2x2 linear system x = (x-y)/4 + 1, y = (y-x)/4 + 1
        A = np.array([[1 - 0.25, 0.25], [0.25, 1 - 0.25]])
        b = np.array([1.0, 1.0])
        solution = np.linalg.solve(A, b)
        assert np.allclose(solution, [1.0, 1.0])

        F = MultiOperator(2, lambda x, y: (x - y) / 4 + 1)
        cert = is_multiple_fixed_point(reals, F, coupled_preset(), (1.0, 1.0), tol=0)
        assert cert.accepted and cert.residual == 0

    def test_constant_diagonal(self, reals):
        F = MultiOperator.constant(2, 7.0)
        cert = is_multiple_fixed_point(reals, F, coupled_preset(), (7.0, 7.0))
        assert cert.residual == 0

    def test_involution_residual(self):
        bits = DistanceSpace.from_matrix([0, 1], [[0, 1], [1, 0]])
        F = MultiOperator(2, lambda x, y: 1 - x)
        cert = is_multiple_fixed_point(bits, F, coupled_preset(), (0, 0), tol=0)
        assert not cert.accepted
        assert cert.residual == 2

    def test_accepted_point_is_iteration_stable(self, reals):
        F = MultiOperator(2, lambda x, y: (x - y) / 4 + 1)
        a = (1.0, 1.0)
        image = apply_lambda_f(F, coupled_preset(), a)
        assert image == a
        assert apply_lambda_f(F, coupled_preset(), image) == a


class TestSurjectivity:
    def test_coupled_rows_are_permutations(self):
        report = surjectivity_report(coupled_preset())
        assert report.rows_surjective == (True, True)
        assert report.union_of_images_full

    def test_tripled_middle_row_not_surjective(self):
        report = surjectivity_report(tripled_preset())
        assert report.rows_surjective == (True, False, True)
        assert report.union_of_images_full

    def test_collapsing_family(self):
        fam = LambdaFamily(2, ((1, 1), (1, 1)))
        report = surjectivity_report(fam)
        assert report.rows_surjective == (False, False)
        assert not report.union_of_images_full
