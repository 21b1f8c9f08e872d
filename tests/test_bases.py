import math

import numpy as np
import pytest

from curstat import (
    BasisFamily,
    BasisModel,
    EmptyCollectionError,
    build_collection,
    corrected_dim,
    design_matrix,
    dyadic_family,
    dyadic_model,
    haar_family,
    haar_model,
    phi0,
    poly_family,
    poly_model,
    trig_family,
    trig_model,
)
from curstat.bases import model_sort_key, piecewise_legendre, trig_rows, two_scale
from quadrature import gram_matrix, project_function, quadrature_rule


class TestEvaluation:
    def test_trig_endpoint(self):
        np.testing.assert_allclose(
            design_matrix(trig_model(1), [0.0])[0], [1.0, math.sqrt(2.0), 0.0]
        )

    def test_haar_level1_is_scaled_indicator(self):
        np.testing.assert_allclose(
            design_matrix(haar_model(1), [0.25])[0], [math.sqrt(2.0), 0.0]
        )

    def test_single_piece_linear(self):
        np.testing.assert_allclose(
            design_matrix(poly_model(1, 1), [0.5])[0], [1.0, 0.0], atol=1e-15
        )
        # and its unit norm, by quadrature
        gram = gram_matrix(poly_model(1, 1))
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_zero_outside_support(self):
        for model in (trig_model(2), haar_model(2), dyadic_model(1, 3)):
            assert np.all(design_matrix(model, [-0.01])[0] == 0.0)
            assert np.all(design_matrix(model, [1.01])[0] == 0.0)
            assert np.any(design_matrix(model, [1.0])[0] != 0.0)

    @pytest.mark.parametrize(
        "model", [trig_model(2), poly_model(3, 2), dyadic_model(1, 3), haar_model(2)]
    )
    def test_no_point_inside_gives_zero_rows(self, model):
        # the scatter of design_matrix takes an empty set of inside points
        assert design_matrix(model, []).shape == (0, model.dim)
        outside = design_matrix(model, [-1.0, 1.5, 2.0])
        assert outside.shape == (3, model.dim) and not outside.any()

    def test_design_matrix_rows_match_pointwise(self, rng):
        xs = rng.random(40)
        for model in (trig_model(3), dyadic_model(2, 2), haar_model(3)):
            design = design_matrix(model, xs)
            for i in range(0, 40, 7):
                np.testing.assert_array_equal(
                    design[i], design_matrix(model, [xs[i]])[0]
                )

    def test_piecewise_legendre_is_design_nonzeros(self, rng):
        xs = np.concatenate([rng.random(40), [0.0, 0.5, 1.0]])
        for model in (dyadic_model(2, 3), poly_model(3, 2), haar_model(3)):
            piece, values = piecewise_legendre(model.pieces, model.degree, xs)
            design = design_matrix(model, xs)
            cols = np.arange(model.degree + 1)[None, :] * model.pieces + piece[:, None]
            np.testing.assert_array_equal(values, np.take_along_axis(design, cols, 1))
            assert np.count_nonzero(design) == np.count_nonzero(values)

    def test_trig_rows_are_design_transpose(self, rng):
        xs = np.concatenate([rng.random(300), [0.0, 0.25, 0.5, 1.0]])
        for harmonics in range(31):
            rows = trig_rows(harmonics, xs)
            assert rows.flags.c_contiguous
            np.testing.assert_array_equal(rows, design_matrix(trig_model(harmonics), xs).T)


class TestPhi0:
    def test_family_constants(self):
        assert phi0(trig_model(5)) == pytest.approx(math.sqrt(2.0))
        assert phi0(poly_model(3, 2)) == pytest.approx(math.sqrt(5.0))
        assert phi0(haar_model(4)) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "model",
        [trig_model(4), haar_model(3), dyadic_model(2, 3), poly_model(3, 2)],
    )
    def test_sup_norm_bound_on_grid(self, model):
        xs = np.linspace(0.0, 1.0, 10_001)
        total = (design_matrix(model, xs) ** 2).sum(axis=1)
        assert total.max() <= phi0(model) ** 2 * model.dim * (1 + 1e-10)


def _index_space(family, dim_cap):
    """``model_sort_key`` of every model of ``family`` with index at most ``dim_cap``."""
    r_max = family.max_degree
    if family.tag == "trig":
        return [(2 * m + 1, 1, 0, m) for m in range(1, dim_cap + 1)]
    if family.tag == "poly":
        return [(m * (r_max + 1), m, r_max, 0) for m in range(1, dim_cap + 1)]
    return [
        (2**p * (r + 1), 2**p, r, 0)
        for p in range(dim_cap.bit_length())
        for r in range(r_max + 1)
    ]


class TestCollections:
    def test_dyadic_cap_matches_enumeration(self):
        coll = build_collection(dyadic_family(9), 500, "density")
        cap = math.floor(500 / math.log(500) ** 2)
        expected = {
            (p, r)
            for p in range(10)
            for r in range(10)
            if 2**p * (r + 1) <= cap
        }
        assert {(m.level, m.degree) for m in coll} == expected
        assert all(m.dim <= cap for m in coll)

    def test_empty_collection_raises(self):
        # trig needs dimension 3; sqrt(n)/ln(n) < 3 for n = 100
        with pytest.raises(EmptyCollectionError, match="collection empty for n"):
            build_collection(trig_family(), 100, "regression")

    def test_regression_cap_per_family(self):
        trig = build_collection(trig_family(), 1000, "regression")
        assert max(m.dim for m in trig) <= math.sqrt(1000) / math.log(1000)
        dyad = build_collection(dyadic_family(9), 1000, "regression")
        assert max(m.dim for m in dyad) <= 1000 / math.log(1000) ** 2

    @pytest.mark.parametrize("n", [61.5, 60.0, True, "60", 1, np.float64(60.0)])
    def test_sample_size_must_be_an_integer_of_at_least_2(self, n):
        build_collection(dyadic_family(), 60)  # a kept integer n is never read for 60.0
        with pytest.raises(ValueError, match="need a sample size of at least 2"):
            build_collection(dyadic_family(), n)
        assert build_collection(dyadic_family(), np.int64(60)) == build_collection(
            dyadic_family(), 60
        )

    def test_unknown_cap_rule_raises(self):
        for cap in ("classic", "sqrt", 1):
            with pytest.raises(ValueError, match="unknown cap rule"):
                build_collection(haar_family(), 400, cap)

    @pytest.mark.parametrize("cap", ["density", "regression"])
    def test_exactly_the_models_under_the_cap(self, cap):
        # For every n the collection is every model of dimension at most
        # min(floor(bound), n), in selection order, and stays inside each
        # family's index range: at most n//2 - 1 harmonics for trig and at
        # most n // (degree + 1) pieces for poly.
        families = [trig_family(), haar_family()] + [dyadic_family(r) for r in (0, 3, 9)]
        families += [poly_family(r) for r in range(10)]
        for n in range(2, 5001):
            for family in families:
                if cap == "regression" and family.tag == "trig":
                    bound = math.sqrt(n) / math.log(n)
                else:
                    bound = n / math.log(n) ** 2
                dim_cap = min(math.floor(bound), n)
                expected = sorted(k for k in _index_space(family, dim_cap) if k[0] <= dim_cap)
                if not expected:
                    with pytest.raises(EmptyCollectionError):
                        build_collection(family, n, cap)
                    continue
                coll = build_collection(family, n, cap)
                assert all(m.family == family for m in coll)
                assert [model_sort_key(m) for m in coll] == expected, (n, family)
                if family.tag == "trig":
                    assert coll[-1].harmonics <= n // 2 - 1
                if family.tag == "poly":
                    assert coll[-1].pieces <= n // (family.max_degree + 1)

    def test_sorted_by_dimension_then_coarseness(self):
        coll = build_collection(dyadic_family(9), 500, "density")
        keys = [model_sort_key(m) for m in coll]
        assert keys == sorted(keys)
        dims = [m.dim for m in coll]
        assert dims == sorted(dims)


class TestOrthonormality:
    @pytest.mark.parametrize(
        "model",
        [
            trig_model(7),
            haar_model(4),
            dyadic_model(3, 2),
            poly_model(5, 3),
            poly_model(1, 9),
        ],
    )
    def test_gram_is_identity(self, model):
        gram = gram_matrix(model, min_nodes=2048)
        np.testing.assert_allclose(gram, np.eye(model.dim), atol=1e-9)

    def test_quadrature_rule_total_weight(self):
        nodes, weights = quadrature_rule([0.0, 0.25, 1.0], 64)
        assert weights.sum() == pytest.approx(1.0)
        assert nodes.min() > 0 and nodes.max() < 1


class TestNesting:
    def test_trig_prefix(self, rng):
        xs = rng.random(25)
        small = design_matrix(trig_model(2), xs)
        large = design_matrix(trig_model(5), xs)
        np.testing.assert_array_equal(small, large[:, : small.shape[1]])

    def test_dyadic_prefix_in_degree(self, rng):
        xs = rng.random(25)
        small = design_matrix(dyadic_model(2, 1), xs)
        large = design_matrix(dyadic_model(2, 4), xs)
        np.testing.assert_array_equal(small, large[:, : small.shape[1]])

    @pytest.mark.parametrize(
        "coarse,fine",
        [
            (haar_model(1), haar_model(3)),
            (dyadic_model(1, 2), dyadic_model(2, 2)),
        ],
    )
    def test_span_nesting_across_scale(self, coarse, fine):
        # every coarse basis function lies in the span of the finer model:
        # its projection onto the fine model preserves the unit norm
        for i in range(coarse.dim):
            fn = lambda x: design_matrix(coarse, x)[:, i]
            proj = project_function(fine, fn)
            assert proj @ proj == pytest.approx(1.0, abs=1e-10)


class TestTwoScale:
    @pytest.mark.parametrize("degree", range(10))
    def test_lower_triangular_and_orthogonal(self, degree):
        h0, h1 = two_scale(degree)
        for h in (h0, h1):
            assert h.shape == (degree + 1, degree + 1)
            assert not h.flags.writeable
            assert np.all(np.triu(h, 1) == 0.0)
        np.testing.assert_allclose(
            h0 @ h0.T + h1 @ h1.T, np.eye(degree + 1), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("degree", [0, 1, 4, 9])
    def test_inner_products_of_parent_and_halves(self, degree):
        # h0[a, b] (h1[a, b]) is the inner product of the one-piece degree-a
        # function with the two-piece degree-b function of the left (right) half
        nodes, weights = quadrature_rule([0.0, 0.5, 1.0], 64)
        parent = design_matrix(dyadic_model(0, degree), nodes)
        halves = design_matrix(dyadic_model(1, degree), nodes)
        inner = parent.T @ (weights[:, None] * halves)
        h0, h1 = two_scale(degree)
        np.testing.assert_allclose(inner[:, 0::2], h0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(inner[:, 1::2], h1, rtol=0, atol=1e-14)


class TestModelValidation:
    def test_dimension_formulas(self):
        assert trig_model(3).dim == 7
        assert poly_model(4, 2).dim == 12
        assert dyadic_model(3, 1).dim == 16
        assert haar_model(5).dim == 32

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            BasisModel(haar_family(), pieces=3)  # not a power of two
        with pytest.raises(ValueError):
            BasisModel(dyadic_family(2), pieces=2, degree=5)
        with pytest.raises(ValueError):
            BasisModel(trig_family(), pieces=2)

    @pytest.mark.parametrize("degree", [2.5, 2.0, "2", None, True, False])
    def test_family_degree_must_be_an_integer(self, degree):
        with pytest.raises(ValueError, match="max_degree must be an integer"):
            BasisFamily("dyadic", degree)
        assert BasisFamily("dyadic", np.int64(2)).max_degree == 2

    @pytest.mark.parametrize(
        "name, fields",
        [
            ("harmonics", dict(family=trig_family(), harmonics=1.5)),
            ("harmonics", dict(family=trig_family(), harmonics=2.0)),
            ("pieces", dict(family=poly_family(2), pieces=3.0, degree=2)),
            ("degree", dict(family=poly_family(2), pieces=3, degree=2.0)),
            ("pieces", dict(family=dyadic_family(), pieces=True)),
            ("pieces", dict(family=dyadic_family(), pieces="2")),
            ("degree", dict(family=haar_family(), pieces=2, degree=False)),
        ],
    )
    def test_model_indices_must_be_integers(self, name, fields):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            BasisModel(**fields)
        assert BasisModel(poly_family(2), pieces=np.int64(3), degree=np.int32(2)).dim == 9
        assert trig_model(np.int64(2)).dim == 5
        assert haar_model(np.int64(2)).describe() == "haar(level=2, dim=4)"

    def test_corrected_dim(self):
        assert corrected_dim(haar_model(2)) == pytest.approx(4.0)
        expected = 2.0 + math.log(2.0) ** 2.5
        assert corrected_dim(dyadic_model(0, 1)) == pytest.approx(expected)
