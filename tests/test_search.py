"""Coefficient maximization over schedule families."""

import math

import numpy as np
import pytest

from polyloewner import (
    FAMILIES,
    DomainError,
    HerglotzField,
    IntegrationError,
    SearchSpace,
    catalog_generator,
    decode_field,
    maximize,
    objective,
    parametric_limit,
)
from polyloewner import evolution, generators, search
from polyloewner.evolution import _field_schedule, _scaled_flow
from polyloewner.kernels import basis_tables
from polyloewner.search import _canonical_params, _float_kinds, _sample_params
import oracles


class TestSpace:
    def test_auto_name_pool_respects_dimension(self):
        space = SearchSpace(dim=2, alpha=(1, 1))
        assert space.names == ("H1", "H2", "H3", "H4", "H5")
        space3 = SearchSpace(dim=3, alpha=(1, 1, 0))
        assert space3.names == tuple(f"H{j}" for j in range(1, 8))

    def test_validation(self):
        with pytest.raises(DomainError):
            SearchSpace(dim=1, alpha=(2,))
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(1, 1, 0))
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(1, 0))
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(1, 1), family="annealing")
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(1, 1), pieces=0)
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(1, 1), names=("H6",))
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(1, 1), horizon=0.5)
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(1, 1), horizon=20.0, certify_horizon=15.0)
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(0, 4), degree=3)
        with pytest.raises(DomainError):
            SearchSpace(dim=2, alpha=(1, 1), degree=1)

    @pytest.mark.parametrize("field", ["horizon", "certify_horizon"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_horizons_are_named(self, field, value):
        kwargs = {"horizon": 12.0, "certify_horizon": 15.0, field: value}
        if field == "horizon" and value == math.inf:
            kwargs["certify_horizon"] = math.inf
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            SearchSpace(dim=2, alpha=(1, 1), **kwargs)


class TestDecode:
    def test_rotation_identity_angles_recover_catalog_entry(self):
        space = SearchSpace(dim=2, alpha=(0, 2), names=("H4",))
        field = decode_field(space, ((0,), (0.0, 0.0)))
        assert isinstance(field, HerglotzField)
        gen = field.generator_at(0.0)
        want = catalog_generator("H4")
        got = gen.jet_array(3)
        assert np.max(np.abs(got - want.jet_array(3))) < 1e-12

    def test_piecewise_breaks_are_decoded_in_order(self):
        space = SearchSpace(dim=2, alpha=(0, 2), names=("H1", "H4"), pieces=2)
        field = decode_field(space, ((0, 1), (0.0, 0.0, 0.0, 0.0, 7.3)))
        assert len(field.breakpoints) == 1
        assert 0.0 < field.breakpoints[0] < space.horizon

    def test_convex_combo_weights(self):
        space = SearchSpace(
            dim=2, alpha=(1, 1), family="convex-combo", names=("H2", "H4")
        )
        # two parts: angles + raw weight each; equal weights
        field = decode_field(space, ((0, 1), (0.0, 0.0, 0.5, 0.0, 0.0, 0.5)))
        gen = field.generator_at(0.0)
        assert gen.provenance["kind"] == "convex-combination"

    def test_product_form_objective_vanishes_off_family(self):
        # component 0 of a product-form generator always carries a z1 factor,
        # so the (0,2) coefficient of the limit stays 0 for any parameters
        space = SearchSpace(dim=2, alpha=(0, 2), family="product-form", horizon=6.0)
        params = (
            (1, 0),
            (0.3, 0.4, 1.1, 0.6, 2.0, 0.2, 0.7, 0.8),
        )
        field = decode_field(space, params)
        assert abs(objective(space, params)) < 1e-8
        assert field.dim == 2


def _outcome(fn, *args):
    """The float ``fn`` returns, by its bits, or the exception it raises."""
    try:
        return fn(*args).hex()
    except (DomainError, IntegrationError) as exc:
        return type(exc), str(exc)


def _object_route(space, decode, params):
    """The objective by objects: the Koenigs chain over ``decode(space, params)``, T = inf."""
    tables = basis_tables(space.dim, space.degree)
    schedule = _field_schedule(decode(space, params), tables)
    (end,), _ = _scaled_flow(schedule, 0.0, (math.inf,), tables, space.horizon)
    return float(end[0, tables.index[space.alpha]].real)


def _with_angles(space, params, angle):
    """``params`` with every angle set to ``angle``."""
    kinds = _float_kinds(space)
    return params[0], tuple(angle if k == "angle" else x for k, x in zip(kinds, params[1]))


class TestLayout:
    """Every layout reader agrees with the decoder that kept its own counter."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("pieces", [1, 2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_decode_matches_the_counter_decoder(self, family, pieces, dim):
        space = SearchSpace(dim=dim, alpha=(1, 1, 0)[:dim], family=family, pieces=pieces)
        rng = np.random.default_rng(100 * pieces + dim)
        vectors = _canonical_params(space) + [_sample_params(space, rng) for _ in range(30)]
        values = [_outcome(objective, space, p) for p in vectors]
        for p in vectors:
            assert decode_field(space, p).to_json() == oracles.decode_field(space, p).to_json()
        assert values == [_outcome(_object_route, space, oracles.decode_field, p) for p in vectors]
        assert any(isinstance(v, str) for v in values)  # some values are bits, not refusals

    @pytest.mark.parametrize("method", ["coordinate-ascent", "coordinate-ascent+polish"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_maximize_is_unchanged_under_the_counter_decoder(self, monkeypatch, family, method):
        space = SearchSpace(dim=2, alpha=(1, 1), family=family, pieces=2)
        want = maximize(space, budget=60, seed=4, method=method).to_json()
        monkeypatch.setattr(search, "decode_field", oracles.decode_field)
        assert maximize(space, budget=60, seed=4, method=method).to_json() == want

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_vector_of_the_wrong_length_is_refused(self, family):
        space = SearchSpace(dim=2, alpha=(1, 1), family=family, pieces=2)
        ints, floats = _canonical_params(space)[0]
        for params in [(ints[1:], floats), (ints, floats + (1.0,)), (ints + (0,), floats)]:
            with pytest.raises(DomainError, match="does not match the space layout"):
                decode_field(space, params)


class TestArrayDecode:
    """The objective decodes catalog rotations into arrays, bit for bit the object route."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("pieces", [1, 2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_objective_is_the_object_route(self, family, pieces, dim):
        space = SearchSpace(dim=dim, alpha=(1, 1, 0)[:dim], family=family, pieces=pieces)
        rng = np.random.default_rng(10 * pieces + dim)
        samples = [_sample_params(space, rng) for _ in range(200)]
        vectors = _canonical_params(space) + samples
        # all-zero angles of either sign, and angles whose phases are not finite
        for angle in (0.0, -0.0, -1e-300, math.nan, 1e308):
            vectors += [_with_angles(space, p, angle) for p in samples[:5]]
        if pieces > 1:
            bad_breaks = (0.0, -1.0, math.nan)
            vectors += [(p[0], p[1][:-1] + (b,)) for p in samples[:2] for b in bad_breaks]
        values = [_outcome(objective, space, p) for p in vectors]
        assert values == [_outcome(_object_route, space, decode_field, p) for p in vectors]
        assert {type(v) for v in values} == {str, tuple}  # bits and refusals both compared

    def test_a_rotation_objective_builds_no_objects(self, monkeypatch):
        space = SearchSpace(dim=3, alpha=(0, 1, 1), pieces=3)
        rng = np.random.default_rng(5)
        vectors = [_sample_params(space, rng) for _ in range(20)]
        objective(space, vectors[0])  # the catalog generators and their pairs are cached
        built = []

        def counting(cls):
            init = cls.__init__

            def counted(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)

        counting(generators.Generator)
        counting(evolution.HerglotzField)
        for p in vectors:
            objective(space, p)
        assert built == []
        decode_field(space, vectors[0])  # the counters see the object route
        assert built.count("Generator") == 3 and built.count("HerglotzField") == 1


class TestExactObjective:
    """The objective is the T = inf limit, read from the Koenigs chain."""

    @pytest.mark.parametrize("pieces", [1, 2, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_limit_at_a_long_horizon(self, rng, family, pieces):
        # at T = 40 the scaled flow is within e^-40 of its limit
        spaces = [SearchSpace(dim=2, alpha=(1, 1), family=family, pieces=pieces)]
        if family == "catalog-rotation":
            spaces.append(SearchSpace(dim=3, alpha=(0, 1, 1), pieces=pieces))
        for space in spaces:
            for _ in range(3):
                params = _sample_params(space, rng)
                field = decode_field(space, params)
                limit = parametric_limit(field, horizon=40.0, degree=space.degree)
                want = limit.jet.coefficient(0, space.alpha).real
                assert abs(objective(space, params) - want) <= 1e-12


class TestMaximize:
    @pytest.mark.parametrize(
        "alpha,dim,bound",
        [((2, 0), 2, 2.0), ((1, 1), 2, 2.0), ((0, 2), 2, 1.0), ((0, 1, 1), 3, 1.0)],
    )
    def test_criterion_9_reaches_the_sharp_constants_exactly(self, alpha, dim, bound):
        res = maximize(SearchSpace(dim=dim, alpha=alpha), budget=500, seed=0)
        assert abs(res.best_value - bound) <= 1e-12
        # the finite-horizon cross-check sits below the limit, within its tail
        assert 0.0 <= res.best_value - res.certified_value <= res.certified_tail

    def test_all_failed_evaluations_are_counted(self, monkeypatch):
        def failing(space, params):
            raise IntegrationError("scaled limit lost normalization")

        monkeypatch.setattr(search, "objective", failing)
        with pytest.raises(DomainError, match="^all 5 evaluations failed.*normalization"):
            maximize(SearchSpace(dim=2, alpha=(1, 1)), budget=5)

    def test_rotation_search_is_sound_and_reaches_known_value(self):
        space = SearchSpace(
            dim=2, alpha=(1, 1), horizon=8.0, certify_horizon=10.0, degree=3
        )
        res = maximize(space, budget=60, seed=3)
        bound = 2.0
        assert res.certified_value <= bound + 1e-4
        assert res.certified_value >= bound - 1e-2
        assert res.evaluations <= 60
        assert res.certified_tail < 1e-3
        vals = [v for _, v in res.history]
        assert vals == sorted(vals)
        assert res.best_field().dim == 2

    def test_same_seed_reproduces_everything(self):
        space = SearchSpace(
            dim=2, alpha=(0, 2), horizon=6.0, certify_horizon=8.0, degree=3
        )
        a = maximize(space, budget=40, seed=11)
        b = maximize(space, budget=40, seed=11)
        assert a.best_params == b.best_params
        assert a.best_value == b.best_value
        assert a.history == b.history
        assert a.evaluations == b.evaluations

    def test_result_json_and_csv(self):
        space = SearchSpace(
            dim=2, alpha=(0, 2), horizon=6.0, certify_horizon=8.0, degree=3
        )
        res = maximize(space, budget=25, seed=0)
        payload = res.to_json()
        assert payload["family"] == "catalog-rotation"
        assert payload["alpha"] == [0, 2]
        assert payload["budget"] == 25
        assert payload["best_params"]["ints"] == list(res.best_params[0])
        assert payload["history"][-1]["value"] == res.best_value
        rows = res.history_csv_rows()
        assert rows[-1][1] == res.best_value

    def test_polish_method_runs(self):
        space = SearchSpace(
            dim=2, alpha=(1, 1), horizon=6.0, certify_horizon=8.0, degree=3
        )
        res = maximize(space, budget=40, seed=5, method="coordinate-ascent+polish")
        assert res.method == "coordinate-ascent+polish"
        assert res.certified_value <= 2.0 + 1e-4

    def test_polish_spends_the_last_fifth_of_the_budget(self, monkeypatch):
        space = SearchSpace(dim=2, alpha=(2, 1), pieces=2)
        budget, limit = 100, 80
        calls = []

        def recording(space, params):
            calls.append(params)
            return objective(space, params)

        monkeypatch.setattr(search, "objective", recording)
        plain = maximize(space, budget=limit, seed=0)
        ascent = calls[:]
        calls.clear()
        res = maximize(space, budget=budget, seed=0, method="coordinate-ascent+polish")
        assert limit < res.evaluations == len(calls) <= budget
        # up to the limit the sweep and the restarts run as without a polish
        assert calls[:limit] == ascent
        polish = calls[limit:]
        # then Nelder-Mead starts from the best point so far, one vertex per float
        start_ints, start = plain.best_params
        table = search._kind_table(space)
        vertices = []
        for j, kind in enumerate(_float_kinds(space)):
            clip, first = table[kind][1], table[kind][2]
            moved = search._clip_float(clip, start[j] + 0.5 * first)
            vertices.append((start_ints, start[:j] + (moved,) + start[j + 1 :]))
        fresh = [v for v in vertices if v not in ascent]
        assert polish[: len(fresh)] == fresh
        assert all(p[0] == start_ints for p in polish)

    def test_unknown_method_rejected(self):
        space = SearchSpace(dim=2, alpha=(1, 1))
        with pytest.raises(DomainError):
            maximize(space, budget=10, method="gradient-descent")
