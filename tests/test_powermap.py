import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cartankit.catalog import bundled_models
from cartankit.cli import main
from cartankit.errors import EmptyInstance, InputError, InvalidExponent, InvalidOrder, ParseError
from cartankit.powermap import (
    CartanGroupModel,
    GroupDensityInstance,
    composition_holds,
    density_from_cartans,
    instance_from_dict,
    load_instance,
    load_triples,
    pk_surjective,
    powers_surjective_bruteforce,
    triples_from_dict,
    weakly_exponential_model,
)

SL2R = GroupDensityInstance(
    name="sl2r",
    cartan_models=(
        CartanGroupModel(0, 1, ()),  # compact class: a torus
        CartanGroupModel(1, 0, (2,)),  # split class: R x Z/2
    ),
)

orders_strategy = st.lists(st.integers(2, 12), min_size=0, max_size=3)


def model(orders, a=0, b=0):
    return CartanGroupModel(vector_rank=a, torus_rank=b, component_orders=tuple(orders))


def test_split_class_blocks_squares():
    assert not pk_surjective(model([2], a=1), 2)  # squares in Z/2 are only 0


def test_torus_is_always_divisible():
    for k in [1, 2, 3, 10, 97]:
        assert pk_surjective(model([], b=1), k)


def test_split_class_passes_cubes():
    assert pk_surjective(model([2], a=1), 3)


def test_invalid_order_rejected():
    with pytest.raises(InvalidOrder):
        pk_surjective(model([1]), 2)
    with pytest.raises(InvalidOrder):
        powers_surjective_bruteforce([0], 2)


def test_models_check_themselves_when_built():
    with pytest.raises(InvalidOrder, match="component order 1 is below 2"):
        model([2, 1])
    with pytest.raises(InvalidOrder, match="ranks must be non-negative"):
        model([], a=-1)
    with pytest.raises(InvalidOrder, match="ranks must be non-negative"):
        model([], b=-1)
    with pytest.raises(EmptyInstance, match="instance 'empty' lists no Cartan classes"):
        GroupDensityInstance("empty", ())


def test_exponent_must_be_positive():
    with pytest.raises(ValueError):
        pk_surjective(model([]), 0)
    # an input error, and still a ValueError for callers that catch one
    for call in (lambda: pk_surjective(model([2]), 0), lambda: powers_surjective_bruteforce([2], -1)):
        with pytest.raises(InvalidExponent) as exc:
            call()
        assert isinstance(exc.value, InputError) and isinstance(exc.value, ValueError)
        assert str(exc.value) == "the power-map exponent must be a positive integer"


@given(orders_strategy, st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_gcd_criterion_matches_enumeration(orders, k):
    expected = powers_surjective_bruteforce(orders, k) if orders else True
    assert pk_surjective(model(orders, a=1, b=1), k) == expected


@given(orders_strategy, st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_multiplicativity(orders, k1, k2):
    m = model(orders)
    assert pk_surjective(m, k1 * k2) == (pk_surjective(m, k1) and pk_surjective(m, k2))


def test_density_sl2r():
    assert not density_from_cartans(SL2R, 2)
    assert density_from_cartans(SL2R, 3)
    assert density_from_cartans(SL2R, 1)


@given(st.integers(1, 99))
def test_density_sl2r_parity(k):
    assert density_from_cartans(SL2R, k) == (k % 2 == 1)


def test_density_requires_models():
    with pytest.raises(EmptyInstance):
        density_from_cartans(GroupDensityInstance("empty", ()), 2)


def test_composition_truth_table():
    assert composition_holds(True, True, True)
    assert not composition_holds(True, True, False)
    assert composition_holds(False, True, False)
    assert composition_holds(True, False, False)
    assert composition_holds(False, False, True)


@given(st.integers(1, 40), st.integers(0, 2), st.integers(0, 2), orders_strategy, orders_strategy)
@settings(max_examples=100, deadline=None)
def test_composition_on_product_models(k, a, b, orders_h, orders_q):
    # a direct product: Cartan classes are pairwise products, so density
    # verdicts multiply and the implication can never be violated
    h = GroupDensityInstance("h", (model(orders_h, a=a),))
    q = GroupDensityInstance("q", (model(orders_q, b=b),))
    g = GroupDensityInstance("g", (model(tuple(orders_h) + tuple(orders_q), a=a, b=b),))
    assert composition_holds(
        density_from_cartans(h, k), density_from_cartans(q, k), density_from_cartans(g, k)
    )


def test_weak_exponentiality_verdicts():
    assert weakly_exponential_model(GroupDensityInstance("t", (model([], b=2),)))
    assert not weakly_exponential_model(SL2R)
    assert not weakly_exponential_model(
        GroupDensityInstance("g", (model([3]),))
    )


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def test_bundled_sl2r_instance_matches_inline_model():
    inst = load_instance(bundled_models()["sl2r-model"])
    assert inst.cartan_models == SL2R.cartan_models


def test_instance_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_instance(bad)
    with pytest.raises(EmptyInstance):
        instance_from_dict({"name": "x", "cartan_classes": []})
    with pytest.raises(ParseError):
        instance_from_dict({"name": "x"})


def test_classes_that_are_not_a_list_are_a_parse_error():
    with pytest.raises(ParseError) as exc:
        instance_from_dict({"name": "x", "cartan_classes": {"a": {}}})
    assert str(exc.value) == "malformed density instance: cartan_classes must be a list, got {'a': {}}"


def test_a_class_that_is_not_an_object_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        instance_from_dict({"name": "x", "cartan_classes": [[1, 0]]})
    assert str(exc.value) == "malformed Cartan class model: each class must be an object, got [1, 0]"


@pytest.mark.parametrize("data, kind", [([1], "list"), ("m", "str"), (None, "NoneType"), (3, "int")])
def test_an_instance_that_is_not_an_object_is_a_parse_error(data, kind):
    # the message used to quote Python's "list indices must be integers or slices, not str"
    with pytest.raises(ParseError) as exc:
        instance_from_dict(data)
    assert str(exc.value) == f"malformed density instance: must be a JSON object, got {kind}"


def test_a_triple_that_is_not_an_object_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        triples_from_dict([[1]])
    assert str(exc.value) == "malformed model triple: must be a JSON object, got list"
    instance = {"name": "x", "cartan_classes": [{"vector_rank": 1, "torus_rank": 0}]}
    with pytest.raises(ParseError) as exc:
        triples_from_dict([{"name": "t", "subgroup": [1], "quotient": instance, "group": instance}])
    assert str(exc.value) == "malformed density instance: must be a JSON object, got list"


@pytest.mark.parametrize("payload", ["[1]", "[]", '"model"', "null"])
def test_cli_model_file_that_is_not_an_object_exits_2(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_text(payload, encoding="utf-8")
    result = CliRunner().invoke(main, ["powermap", str(path), "-k", "2"])
    assert result.exit_code == 2, result.output
    assert "malformed density instance: must be a JSON object, got " in result.stderr
    assert "indices" not in result.stderr


def test_bundled_triples_never_violate_composition():
    triples = load_triples(bundled_models()["triples"])
    assert len(triples) >= 5
    for t in triples:
        for k in range(1, 100):
            assert composition_holds(
                density_from_cartans(t.subgroup, k),
                density_from_cartans(t.quotient, k),
                density_from_cartans(t.group, k),
            ), (t.name, k)


def test_bundled_instances_self_consistent():
    for name, path in bundled_models().items():
        if name == "triples":
            continue
        inst = load_instance(path)
        enumerated = all(density_from_cartans(inst, k) for k in range(1, 102))
        assert weakly_exponential_model(inst) == enumerated, name


@pytest.mark.parametrize(
    "field, value",
    [
        ("component_orders", "35"),
        ("component_orders", {"3": 1}),
        ("component_orders", [2.5]),
        ("component_orders", ["3"]),
        ("vector_rank", True),
        ("torus_rank", 1.9),
        ("torus_rank", "1"),
    ],
    ids=["orders-string", "orders-object", "order-float", "order-string", "rank-bool", "rank-float", "rank-string"],
)
def test_cli_rejects_non_integer_model_fields(tmp_path, field, value):
    # each value used to be coerced by int() into a different model
    model = {"vector_rank": 1, "torus_rank": 0, "component_orders": [3]} | {field: value}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "bad", "cartan_classes": [model]}), encoding="utf-8")
    result = CliRunner().invoke(main, ["powermap", str(path), "-k", "2"])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


def test_cli_rejects_repeated_model_key(tmp_path):
    # json.load keeps the later key, so k = 3 used to be reported dense
    path = tmp_path / "model.json"
    path.write_text(
        '{"name": "dup", "cartan_classes": [{"vector_rank": 1, "torus_rank": 0,'
        ' "component_orders": [3], "component_orders": []}]}',
        encoding="utf-8",
    )
    result = CliRunner().invoke(main, ["powermap", str(path), "-k", "3"])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and "dense" not in result.output
