"""Desk-scale model checker for power-map density on Cartan subgroups.

A Cartan subgroup is modeled as an abelian group R^a x T^b x F with F a
finite product of cyclic factors; the vector and torus parts are divisible,
so the k-th power map is surjective on the model exactly when gcd(k, m) = 1
for every cyclic order m.  Density of the k-th power image of the whole
group is the conjunction of that verdict over the Cartan classes, and a
density verdict for a normal subgroup and its quotient propagates to the
extension (checked as an implication over bundled model triples).

The model types check themselves once, when built: ranks are non-negative,
every cyclic order is at least 2, and an instance has a Cartan class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .catalog import read_json
from .errors import EmptyInstance, InvalidExponent, InvalidOrder, ParseError


@dataclass(frozen=True)
class CartanGroupModel:
    """Abelian Cartan-subgroup model: identity component plus finite part."""

    vector_rank: int
    torus_rank: int
    component_orders: tuple[int, ...]

    def __post_init__(self):
        if self.vector_rank < 0 or self.torus_rank < 0:
            raise InvalidOrder("ranks must be non-negative")
        for m in self.component_orders:
            if m < 2:
                raise InvalidOrder(f"component order {m} is below 2")


@dataclass(frozen=True)
class GroupDensityInstance:
    """One Cartan-subgroup model per conjugacy class of the modeled group."""

    name: str
    cartan_models: tuple[CartanGroupModel, ...]

    def __post_init__(self):
        if not self.cartan_models:
            raise EmptyInstance(f"instance {self.name!r} lists no Cartan classes")


def pk_surjective(model: CartanGroupModel, k: int) -> bool:
    """Whether x -> x^k is onto the model group.

    Always onto the divisible identity component; onto a cyclic factor of
    order m iff gcd(k, m) = 1.
    """
    if k < 1:
        raise InvalidExponent("the power-map exponent must be a positive integer")
    return all(math.gcd(k, m) == 1 for m in model.component_orders)


def density_from_cartans(instance: GroupDensityInstance, k: int) -> bool:
    """Dense k-th power image iff the map is onto every Cartan class model."""
    return all(pk_surjective(m, k) for m in instance.cartan_models)


def composition_holds(h_dense: bool, quotient_dense: bool, g_result: bool) -> bool:
    """Implication verdict: density on subgroup and quotient forces density."""
    return g_result or not (h_dense and quotient_dense)


def weakly_exponential_model(instance: GroupDensityInstance) -> bool:
    """Dense power images for every k: no finite components anywhere.

    The verdict is exact via the gcd structure; the verification harness
    cross-checks it against enumeration of k.
    """
    return all(not m.component_orders for m in instance.cartan_models)


def powers_surjective_bruteforce(orders, k: int) -> bool:
    """Enumerate k-th powers in the finite product of cyclic groups.

    The independent oracle for pk_surjective, viable for products of order
    up to about 10^4.
    """
    if k < 1:
        raise InvalidExponent("the power-map exponent must be a positive integer")
    orders = tuple(orders)
    for m in orders:
        if m < 2:
            raise InvalidOrder(f"component order {m} is below 2")
    elements = set(itertools.product(*(range(m) for m in orders)))
    powers = {
        tuple((k * x) % m for x, m in zip(el, orders)) for el in elements
    }
    return powers == elements


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def _json_integer(value, what: str) -> int:
    """A JSON integer as is; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"malformed Cartan class model: {what} must be an integer, got {value!r}")
    return value


def model_from_dict(data: dict) -> CartanGroupModel:
    if not isinstance(data, dict):
        raise ParseError(f"malformed Cartan class model: each class must be an object, got {data!r}")
    try:
        vector_rank, torus_rank = data["vector_rank"], data["torus_rank"]
    except KeyError as exc:
        raise ParseError(f"malformed Cartan class model: {exc}") from exc
    orders = data.get("component_orders", [])
    if not isinstance(orders, list):
        raise ParseError(f"malformed Cartan class model: component_orders must be a list, got {orders!r}")
    return CartanGroupModel(
        vector_rank=_json_integer(vector_rank, "vector_rank"),
        torus_rank=_json_integer(torus_rank, "torus_rank"),
        component_orders=tuple(_json_integer(m, "a component order") for m in orders),
    )


def instance_from_dict(data: dict) -> GroupDensityInstance:
    if not isinstance(data, dict):
        raise ParseError(f"malformed density instance: must be a JSON object, got {type(data).__name__}")
    try:
        name = data["name"]
        classes = data["cartan_classes"]
    except KeyError as exc:
        raise ParseError(f"malformed density instance: {exc}") from exc
    if not isinstance(classes, list):
        raise ParseError(f"malformed density instance: cartan_classes must be a list, got {classes!r}")
    return GroupDensityInstance(
        name=str(name), cartan_models=tuple(model_from_dict(c) for c in classes)
    )


def load_instance(path) -> GroupDensityInstance:
    return instance_from_dict(read_json(path))


@dataclass(frozen=True)
class ModelTriple:
    """Instances for a normal subgroup, the quotient, and the whole group."""

    name: str
    subgroup: GroupDensityInstance
    quotient: GroupDensityInstance
    group: GroupDensityInstance


def triples_from_dict(data) -> list[ModelTriple]:
    if not isinstance(data, list):
        raise ParseError("model triple corpus must be a JSON list")
    out = []
    for item in data:
        if not isinstance(item, dict):
            raise ParseError(f"malformed model triple: must be a JSON object, got {type(item).__name__}")
        try:
            out.append(
                ModelTriple(
                    name=str(item["name"]),
                    subgroup=instance_from_dict(item["subgroup"]),
                    quotient=instance_from_dict(item["quotient"]),
                    group=instance_from_dict(item["group"]),
                )
            )
        except KeyError as exc:
            raise ParseError(f"malformed model triple: {exc}") from exc
    return out


def load_triples(path) -> list[ModelTriple]:
    return triples_from_dict(read_json(path))
