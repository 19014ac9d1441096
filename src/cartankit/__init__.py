"""Exact-arithmetic Lie theory toolkit.

Structure-constant Lie algebras over the rationals with Cartan subalgebra
constructions, Levi decompositions, radicals, quotient correspondences, and
a desk-scale power-map density checker for Cartan subgroup models.
"""

from .algebra import (
    Ideal,
    LieAlgebra,
    Subalgebra,
    Subquotient,
    Subspace,
    bracket_span,
    centralizer,
    derived_series,
    is_ideal,
    is_nilpotent,
    is_solvable,
    killing_form,
    lower_central_series,
    normalizer,
    subalgebra_closure,
)
from .cartan import (
    CartanResult,
    CsaMethod,
    centralizer_in_radical,
    composite_csa,
    fitting_null,
    is_cartan_subalgebra,
    normalizer_chain_csa,
    rank,
    regular_element_csa,
)
from .catalog import bundled_fixtures, bundled_models, load_algebra, load_bundled
from .levi import LeviDecomposition, induced_algebra, levi_decomposition
from .powermap import (
    CartanGroupModel,
    GroupDensityInstance,
    composition_holds,
    density_from_cartans,
    pk_surjective,
    weakly_exponential_model,
)
from .quotient import lift_cartan, push_cartan, quotient_algebra
from .radicals import is_semisimple, nilradical, radical
from .verify import run_verification

__all__ = [
    "CartanGroupModel",
    "CartanResult",
    "CsaMethod",
    "GroupDensityInstance",
    "Ideal",
    "LeviDecomposition",
    "LieAlgebra",
    "Subalgebra",
    "Subquotient",
    "Subspace",
    "bracket_span",
    "bundled_fixtures",
    "bundled_models",
    "centralizer",
    "centralizer_in_radical",
    "composite_csa",
    "composition_holds",
    "density_from_cartans",
    "derived_series",
    "fitting_null",
    "induced_algebra",
    "is_cartan_subalgebra",
    "is_ideal",
    "is_nilpotent",
    "is_semisimple",
    "is_solvable",
    "killing_form",
    "levi_decomposition",
    "lift_cartan",
    "load_algebra",
    "load_bundled",
    "lower_central_series",
    "nilradical",
    "normalizer",
    "normalizer_chain_csa",
    "pk_surjective",
    "push_cartan",
    "quotient_algebra",
    "radical",
    "rank",
    "regular_element_csa",
    "run_verification",
    "subalgebra_closure",
    "weakly_exponential_model",
]

__version__ = "0.1.0"
