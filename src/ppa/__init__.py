"""Exact-arithmetic kernel and verifier for polynomial Poisson and Nambu
bracket structures: construction from Casimirs, identity checking, catalog
models, monomial-map transport, and conserved-quantity-monitored flows."""

from .poly import MonomialMap, PolyExpr, exact_divisibility, substitute
from .exterior import pfaffian
from .structures import (
    NambuStructure,
    PoissonStructure,
    check_jacobi,
    generic_rank,
    is_casimir,
    is_quasi_casimir,
    jacobian_structure,
    nambu_bracket,
    plucker_rank2_test,
)
from .duality import degree_sum_check, duality_check
from .geometry import (
    chart_compare,
    check_projective_extendability,
    transport_bracket,
)
from .dynamics import (
    decoupling_check,
    hamiltonian_vector_field,
    integrate,
    nambu_vector_field,
)
from . import catalog

__version__ = "0.1.0"
