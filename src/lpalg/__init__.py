"""Numerical laboratory for operator algebras on finite l^p spaces.

The package estimates matrix p -> p operator norms and their completely
bounded refinements, builds crossed products of matrix algebras by finite
and integer group actions in their regular covariant representations, and
certifies finite-dimensional approximation factorizations end to end, with
every claim backed by a measured witness or an explicit error budget.

The names below are the ones the demos use; everything else is imported
from its submodule (``lpalg.lpnorm``, ``lpalg.opspace``, ``lpalg.groups``,
``lpalg.crossed``, ``lpalg.nuclearity``, ``lpalg.partition``,
``lpalg.serialize``, ``lpalg.suite``, ``lpalg.errors``).
"""

from .crossed import (
    CcElement,
    ConcreteAlgebra,
    CovariantRep,
    compress_identity_check,
    conditional_expectation,
    cyclic_coordinate_rotation,
    random_cc_element,
    reduced_norm,
    trivial_action,
    twisted_convolve,
)
from .groups import ZWindow, cyclic_group, folner_ratio, folner_search
from .lpnorm import adjoint, as_exponent, pnorm_estimate, pnorm_exact, vector_pnorm
from .nuclearity import crossed_nuclearity_witness, rotation_demo
from .opspace import LinearMap, cb_norm_lower
from .partition import circle_function, circle_partition, partition_roundtrip

__version__ = "0.1.0"

__all__ = [
    "CcElement",
    "ConcreteAlgebra",
    "CovariantRep",
    "LinearMap",
    "ZWindow",
    "adjoint",
    "as_exponent",
    "cb_norm_lower",
    "circle_function",
    "circle_partition",
    "compress_identity_check",
    "conditional_expectation",
    "crossed_nuclearity_witness",
    "cyclic_coordinate_rotation",
    "cyclic_group",
    "folner_ratio",
    "folner_search",
    "partition_roundtrip",
    "pnorm_estimate",
    "pnorm_exact",
    "random_cc_element",
    "reduced_norm",
    "rotation_demo",
    "trivial_action",
    "twisted_convolve",
    "vector_pnorm",
]
