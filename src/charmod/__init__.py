"""Exact verification toolkit for cubic-form and characteristic-class
identities in dimensions ten and twelve.

Subpackages:

- ``exactmath``    exact q-series arithmetic
- ``charring``     graded rings, bundle characters, twist-bundle expansions
- ``thetamod``     modular q-series, theta ratios, numeric transformation laws
- ``anomaly``      the identity registry and its verification engine
- ``cubiclattice`` integral trilinear forms and their cubic refinements
- ``cli``          command-line front end

The public names below are read from their home layer on first use, so
``import charmod.<layer>`` loads only that layer and the layers it imports.
"""

from importlib import import_module

#: each public name -> the layer that defines it
_HOME = {
    name: layer
    for layer, names in (
        ("exactmath", "GRID GridError NotExponentiable NotInvertible QExpSeries RAT_RING"
         " RingMismatchError qs_exp qs_inv qs_log qs_mul"),
        ("charring", "ArgumentError DegreeError DimError GradedPoly PolyRing SpecError"
         " calibrate_e8_roots ch_tangent default_ring e8_ch line_pair_ch multiplicative_class"
         " power_sums_from_pontryagin vb_adams vb_lambda2_sym2 witten_character witten_expand"),
        ("thetamod", "NotProportional PrecisionError e8_character e8_lattice_theta e8_theta_sum"
         " eisenstein match_modular_basis numeric_transform_check phi theta_eighth_sum"
         " theta_log_ratio theta_zero_power8"),
        ("anomaly", "CLASS_KINDS REGISTRY_IDS UnsupportedGenerator VerificationReport"
         " build_twisted_class boundary_ring mod2_reduce restrict_to_u run_registry"
         " verify_differ verify_identity"),
        ("cubiclattice", "CubicFormSpec HypothesisWarning NoSolution TrilinearLattice"
         " check_cubic_relations is_characteristic load_lattice_json solve_bhat"
         " verify_refinement"),
    )
    for name in names.split()
}
__all__ = tuple(_HOME)


def __getattr__(name):
    """``charmod.<name>``: what its home layer binds now, imported on first use."""
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + _HOME[name], __name__), name)


__version__ = "0.1.0"
