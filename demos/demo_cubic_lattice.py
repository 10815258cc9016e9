"""Tour of the cubic-form lattice layer on two small examples.

The mod-24 linearization bhat(x) = 4x^3 + 6ax^2 + 3a^2x exists exactly when
the shift vector a is characteristic; off that locus the defect is visible
at a concrete point.  Run from the repository root:

    python3 demos/demo_cubic_lattice.py
"""

import warnings
from fractions import Fraction

from charmod.cubiclattice import (
    CubicFormSpec,
    HypothesisWarning,
    NoSolution,
    TrilinearLattice,
    check_cubic_relations,
    is_characteristic,
    solve_bhat,
    verify_refinement,
)


def rank_one():
    print("== rank 1: T(x, y, z) = xyz ==")
    lat = TrilinearLattice([[[1]]])
    for a in (0, 2):
        bhat = solve_bhat(lat, [a], 24)
        print("a = %d is characteristic, bhat = %s (mod 24)" % (a, bhat))
    print("a = 0, modulus 3: bhat = %s" % solve_bhat(lat, [0], 3))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisWarning)
        try:
            solve_bhat(lat, [1], 24)
        except NoSolution as exc:
            print("a = 1 is not characteristic; %s" % exc)

    report = check_cubic_relations(lat, CubicFormSpec(a=(2,)))
    print(
        "on all of Z (%d certificate points): half-sum identity: %s, "
        "/48 integrality: %s, /24 integrality: %s"
        % (
            report["points"],
            report["half_sum"]["passed"],
            report["refine48"]["passed"],
            report["refine24"]["passed"],
        )
    )


def rank_two():
    print("\n== rank 2: symmetrization of x1^2 x2 ==")
    lat = TrilinearLattice([[[0, 1], [1, 0]], [[1, 0], [0, 0]]])
    print("a = (0, 0) characteristic? %s" % is_characteristic(lat, [0, 0]))
    print("a = (1, 0) characteristic? %s" % is_characteristic(lat, [1, 0]))
    print("a = (1, 0): bhat = %s (mod 24)" % solve_bhat(lat, [1, 0], 24))

    # a cubic refinement: h has third difference equal to T
    def h(v):
        x1, x2 = (int(c) for c in v)
        return Fraction(x1 * x1 * x2, 2)

    report = verify_refinement(lat, h, samples=2000, seed=4)
    print("third-difference refinement over %d triples: %s" % (
        report["samples"], "ok" if report["passed"] else report["witness"]))


if __name__ == "__main__":
    rank_one()
    rank_two()
