"""Lattice sweep through the public ``charmod.cubiclattice`` API.

Run as ``python3 sweep.py <input.json> <output.json>`` with the checkout's
``src`` on ``PYTHONPATH``.  The input lists trilinear tensors and the
sampling settings; the output records every result for the benchmark's
independent checks.  Nothing here decides whether a result is right.
"""

import itertools
import json
import sys
from fractions import Fraction


def sweep_form(api, form, samples, seed):
    lattice = api.TrilinearLattice(form["tensor"])
    rank = lattice.rank
    out = {"tensor": form["tensor"], "characteristic": {}, "bhat24": {}}
    for parity in itertools.product((0, 1), repeat=rank):
        out["characteristic"][str(list(parity))] = api.is_characteristic(lattice, list(parity))
    for a in itertools.product(range(8), repeat=rank):
        if out["characteristic"][str([v % 2 for v in a])]:
            bhat = api.solve_bhat(lattice, list(a), 24, samples=samples, seed=seed)
            out["bhat24"][str(list(a))] = [int(v) for v in bhat]
    zero = [0] * rank
    out["bhat3"] = [int(v) for v in api.solve_bhat(lattice, zero, 3, samples=samples, seed=seed)]
    classes = sorted(out["bhat24"])
    if classes:
        a = json.loads(classes[form["pick"] % len(classes)])
        spec = api.CubicFormSpec(a=tuple(a))
        out["relations_a"] = a
        out["relations"] = api.check_cubic_relations(lattice, spec, samples=samples, seed=seed)
    out["refinement"] = api.verify_refinement(
        lattice, lambda x: Fraction(lattice.cube(x), 6), samples=samples, seed=seed
    )
    return out


def main(argv):
    with open(argv[1]) as handle:
        job = json.load(handle)
    import charmod.cubiclattice as api

    results = [sweep_form(api, form, job["samples"], job["seed"]) for form in job["forms"]]
    with open(argv[2], "w") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
