"""charmod benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 benchmark/run.py --workload registry-o24 --seed 1 --seconds 60 --trace 0

The program is run from the checkout's ``src`` the way users run it: the
``charmod`` CLI, or the public ``charmod.cubiclattice`` API, in a fresh
process per command, one process at a time, with the program's defaults.
Outputs are checked against ``oracles.py`` after the timed reps.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; see README.md for what each metric means.
"""

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

import oracles
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable
CLI = [PYTHON, "-c", "import sys; from charmod.cli import main; sys.exit(main())"]
TRACED = [PYTHON, os.path.join(HERE, "tracer.py")]

#: a program process that runs longer than this is killed and its operation fails
PROCESS_LIMIT_S = 150
#: a run makes one set-up spawn and one probe spawn per this many seconds,
#: between rounds
SETUP_EVERY_S = 4.0
SETUP_LAST = 2

#: A fixed task that gauges the host's speed, in a fresh interpreter that
#: imports nothing of charmod: small numpy contractions, as the lattice code
#: makes, and dict-of-Fraction products, as the polynomial code makes.  Time
#: metrics are scaled by PROBE_REF_S over the probe's fastest time in the run
#: (README, noise item 1).
PROBE = """
from fractions import Fraction
import numpy
t = numpy.arange(27, dtype=numpy.int64).reshape(3, 3, 3) % 7 - 3
acc = 0
for i in range(1000):
    x = numpy.array([i % 5, i % 7, i % 11], dtype=numpy.int64)
    acc += int(numpy.einsum("ijk,i,j,k->", t, x, x, x)) % 24
p = {(i, j): Fraction(i + 1, j + 2) for i in range(10) for j in range(12)}
r = {}
for (a, b), x in p.items():
    for (c, d), y in p.items():
        r[a + c, b + d] = r.get((a + c, b + d), 0) + x * y
"""
#: the probe's fastest wall and CPU time on the machine described in README.md
PROBE_REF_S = 0.18

LATTICE_FILES = 3
#: rank-2 forms per sweep, drawn from each class-count stratum in proportion
RANK2_FORMS = 120
RANK3_FORMS = 2
SWEEP_SAMPLES = 200

REGISTRY_IDS = (
    "wfh_main", "spin_new", "spinc_main", "spinc_new", "o1", "o2",
    "fact_spinc_q", "fact_spinc_r", "fact_orient_q", "fact_orient_r",
    "deg8_spinc_q", "deg8_spinc_r", "deg8_orient_q", "deg8_orient_r",
    "bundle_xi_plus", "bundle_xi_minus", "sqrt_relation", "b1_check", "d1_check",
    "pc_theorem", "mod2_orientable", "differ1", "differ2",
)
THETA_KINDS = ("theta", "theta1", "theta2", "theta3", "E2")
#: (tau, v) points where every numeric kind passes at the default 40 terms
THETA_POINTS = [
    ("%g+%gi" % (re, im), "%g%+gi" % (v.real, v.imag))
    for re in (-0.4, -0.2, 0.0, 0.1, 0.3, 0.45)
    for im in (0.8, 1.0, 1.3, 1.7)
    for v in (0.1 + 0.05j, 0.25 - 0.1j, 0.3 + 0.2j, -0.15 + 0.1j)
]
THETA_TOL = 1e-8
CLASS_KINDS_BUILT = ("Wc", "Qc", "Rc", "QL", "RL")

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def layer_metrics():
    """(metric, unit, span name, field) for every per-layer metric."""
    counted = {
        "charring.GradedPoly.mul": ("calls", "self_s", "term_pairs"),
        "exactmath.qs_mul": ("calls", "self_s"),
        "exactmath.qs_exp": ("calls", "self_s"),
        "exactmath.QExpSeries.pow": ("calls", "self_s"),
        "cubiclattice.is_characteristic": ("calls", "self_s"),
        "cubiclattice.solve_bhat": ("calls", "self_s"),
    }
    timed = (
        "charring.witten_character", "charring.multiplicative_class",
        "charring.calibrate_e8_roots", "exactmath.qs_inv", "exactmath.qs_log",
        "thetamod.theta_log_ratio", "thetamod.theta_zero_power8",
        "thetamod.e8_character",
        "thetamod.match_modular_basis", "cubiclattice.check_cubic_relations",
        "cubiclattice.verify_refinement",
    )
    fields = {"calls": ("count", "calls"), "self_s": ("s", "self_s"), "term_pairs": ("count", "work")}
    out = []
    for span, kinds in counted.items():
        out += [("%s.%s" % (span, k), fields[k][0], span, fields[k][1]) for k in kinds]
    out += [("%s.self_s" % span, "s", span, "self_s") for span in timed]
    spans = ["anomaly.build_twisted_class.%s" % k for k in CLASS_KINDS_BUILT]
    spans += ["anomaly.verify_identity.%s" % i for i in REGISTRY_IDS]
    spans += ["anomaly.run_registry", "cli.main.verify"]
    out += [("%s.s" % span, "s", span, "s") for span in spans]
    out.append(("cli.import_s", "s", "cli.import", "s"))
    return out


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


class Op:
    """One program process and the check of what it printed or wrote."""

    def __init__(self, mode, args, verdicts, check, env=None, output=None):
        self.mode, self.args, self.verdicts = mode, list(args), verdicts
        self.check, self.env, self.output = check, env or {}, output

    def argv(self, spans_path=None):
        if spans_path:
            return TRACED + [spans_path, self.mode] + self.args
        if self.mode == "cli":
            return CLI + self.args
        return [PYTHON, os.path.join(HERE, "sweep.py")] + self.args


def program_env(extra=None):
    env = dict(os.environ)
    env.pop("CHARMOD_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def spawn(argv, env, stdout_path):
    """Run one process to its end: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it, not Popen
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def setup_spawns(module, count):
    """Wall times of ``count`` fresh interpreters importing the entry point."""
    argv = [PYTHON, "-c", "import " + module]
    path = os.path.join(OUT, "setup.out")
    walls = []
    for _ in range(count):
        code, wall, _, _ = spawn(argv, program_env(), path)
        if code != 0:
            with open(path + ".err") as handle:
                raise SystemExit("cannot import %s from %s:\n%s" % (module, SRC, handle.read()))
        walls.append(wall)
    return walls


def probe_spawns(count):
    """(wall s, cpu s) of ``count`` fresh interpreters running PROBE."""
    path = os.path.join(OUT, "probe.out")
    times = []
    for _ in range(count):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")  # one thread, so CPU time is steady
        code, wall, cpu, _ = spawn([PYTHON, "-c", PROBE], env, path)
        if code != 0:
            raise SystemExit("the speed probe failed with exit code %d" % code)
        times.append((wall, cpu))
    return times


def run_rep(ops, traced, op_env):
    """Run every op once, in order; time from the first spawn to the last exit.

    ``traced`` runs each op under the tracer; ``op_env`` adds each op's
    trace-run environment.
    """
    rep = {"codes": [], "outputs": [], "spans": [], "walls": [], "cpus": [], "peak_rss_mb": 0.0}
    started = time.perf_counter()
    for index, op in enumerate(ops):
        stdout_path = os.path.join(OUT, "op-%d.out" % index)
        spans_path = os.path.join(OUT, "op-%d.spans.json" % index) if traced else None
        env = program_env(op.env if op_env else None)
        code, wall, cpu, rss = spawn(op.argv(spans_path), env, stdout_path)
        rep["codes"].append(code)
        rep["walls"].append(wall)
        rep["cpus"].append(cpu)
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
    rep["verdict_s"] = time.perf_counter() - started
    for index, op in enumerate(ops):
        if rep["codes"][index] != 0:
            rep["outputs"].append(None)
            continue
        with open(op.output or os.path.join(OUT, "op-%d.out" % index)) as handle:
            rep["outputs"].append(handle.read())
        if traced:
            with open(os.path.join(OUT, "op-%d.spans.json" % index)) as handle:
                rep["spans"].append(json.load(handle))
    return rep


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def verify_op(ids, order):
    id_args = ["--id", "all"] if ids == REGISTRY_IDS else [a for i in ids for a in ("--id", i)]
    args = ["verify"] + id_args + ["--order", str(order), "--format", "json"]
    check = lambda text: oracles.check_registry(json.loads(text), ids, order)  # noqa: E731
    # The traced run keeps registry ids in one thread, in registry order, so
    # its counts repeat exactly and a shared cache build is booked to the
    # first id that needs it.
    return Op("cli", args, len(ids), check, env={"CHARMOD_THREADS": "1"})


def registry_o24(rng):
    return [verify_op(REGISTRY_IDS, 24)], "charmod.cli"


def random_rank3(rng):
    """A seeded symmetric rank-3 tensor, entries in [-3, 3], whose
    characteristic elements form exactly one class mod 2, and that class.

    One class mod 2 means 64 characteristic classes mod 8, so every such
    form costs the sweep the same number of ``solve_bhat`` calls.
    """
    while True:
        entries = {idx: rng.randint(-3, 3) for idx in itertools.combinations_with_replacement(range(3), 3)}
        tensor = [[[entries[tuple(sorted((i, j, k)))] for k in range(3)] for j in range(3)] for i in range(3)]
        parities = [p for p in itertools.product((0, 1), repeat=3) if oracles.is_characteristic(tensor, p)]
        if len(parities) == 1:
            return tensor, parities[0]


def cli_cold(rng):
    ops = [verify_op((reg_id,), 12) for reg_id in REGISTRY_IDS]
    ops.append(Op("cli", ["e8", "--order", "12"], 1, lambda text: oracles.check_e8(text, 12)))
    for kind in THETA_KINDS:
        tau, v = rng.choice(THETA_POINTS)
        ops.append(
            Op(
                "cli",
                ["theta-check", "--kind", kind, "--tau=" + tau, "--v=" + v, "--format", "json"],
                1,
                lambda text, kind=kind: oracles.check_theta(json.loads(text), kind, THETA_TOL),
            )
        )
    for index in range(LATTICE_FILES):
        tensor, parity = random_rank3(rng)
        a = [p + 2 * rng.randrange(4) for p in parity]
        path = os.path.relpath(os.path.join(OUT, "lattice-%d.json" % index), ROOT)
        with open(path, "w") as handle:
            json.dump({"rank": 3, "trilinear": tensor, "a": a, "modulus": 24, "seed": rng.randrange(10**6)}, handle)
        ops.append(
            Op(
                "cli",
                ["lattice", "--file", path, "--format", "json"],
                1,
                lambda text, t=tensor, a=a: oracles.check_lattice_report(json.loads(text), t, a),
            )
        )
    return ops, "charmod.cli"


def sweep_forms(rng):
    """Every rank-1 form, a stratified seeded sample of the 7^4 rank-2 forms
    and seeded rank-3 forms, all with entries in [-3, 3].

    Rank-2 forms are grouped by how many of the four classes mod 2 are
    characteristic (that fixes how many ``solve_bhat`` calls a form needs),
    and each group gives the same number of forms on every seed, so the
    work per sweep does not depend on the seed.
    """
    entries = range(-3, 4)
    forms = [[[[t]]] for t in entries]
    strata = {}
    for t0, t1, t2, t3 in itertools.product(entries, repeat=4):
        tensor = [[[t0, t1], [t1, t2]], [[t1, t2], [t2, t3]]]
        count = sum(oracles.is_characteristic(tensor, p) for p in itertools.product((0, 1), repeat=2))
        strata.setdefault(count, []).append(tensor)
    total = sum(len(s) for s in strata.values())
    for count in sorted(strata):
        forms += rng.sample(strata[count], round(RANK2_FORMS * len(strata[count]) / total))
    forms += [random_rank3(rng)[0] for _ in range(RANK3_FORMS)]
    return [{"tensor": t, "pick": rng.randrange(512)} for t in forms]


def lattice_sweep(rng):
    forms = sweep_forms(rng)
    job = os.path.join(OUT, "sweep-input.json")
    result = os.path.join(OUT, "sweep-output.json")
    with open(job, "w") as handle:
        json.dump({"forms": forms, "samples": SWEEP_SAMPLES, "seed": rng.randrange(10**6)}, handle)

    def check(text):
        results = json.loads(text)
        if len(results) != len(forms):
            return ["sweep: %d results for %d forms" % (len(results), len(forms))]
        problems = []
        for form, got in zip(forms, results):
            problems += oracles.check_sweep_form(got, form["tensor"], form["pick"])
        return problems

    return [Op("sweep", [job, result], len(forms), check, output=result)], "charmod.cubiclattice"


#: cli-cold runs by name but is not in BENCHMARK.json: a rep is 32 processes,
#: too long to time each of them often enough in a run (README, noise item 1)
WORKLOADS = {"registry-o24": registry_o24, "cli-cold": cli_cold, "lattice-sweep": lattice_sweep}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def measure(ops, entry, seconds, trace):
    """Whole rounds, started while the mean round still fits in ``seconds``.

    A round is one rep followed by the set-up and probe spawns that fell
    due during it, one of each per ``SETUP_EVERY_S`` of the run, so both
    are sampled across the whole run rather than in one burst;
    ``SETUP_LAST`` more of each follow the last round.  In a trace run
    every untraced rep is followed by a traced one instead, both with the
    ops' trace-run environment, so their difference is the tracing
    overhead.
    """
    plain, traced, setup, probes = [], [], [], []
    setup_spawns(entry, 1)  # writes the bytecode caches, paid once per install
    started = time.perf_counter()
    while True:
        plain.append(run_rep(ops, traced=False, op_env=trace))
        if trace:
            traced.append(run_rep(ops, traced=True, op_env=True))
        else:
            due = int((time.perf_counter() - started) / SETUP_EVERY_S) - len(setup)
            for _ in range(due):
                setup += setup_spawns(entry, 1)
                probes += probe_spawns(1)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(plain) > seconds:
            break
    if not trace:
        for _ in range(SETUP_LAST):
            setup += setup_spawns(entry, 1)
            probes += probe_spawns(1)
    return plain, traced, setup, probes


def check_reps(ops, reps):
    """Returns (attempted, failed, problems); equal outputs are checked once."""
    attempted = failed = 0
    problems, seen = [], {}
    for rep in reps:
        for index, op in enumerate(ops):
            attempted += op.verdicts
            text = rep["outputs"][index]
            if text is None:
                failed += op.verdicts
                continue
            key = (index, text)
            if key not in seen:
                try:
                    seen[key] = op.check(text)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    seen[key] = ["op %d: unreadable output (%s: %s)" % (index, type(exc).__name__, exc)]
            problems += seen[key]
    return attempted, failed, problems


def layer_values(rep):
    summary = tracer.summarize(rep["spans"])
    return {
        metric: summary[span][field] if span in summary else 0
        for metric, _, span, field in layer_metrics()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "charmod", "cli.py")):
        print("error: no charmod sources at %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    rng = random.Random(args.seed)
    ops, entry = WORKLOADS[args.workload](rng)
    plain, traced, setup, probes = measure(ops, entry, args.seconds, trace=bool(args.trace))
    with open(os.path.join(OUT, "samples.json"), "w") as handle:
        # every timing the metrics are taken from, unscaled, for looking at the noise
        json.dump({
            "setup_s": setup,
            "probes": probes,
            "walls": [rep["walls"] for rep in plain],
            "cpus": [rep["cpus"] for rep in plain],
            "traced_walls": [rep["walls"] for rep in traced],
        }, handle)
    attempted, failed, problems = check_reps(ops, plain + traced)
    for problem in problems[:20]:
        print("check failed: %s" % problem, file=sys.stderr)

    def median(reps, key):
        return statistics.median(rep[key] for rep in reps)

    def fastest(reps, key):
        """Each op's smallest value over the reps, summed over the ops."""
        return sum(min(per_op) for per_op in zip(*(rep[key] for rep in reps)))

    if args.trace:
        per_rep = [layer_values(rep) for rep in traced]
        units = {metric: unit for metric, unit, _, _ in layer_metrics()}
        values = {metric: statistics.median(v[metric] for v in per_rep) for metric in units}
        units.update({"trace.verdict_s": "s", "trace.overhead_s": "s"})
        values["trace.verdict_s"] = median(traced, "verdict_s")
        values["trace.overhead_s"] = median(traced, "verdict_s") - median(plain, "verdict_s")
    else:
        units = dict(END_TO_END)
        wall_scale = PROBE_REF_S / min(wall for wall, _ in probes)
        cpu_scale = PROBE_REF_S / min(cpu for _, cpu in probes)
        values = {
            "setup_s": min(setup) * wall_scale,
            "verdict_s": fastest(plain, "walls") * wall_scale,
            "cpu_s": fastest(plain, "cpus") * cpu_scale,
            "peak_rss_mb": median(plain, "peak_rss_mb"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
