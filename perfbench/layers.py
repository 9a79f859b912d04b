"""Per-layer metrics for the traced run.

Every metric times one public call of one package module, made directly by
the benchmark on inputs from the same generators as the workloads (seeded
from the run's seed).  The traced loop's spans are written out for
inspection but feed no metric here, so each name has one meaning on every
workload.  Self times of a call that contains another module's public call
come from pairs: the outer call and the inner calls run back to back on the
same input, and the self time is the median of the per-pair differences,
labelled ``derived``.  Counts worked out by the benchmark rather than read
from the package are labelled ``computed``.
"""

from __future__ import annotations

import contextlib
import io
import re
import statistics
import subprocess
import sys
import time

import numpy as np

import chainbsde as cb
from chainbsde import cli as cb_cli
from chainbsde.circuits import circuit_driver

import workloads as wl
from tracing import OFF

PAIRS = 15  # outer/inner pairs per derived self time


def med_ms(fn, min_reps=3, budget_s=0.2, max_reps=50):
    """Median wall time of ``fn()`` in ms: at least ``min_reps`` calls, more
    while the total stays under ``budget_s``."""
    times = []
    while len(times) < min_reps or (sum(times) < budget_s and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def paired_ms(outer, inner, pairs=PAIRS):
    """Call ``outer()`` and ``inner()`` back to back ``pairs`` times,
    alternating which goes first so that machine drift between the two
    calls cancels.  Returns the median outer time and the median of the
    per-pair differences outer - inner, both in ms."""
    outs, diffs = [], []
    for i in range(pairs):
        t = {}
        for name, fn in ((("outer", outer), ("inner", inner)) if i % 2 == 0
                         else (("inner", inner), ("outer", outer))):
            t0 = time.perf_counter()
            fn()
            t[name] = 1e3 * (time.perf_counter() - t0)
        outs.append(t["outer"])
        diffs.append(t["outer"] - t["inner"])
    return statistics.median(outs), statistics.median(diffs)


def eval_us(driver, u, free):
    """Mean ``MarkovianDriver.eval`` time at the field ``u`` over free states."""
    def sweep():
        for x in free:
            driver.eval(x, 0.0, u[x], u)
    return 1e3 * med_ms(sweep) / max(1, len(free))


class Probe:
    def __init__(self):
        self.metrics, self.labels = {}, {}

    def put(self, name, value, unit, label="measured"):
        self.metrics[name] = {"value": float(value), "unit": unit}
        self.labels[name] = label


def stationary_layers(pr, rng, size):
    n = size["n"]

    aff = wl.make_affine(rng, n)
    a = cb.validate_rate_matrix(aff["q"])
    b = cb.validate_rate_matrix(aff["qb"])
    d_aff = cb.affine_driver(a, b, g=aff["g"], r=aff["r"])
    pr.put("chain.validate_ms", med_ms(lambda: cb.validate_rate_matrix(aff["q"])), "ms")
    pr.put("chain.reach_ms", med_ms(lambda: cb.states_reaching(a, {0})), "ms")
    pr.put("solver.problem_ms", med_ms(lambda: cb.HittingProblem(a, {0}, aff["phi"], d_aff)), "ms")

    ctl = wl.make_control(rng, n)
    ac = cb.validate_rate_matrix(ctl["q"])
    cs = wl.control_set(OFF, ac, ctl["mats"], ctl["cost"])
    pr.put("chain.max_gamma_ms", med_ms(lambda: cb.max_gamma(ac, cs.matrices)), "ms")

    rel = wl.make_reliability(rng, n)
    ar = cb.validate_rate_matrix(rel["q"])
    rcs = wl.control_set(OFF, ar, rel["mats"], np.zeros((n, len(rel["mats"]))))
    phi_r = np.zeros(n)
    phi_r[0] = 1.0

    pth = wl.make_paths(rng, n)
    g = cb.GraphSpec(pth["d"], 0, (pth["speed"],))

    circ = wl.make_circuit(rng, size["nodes"])
    c = cb.parse_netlist(circ["netlist"])
    ref = cb.reference_matrix(c)
    d_c = circuit_driver(c, ref)

    # the problem each stationary kind hands to solve_homogeneous, built as
    # the package's own entry point builds it
    build = {
        "affine": lambda: cb.HittingProblem(a, {0}, aff["phi"], d_aff),
        "control": lambda: cb.HittingProblem(ac, {0}, ctl["phi"], cb.hamiltonian_inf(cs)),
        "reliability": lambda: cb.HittingProblem(
            ar, {0} | rel["dead"], phi_r,
            cb.reliability_driver(ar, rel["loss"], control_matrices=[ar] + list(rcs.matrices))),
        "paths": lambda: cb.HittingProblem(
            g.walk, {0}, np.zeros(n), cb.shortest_path_driver(g.walk, [g.walk] + list(g.speedups))),
        "circuit": lambda: cb.HittingProblem(ref, frozenset(c.sources), c.source_vector, d_c,
                                             require_reachable=True),
    }
    sols = {}
    for kind, make in build.items():
        p = make()
        pr.put(f"solver.homogeneous_ms.{kind}",
               med_ms(lambda: sols.__setitem__(kind, cb.solve_homogeneous(p))), "ms")
        pr.put(f"solver.newton_iterations.{kind}", sols[kind].iterations, "count", "count")
        driver = {"control": "hamiltonian", "paths": "shortest_path"}.get(kind, kind)
        pr.put(f"drivers.eval_us.{driver}", eval_us(p.driver, sols[kind].u, p.free_states), "us")

    pol = cb.solve_control(cs, ac, {0}, ctl["phi"]).policy_indices

    def control_inner():
        cb.solve_homogeneous(build["control"]())
        cb.stationary_policy_value(cs, ac, {0}, ctl["phi"], pol)

    # outer call -> the same input through its calls into other modules
    pairs = {
        "apps.solve_control": (lambda: cb.solve_control(cs, ac, {0}, ctl["phi"]), control_inner),
        "apps.reliability": (lambda: cb.reliability(ar, rel["loss"], rel["dead"], 0, rcs),
                             lambda: cb.solve_homogeneous(build["reliability"]())),
        "apps.shortest_path": (lambda: cb.shortest_path_times(g),
                               lambda: cb.solve_homogeneous(build["paths"]())),
        "circuits.solve": (lambda: cb.solve_circuit(c), lambda: cb.solve_homogeneous(build["circuit"]())),
    }
    for name, (outer, inner) in pairs.items():
        t_outer, t_self = paired_ms(outer, inner)
        pr.put(f"{name}_ms", t_outer, "ms")
        pr.put(f"{name}_self_ms", t_self, "ms", "derived")
    pr.put("apps.policy_value_ms",
           med_ms(lambda: cb.stationary_policy_value(cs, ac, {0}, ctl["phi"], pol)), "ms")
    pr.put("apps.graph_ms", med_ms(lambda: cb.GraphSpec(pth["d"], 0, (pth["speed"],))), "ms")

    t_nodal = med_ms(lambda: cb.newton_nodal(c))
    pr.put("circuits.nodal_ms", t_nodal, "ms")
    pr.put("circuits.chain_to_nodal", pr.metrics["circuits.solve_ms"]["value"] / t_nodal, "ratio", "derived")
    pr.put("circuits.iterations", sols["circuit"].iterations, "count", "count")


def horizon_layers(pr, rng, size):
    grid = wl.make_grid(rng, size["n_grid"])
    p = wl.affine_problem(OFF, grid)
    h = 0.1 / p.chain.max_rate
    pr.put("solver.rk4_step_ms", med_ms(lambda: cb.solve_backward_grid(p, h, 1)), "ms")
    pr.put("solver.grid_steps", grid["steps"], "count", "computed")
    tr = wl.make_affine(rng, size["n"])
    pt = wl.affine_problem(OFF, tr)
    pr.put("solver.truncation_ms", med_ms(lambda: cb.truncation_sequence(pt, wl.HORIZONS)), "ms")

    env = wl.make_envelope(rng, size["n"])
    a = cb.validate_rate_matrix(env["q"])
    ck = cb.condition_K(a, wl.GAMMA, {0}, 0.5)
    rep = cb.worst_case_exp_moment(a, wl.GAMMA, {0}, ck.beta_prime)
    pr.put("ergodicity.condition_K_ms", med_ms(lambda: cb.condition_K(a, wl.GAMMA, {0}, 0.5)), "ms")
    pr.put("ergodicity.worst_case_ms",
           med_ms(lambda: cb.worst_case_exp_moment(a, wl.GAMMA, {0}, ck.beta_prime)), "ms")
    pr.put("ergodicity.worst_case_iterations", rep.iterations, "count", "count")
    pr.put("ergodicity.exp_moment_ms", med_ms(lambda: cb.exp_moment(a, {0}, ck.beta_prime)), "ms")


def montecarlo_layers(pr, rng, size):
    n = size["n"]
    aff = wl.make_mc_affine(rng, n)
    p = wl.affine_problem(OFF, aff)
    kw = {"paths": wl.MC_PATHS, "seed": aff["seed"], "start_states": aff["starts"]}
    t_aff = med_ms(lambda: cb.mc_validate(p, aff["values"], **kw))
    pr.put("montecarlo.validate_ms.affine", t_aff, "ms")
    pr.put("montecarlo.as_mc_problem_ms", med_ms(lambda: cb.as_mc_problem(p)), "ms")
    rel = wl.make_mc_reliability(rng, n)
    pr.put("montecarlo.validate_ms.reliability",
           med_ms(lambda: wl.run_mc_reliability(rel, OFF)), "ms")
    # expected jumps per path: running reward = exit rate, no discount
    lam = -np.diag(aff["qb"])
    jumps = wl.oracles.linear_field_oracle(aff["qb"], {0}, np.zeros(n), lam, np.zeros(n))
    per_path = float(np.mean(jumps[aff["starts"]]))
    pr.put("montecarlo.expected_jumps", per_path, "count", "computed")
    total = per_path * len(aff["starts"]) * wl.MC_PATHS
    pr.put("montecarlo.path_jumps_per_s", total / (t_aff / 1e3), "1/s", "computed")


def run_child(argv, env, cwd=None):
    t0 = time.perf_counter()
    res = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"{argv} failed: {res.stderr[-1000:]}")
    return time.perf_counter() - t0, res


IMPORT_GROUPS = ("numpy", "scipy.linalg", "scipy.optimize", "chainbsde")


def import_times(env):
    """Exclusive import cost (ms) of each group in ``import chainbsde``:
    every module's self time goes to its nearest enclosing group, so
    ``scipy.linalg`` pulled in by ``scipy.optimize`` counts once."""
    _, res = run_child([sys.executable, "-X", "importtime", "-c", "import chainbsde"], env)
    entries = []
    for line in res.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1)) / 1e3))
    # lines come children first; walking backwards meets each parent first
    totals = dict.fromkeys(IMPORT_GROUPS, 0.0)
    stack = []  # (indent, group of the nearest enclosing group or None)
    for indent, name, self_ms in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        group = name if name in totals else (stack[-1][1] if stack else None)
        stack.append((indent, group))
        if group is not None:
            totals[group] += self_ms
    return totals


def cli_layers(pr, state, args):
    cli = state.get("cli")
    if cli is None:  # in-process workloads: write the same inputs in a scratch dir
        rng = np.random.default_rng([args.seed, 0])
        cli = wl.Cli(rng, state["size"], state["workdir"] / "layers", state["env"])
        cli.write_inputs()
    env, wd = cli.env, cli.workdir
    py = sys.executable
    pr.put("cli.interpreter_ms", 1e3 * statistics.median(
        run_child([py, "-c", "pass"], env)[0] for _ in range(5)), "ms")
    pr.put("cli.import_ms", 1e3 * statistics.median(
        run_child([py, "-c", "import chainbsde"], env)[0] for _ in range(3)), "ms")
    samples = [import_times(env) for _ in range(3)]
    for mod in IMPORT_GROUPS:
        pr.put(f"cli.import_self_ms.{mod}", statistics.median(s[mod] for s in samples), "ms")

    def main(argv):
        if cb_cli.main(argv) != 0:
            raise RuntimeError(f"chainbsde {' '.join(argv)} failed in-process")

    for name, argv in cli.commands().items():
        full = [str(wd / a) if (wd / a).suffix in (".json", ".net", ".csv") else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            pr.put(f"cli.main_ms.{name}", med_ms(lambda: main(full)), "ms")

    pr.put("io.load_ms.problem", med_ms(lambda: cb.load_problem(wd / "problem.json")), "ms")
    pr.put("io.load_ms.chain", med_ms(lambda: cb.load_chain(wd / "chain30.json")), "ms")
    pr.put("io.load_ms.graph", med_ms(lambda: cb.load_graph(wd / "graph.json")), "ms")
    csv = wd / "truncation.csv"
    meta, cols, rows = cb.read_csv(csv)
    pr.put("io.read_csv_ms", med_ms(lambda: cb.read_csv(csv)), "ms")
    pr.put("io.write_csv_ms", med_ms(lambda: cb.write_csv(wd / "rewrite.csv", meta, cols, rows)), "ms")
    pr.put("io.sha256_ms", med_ms(lambda: cb.sha256_of(csv)), "ms")
    return cli


def overhead_pct(ops):
    """Traced against untraced rounds of the same loop: sum over kinds of
    the median op time, in percent."""
    kinds = dict.fromkeys(n for n, _, _ in ops)
    on = sum(statistics.median([d for n, d, t in ops if n == k and t]) for k in kinds)
    off = sum(statistics.median([d for n, d, t in ops if n == k and not t]) for k in kinds)
    return 100.0 * (on / off - 1.0)


def measure(args, state, ops):
    pr = Probe()
    rng = np.random.default_rng([args.seed, 2])
    stationary_layers(pr, rng, state["size"])
    horizon_layers(pr, rng, state["size"])
    montecarlo_layers(pr, rng, state["size"])
    cli_layers(pr, state, args)

    pr.put("trace.overhead_pct", overhead_pct(ops), "%", "derived")
    return dict(sorted(pr.metrics.items())), pr.labels
