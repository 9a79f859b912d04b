"""The four workloads: op kinds, their inputs and their oracle checks.

Each op kind has ``make(rng, size)`` (raw inputs, untimed), ``run(inp, tr)``
(the timed op: raw arrays through the public constructors to the returned
solution, with a span around every public call), ``check(inp, out)``
(after the clock stops; raises :class:`CheckFailed`) and ``values(out)``
(the numbers that go into the run's digest).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import chainbsde as cb
from chainbsde.errors import ChainBsdeError

import gen

_spec = importlib.util.spec_from_file_location("chainbsde_oracles", Path("tests") / "conftest.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

GAMMA = 0.5
LEAK = 0.05


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


@dataclass
class Kind:
    name: str
    make: Callable
    run: Callable
    check: Callable
    values: Callable


def call(tr, name, fn, *args, **kwargs):
    with tr.span(name):
        return fn(*args, **kwargs)


def close(got, want, tol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.abs(want).max()))
    err = float(np.abs(got - want).max())
    if not err <= tol * scale:
        raise CheckFailed(f"{what}: max error {err:.3e} exceeds {tol:.0e} x {scale:.3g}")


def small(res, tol, what):
    res = float(np.abs(res).max())
    if not res <= tol:
        raise CheckFailed(f"{what}: residual {res:.3e} exceeds {tol:.0e}")


def free_of(n, target):
    return np.array([i for i in range(n) if i not in set(target)], dtype=int)


def validate(tr, q):
    return call(tr, "chain.validate_rate_matrix", cb.validate_rate_matrix, q)


# -- stationary ------------------------------------------------------------


def make_affine(rng, n):
    q = gen.spine_chain(rng, n)
    return {"q": q, "qb": gen.ratio_member(rng, q), "g": rng.normal(size=n),
            "r": rng.uniform(0.05, 1.0, size=n), "phi": rng.normal(size=n)}


def affine_problem(tr, inp):
    a = validate(tr, inp["q"])
    b = validate(tr, inp["qb"])
    d = call(tr, "drivers.affine_driver", cb.affine_driver, a, b, g=inp["g"], r=inp["r"])
    return call(tr, "solver.HittingProblem", cb.HittingProblem, a, {0}, inp["phi"], d)


def run_affine(inp, tr):
    return call(tr, "solver.solve_homogeneous", cb.solve_homogeneous, affine_problem(tr, inp))


def check_affine(inp, sol):
    want = oracles.linear_field_oracle(inp["qb"], {0}, inp["phi"], inp["g"], inp["r"])
    close(sol.u, want, 1e-8, "affine field vs dense solve")


def make_control(rng, n):
    q = gen.spine_chain(rng, n)
    return {"q": q, "mats": gen.control_family(rng, q, 3),
            "cost": rng.uniform(0.5, 2.0, size=(n, 3)), "phi": rng.normal(size=n)}


def control_set(tr, a, mats, cost):
    ms = tuple(validate(tr, m) for m in mats)
    labels = tuple(f"u{k}" for k in range(len(ms)))
    return call(tr, "drivers.ControlSet", cb.ControlSet, labels, ms, cost, a)


def run_control(inp, tr):
    a = validate(tr, inp["q"])
    cs = control_set(tr, a, inp["mats"], inp["cost"])
    return call(tr, "apps.solve_control", cb.solve_control, cs, a, {0}, inp["phi"])


def bellman(mats, u, free, extra):
    """Per-control Hamiltonian terms ``extra[:, k] + (Q_k^T u)`` on free states."""
    return np.stack([extra[:, k] + (np.asarray(m).T @ u)[free] for k, m in enumerate(mats)], axis=1)


def check_control(inp, sol):
    u = sol.value.u
    n = u.size
    free = free_of(n, {0})
    small(bellman(inp["mats"], u, free, inp["cost"][free]).min(axis=1), 1e-7, "control Bellman residual")
    want = oracles.policy_value_oracle(inp["mats"], inp["cost"], sol.policy_indices, {0}, inp["phi"])
    close(u, want, 1e-7, "control value vs policy-value solve")


def make_reliability(rng, n):
    q = gen.spine_chain(rng, n)
    return {"q": q, "mats": gen.control_family(rng, q, 2),
            "loss": rng.uniform(0.01, 0.2, size=n),
            "dead": {int(x) for x in rng.choice(np.arange(1, n), size=3, replace=False)}}


def run_reliability(inp, tr):
    a = validate(tr, inp["q"])
    cs = control_set(tr, a, inp["mats"], np.zeros((a.n, len(inp["mats"]))))
    return call(tr, "apps.reliability", cb.reliability, a, inp["loss"], inp["dead"], 0, cs)


def check_reliability(inp, sol):
    u = sol.value.u
    n = u.size
    target = {0} | inp["dead"]
    free = free_of(n, target)
    mats = [inp["q"]] + list(inp["mats"])
    zero = np.zeros((free.size, len(mats)))
    res = bellman(mats, u, free, zero).max(axis=1) - inp["loss"][free] * u[free]
    small(res, 1e-8, "reliability Bellman residual")
    if u[0] != 1.0 or any(u[x] != 0.0 for x in inp["dead"]) or u.min() < -1e-12 or u.max() > 1 + 1e-12:
        raise CheckFailed("reliability: boundary values or [0, 1] range violated")


def make_paths(rng, n):
    d, walk, speed = gen.graph(rng, n)
    return {"d": d, "walk": walk, "speed": speed}


def run_paths(inp, tr):
    g = call(tr, "apps.GraphSpec", cb.GraphSpec, inp["d"], 0, (inp["speed"],))
    return call(tr, "apps.shortest_path_times", cb.shortest_path_times, g)


def check_paths(inp, out):
    full, rem = out
    u = rem.u
    free = free_of(u.size, {0})
    ones = np.ones((free.size, 2))
    small(bellman([inp["walk"], inp["speed"]], u, free, ones).min(axis=1), 1e-8, "paths Bellman residual")
    if u[0] != 0.0 or not np.array_equal(full.field_at(0.0), u):
        raise CheckFailed("paths: target value or arrival-time identity violated")


def make_circuit(rng, nodes):
    return {"netlist": gen.diode_ladder(rng, nodes)}


def run_circuit(inp, tr):
    c = call(tr, "circuits.parse_netlist", cb.parse_netlist, inp["netlist"])
    return call(tr, "circuits.solve_circuit", cb.solve_circuit, c)


def check_circuit(inp, sol):
    want = cb.newton_nodal(cb.parse_netlist(inp["netlist"]))
    close(sol.u, want, 1e-6, "circuit potentials vs Newton nodal analysis")


# -- horizon ---------------------------------------------------------------


def make_grid(rng, n):
    inp = make_affine(rng, n)
    inp["steps"] = int(np.ceil(np.abs(np.diag(inp["q"])).max() / 0.1))
    return inp


def run_grid(inp, tr):
    p = affine_problem(tr, inp)
    return call(tr, "solver.solve_backward_grid", cb.solve_backward_grid, p, 1.0, inp["steps"])


def check_grid(inp, sol):
    want = oracles.expm_grid_oracle(inp["qb"], {0}, inp["phi"], inp["g"], inp["r"], inp["phi"], 1.0)
    close(sol.u[0], want, 1e-6, "grid field at t=0 vs matrix exponential")


HORIZONS = (1.0, 2.0, 4.0)


def run_truncation(inp, tr):
    p = affine_problem(tr, inp)
    return call(tr, "solver.truncation_sequence", cb.truncation_sequence, p, HORIZONS)


def check_truncation(inp, diag):
    tv = np.zeros(inp["phi"].size)
    tv[0] = inp["phi"][0]
    for T, got in zip(HORIZONS, diag.values_at_zero):
        want = oracles.expm_grid_oracle(inp["qb"], {0}, inp["phi"], inp["g"], inp["r"], tv, T)
        close(got, want, 1e-6, f"truncation at horizon {T} vs matrix exponential")


def make_envelope(rng, n):
    return {"q": gen.spine_chain(rng, n, leak=LEAK), "box_seed": int(rng.integers(2**31))}


def run_envelope(inp, tr):
    a = validate(tr, inp["q"])
    return call(tr, "ergodicity.condition_K", cb.condition_K, a, GAMMA, {0}, 0.5)


def check_envelope(inp, ck):
    a = cb.validate_rate_matrix(inp["q"])
    member = cb.sample_box_member(a, GAMMA, seed=inp["box_seed"])
    for label, chain in (("reference", a), ("box member", member)):
        m = cb.exp_moment(chain, {0}, ck.beta_prime)
        if not m.finite or not ck.h_sup >= float(m.values.max()) * (1.0 - 1e-9):
            raise CheckFailed(f"envelope: h_sup={ck.h_sup!r} does not dominate the {label}'s moment")


# -- montecarlo ------------------------------------------------------------

MC_PATHS = 1000
MC_MIN_VALUE = 0.05  # expected successes per start >= 50 at 1000 paths
MC_SHORT_LEAK = 1.0  # about one jump in five reaches the target: short paths


def make_mc_affine(rng, n):
    q = gen.spine_chain(rng, n, leak=LEAK)
    qb = gen.ratio_member(rng, q)
    g, r = rng.uniform(0.5, 1.5, size=n), rng.uniform(0.01, 0.05, size=n)
    phi = np.zeros(n)
    phi[0] = rng.uniform(1.0, 2.0)
    return {"q": q, "qb": qb, "g": g, "r": r, "phi": phi, "seed": int(rng.integers(2**31)),
            "starts": [1, n // 3, (2 * n) // 3, n - 1],
            "values": oracles.linear_field_oracle(qb, {0}, phi, g, r)}


def run_mc_affine(inp, tr):
    p = affine_problem(tr, inp)
    return call(tr, "montecarlo.mc_validate", cb.mc_validate, p, inp["values"], paths=MC_PATHS,
                seed=inp["seed"], start_states=inp["starts"])


def make_mc_reliability(rng, n):
    q = gen.spine_chain(rng, n, leak=MC_SHORT_LEAK)
    loss = rng.uniform(0.01, 0.2, size=n)
    dead = sorted(int(x) for x in rng.choice(np.arange(1, n), size=max(1, n // 20), replace=False))
    phi = np.zeros(n)
    phi[0] = 1.0
    values = oracles.linear_field_oracle(q, {0, *dead}, phi, np.zeros(n), loss)
    # A start whose delivery odds are tiny sees every path die: the estimate
    # and its standard error are both 0 and no z-score exists.
    return {"q": q, "loss": loss, "dead": dead, "phi": phi, "seed": int(rng.integers(2**31)),
            "starts": gen.spread_starts(q, [0] + dead, eligible=values >= MC_MIN_VALUE),
            "values": values}


def run_mc_reliability(inp, tr):
    a = validate(tr, inp["q"])
    d = call(tr, "drivers.reliability_driver", cb.reliability_driver, a, inp["loss"])
    p = call(tr, "solver.HittingProblem", cb.HittingProblem, a, {0, *inp["dead"]}, inp["phi"], d)
    return call(tr, "montecarlo.mc_validate", cb.mc_validate, p, inp["values"], paths=MC_PATHS,
                seed=inp["seed"], start_states=inp["starts"])


def check_mc(inp, rep):
    z = np.asarray(rep.z_scores)
    if not (np.isfinite(z).all() and np.abs(z).max() <= 5.0):
        raise CheckFailed(f"montecarlo: z-scores {np.round(z, 2).tolist()} exceed 5")


def mc_values(rep):
    return np.concatenate([rep.estimates, rep.standard_errors])


def field(sol):
    return sol.u


STATIONARY = {
    "affine": Kind("affine", lambda rng, s: make_affine(rng, s["n"]), run_affine, check_affine, field),
    "control": Kind("control", lambda rng, s: make_control(rng, s["n"]), run_control, check_control,
                    lambda sol: sol.value.u),
    "reliability": Kind("reliability", lambda rng, s: make_reliability(rng, s["n"]), run_reliability,
                        check_reliability, lambda sol: sol.value.u),
    "paths": Kind("paths", lambda rng, s: make_paths(rng, s["n"]), run_paths, check_paths,
                  lambda out: out[1].u),
    "circuit": Kind("circuit", lambda rng, s: make_circuit(rng, s["nodes"]), run_circuit,
                    check_circuit, field),
}
HORIZON = {
    "grid": Kind("grid", lambda rng, s: make_grid(rng, s["n_grid"]), run_grid, check_grid,
                 lambda sol: sol.u[0]),
    "truncation": Kind("truncation", lambda rng, s: make_affine(rng, s["n"]), run_truncation,
                       check_truncation, lambda d: np.concatenate(d.values_at_zero)),
    "envelope": Kind("envelope", lambda rng, s: make_envelope(rng, s["n"]), run_envelope,
                     check_envelope, lambda ck: np.array([ck.abscissa, ck.h_sup, ck.k])),
}
MONTECARLO = {
    "affine": Kind("affine", lambda rng, s: make_mc_affine(rng, s["n"]), run_mc_affine, check_mc,
                   mc_values),
    "reliability": Kind("reliability", lambda rng, s: make_mc_reliability(rng, s["n"]),
                        run_mc_reliability, check_mc, mc_values),
}


# -- cli -------------------------------------------------------------------


class Cli:
    """Fresh ``python -m chainbsde`` processes on input files written once
    per run, so every round repeats the same six commands."""

    def __init__(self, rng, size, workdir, env):
        self.workdir = Path(workdir)
        self.env = env
        self.paths_seed = int(rng.integers(2**31))
        self.chain30 = gen.spine_chain(rng, size["n_moments"], leak=LEAK)
        self.box = gen.box_member(rng, self.chain30, GAMMA)
        self.beta = 0.5 * GAMMA * LEAK  # below every box member's abscissa
        self.graph = gen.graph(rng, size["n_graph"])
        self.mc_paths = size["mc_paths"]
        self.first = {}
        self.peak_rss_kb = 0

    def write_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = {
            "problem.json": gen.README_PROBLEM,
            "chain30.json": {"rates": self.chain30.tolist()},
            "graph.json": {"distances": self.graph[0].tolist(), "target": 0,
                           "speedups": [self.graph[2].tolist()]},
        }
        for name, data in files.items():
            (self.workdir / name).write_text(json.dumps(data))
        (self.workdir / "circuit.net").write_text(gen.README_NETLIST)

    def commands(self):
        return {
            "validate": ["validate", "problem.json"],
            "solve": ["solve", "problem.json", "--out", "solve.csv"],
            "moments": ["moments", "chain30.json", "--target", "0", "--beta", repr(self.beta),
                        "--gamma", repr(GAMMA), "--worst-case", "--out", "moments.csv"],
            "paths": ["app", "graph.json", "--app", "paths", "--mc-paths", str(self.mc_paths),
                      "--seed", str(self.paths_seed), "--out", "paths.csv"],
            "circuit": ["app", "circuit.net", "--app", "circuit", "--out", "circuit.csv"],
            "truncation": ["truncation", "problem.json", "--horizons", "1", "2", "4", "8",
                           "--out", "truncation.csv"],
        }

    def oracle_values(self):
        p = gen.README_PROBLEM
        q = np.array(p["chain"]["rates"])
        args = (q, set(p["target"]), p["terminal"], p["driver"]["g"], p["driver"]["r"])
        tv = np.zeros(3)
        tv[2] = p["terminal"][2]
        walk, speed = self.graph[1], self.graph[2]
        self.want = {
            "solve": oracles.linear_field_oracle(*args),
            "truncation": [oracles.expm_grid_oracle(*args, tv, T) for T in (1, 2, 4, 8)],
            "circuit": cb.newton_nodal(cb.parse_netlist(gen.README_NETLIST)),
            "moments": [oracles.resolvent_oracle(m, {0}, self.beta) for m in (self.chain30, self.box)],
            "paths": (walk, speed),
        }

    def kinds(self):
        """One op kind per command; its input is the command name."""
        return [Kind(name, lambda rng, size, name=name: name, self.run, self.check, self.values)
                for name in self.commands()]

    def run(self, name, tr):
        argv = [sys.executable, "-m", "chainbsde"] + self.commands()[name]
        with tr.span(f"cli.process.{name}"):
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        csv = self.workdir / self.commands()[name][-1]
        data = out if name == "validate" else csv.read_bytes()
        return {"code": proc.returncode, "out": out.decode(errors="replace"), "data": data}

    def check(self, name, res):
        if res["code"] != 0:
            raise CheckFailed(f"exit code {res['code']}: {res['out'][-300:]}")
        digest = hashlib.sha256(res["data"]).hexdigest()
        if self.first.setdefault(name, digest) != digest:
            raise CheckFailed("rerun of an identical command changed the output bytes")
        if name == "validate":
            if not json.loads(res["out"])["ok"]:
                raise CheckFailed("validate reported the README problem invalid")
            return
        cols, rows = read_table(res["data"])
        col = lambda c: np.array([r[cols.index(c)] for r in rows], dtype=float)  # noqa: E731
        if name == "solve":
            close(col("u"), self.want["solve"], 1e-9, "cli solve vs dense solve")
        elif name == "truncation":
            for k, T in enumerate((1, 2, 4, 8)):
                close(col("value")[col("horizon") == T], self.want["truncation"][k], 1e-8,
                      f"cli truncation at horizon {T}")
        elif name == "circuit":
            close(col("volts"), self.want["circuit"], 1e-6, "cli circuit vs Newton nodal analysis")
        elif name == "moments":
            h = col("h")
            for ref in self.want["moments"]:
                if ref is None or h.size != ref.size or (h < ref * (1.0 - 1e-9)).any():
                    raise CheckFailed("cli worst-case moment does not dominate a family member")
        elif name == "paths":
            u = col("remaining")
            free = free_of(u.size, {0})
            small(bellman(self.want["paths"], u, free, np.ones((free.size, 2))).min(axis=1),
                  1e-8, "cli paths Bellman residual")
            if np.abs(col("mc_z")).max() > 5.0:
                raise CheckFailed("cli paths Monte Carlo z-score exceeds 5")

    @staticmethod
    def values(res):
        return np.frombuffer(hashlib.sha256(res["data"]).digest(), dtype=np.uint8).astype(float)


def read_table(data):
    """Independent reader for the CLI's CSV: JSON header line, columns, rows."""
    lines = data.decode().splitlines()
    cols = lines[1].split(",")
    rows = [[float(c) if c not in ("", "true", "false") and not c[0].isalpha() else c
             for c in line.split(",")] for line in lines[2:] if line]
    return cols, rows


FULL = {"n": 100, "n_grid": 200, "nodes": 12, "n_moments": 30, "n_graph": 8, "mc_paths": 2000}
TINY = {"n": 12, "n_grid": 16, "nodes": 5, "n_moments": 6, "n_graph": 5, "mc_paths": 200}

WORKLOADS = {
    "stationary": [STATIONARY[k] for k in ("affine", "control", "reliability", "paths", "circuit")],
    "horizon": [HORIZON[k] for k in ("grid", "truncation", "envelope")],
    # Two kinds in three slots: with an even split the median would fall in
    # the gap between the cheap and the expensive kind and jump with noise.
    "montecarlo": [MONTECARLO[k] for k in ("affine", "reliability", "reliability")],
}

__all__ = ["CheckFailed", "ChainBsdeError", "Cli", "WORKLOADS", "FULL", "TINY"]
