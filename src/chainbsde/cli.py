"""Command-line surface.

One command per process: ``validate``, ``solve``, ``moments``, ``app``,
``truncation``.  Every file-producing command writes its table as CSV with
a JSON metadata header plus a sibling ``<out>.manifest.json`` recording
the exact command, input digests, seed, tolerances, and output digests.
Identical inputs and seed reproduce byte-identical outputs; wall-clock
time appears only inside the manifest.

Exit codes: 0 ok, 1 input error (bad files, malformed specs, infeasible
requests), 2 numerical failure (no convergence, singular systems).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .apps import _policy_generator, reliability, shortest_path_times, solve_control
from .chain import validate_rate_matrix
from .circuits import (
    implied_matrix,
    kirchhoff_residuals,
    parse_netlist,
    solve_circuit,
)
from .drivers import shortest_path_driver
from .ergodicity import condition_K, exp_moment, worst_case_exp_moment
from .errors import InputError, NoFiniteExponentError, NumericalError
from .io import (
    load_chain,
    load_control,
    load_graph,
    load_problem,
    load_reliability,
    sha256_of,
    write_csv,
)
from .montecarlo import McProblem, mc_validate
from .solver import SolutionField, solve_backward_grid, solve_homogeneous, truncation_sequence

__all__ = ["main", "RunManifest"]


@dataclass
class RunManifest:
    """Reproducibility record written alongside every output file."""

    command: list[str]
    tool_version: str
    inputs: dict[str, str]
    seed: int | None
    tolerances: dict
    outputs: dict[str, str] = field(default_factory=dict)
    wall_clock_s: float = 0.0

    def write(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), sort_keys=True, indent=2) + "\n")


def _finish(args, manifest: RunManifest, meta, columns, rows, t0) -> None:
    write_csv(args.out, meta, columns, rows)
    _seal(manifest, args.out, t0)


def _seal(manifest: RunManifest, out, t0) -> None:
    """Record the digest of ``out`` and the wall time, then write the manifest."""
    manifest.outputs[str(out)] = sha256_of(out)
    manifest.wall_clock_s = time.perf_counter() - t0
    manifest.write(str(out) + ".manifest.json")


def _manifest(argv, files, seed, tolerances) -> RunManifest:
    return RunManifest(
        command=list(argv),
        tool_version=__version__,
        inputs={str(f): sha256_of(f) for f in files},
        seed=seed,
        tolerances=tolerances,
    )


def _spec_kind(data) -> tuple[str, Callable]:
    """The spec kind a JSON value declares by its keys, and its loader.  A
    reliability spec may carry ``controls`` too, so ``loss_rates`` is read
    first."""
    keys = data if isinstance(data, dict) else {}
    if "distances" in keys:
        return "graph", load_graph
    if "chain" in keys:
        if "loss_rates" in keys:
            return "reliability", load_reliability
        if "controls" in keys:
            return "control", load_control
        return "problem", load_problem
    return "chain", load_chain


def _cmd_validate(args, argv, t0) -> int:
    diagnostics = []
    ok = True
    try:
        data = json.loads(Path(args.file).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        data = None
        ok = False
        diagnostics.append({"check": "json", "ok": False, "detail": str(exc)})
    if data is not None:
        kind, load = _spec_kind(data)
        try:
            load(data)
            diagnostics.append({"check": kind, "ok": True, "detail": "valid"})
        except InputError as exc:
            ok = False
            diagnostics.append(
                {"check": kind, "ok": False, "error": type(exc).__name__, "detail": str(exc)}
            )
    report = {"ok": ok, "file": str(args.file), "diagnostics": diagnostics}
    print(json.dumps(report, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        _seal(_manifest(argv, [args.file], None, {}), args.out, t0)
    return 0 if ok else 1


def _cmd_solve(args, argv, t0) -> int:
    p = load_problem(args.problem_file)
    manifest = _manifest(
        argv, [args.problem_file], None,
        {"tol": args.tol, "horizon": args.horizon, "steps": args.steps},
    )
    if args.mode == "homogeneous":
        sol = solve_homogeneous(p, tol=args.tol)
        meta = {
            "command": "solve", "mode": "homogeneous", "tol": args.tol,
            "residual": sol.residual, "iterations": sol.iterations,
        }
        rows = [(x, sol.u[x]) for x in range(p.chain.n)]
        _finish(args, manifest, meta, ["state", "u"], rows, t0)
        return 0
    if args.horizon is None or args.steps is None:
        raise InputError("grid mode requires --horizon and --steps")
    sol = solve_backward_grid(p, args.horizon, args.steps)
    meta = {
        "command": "solve", "mode": "grid",
        "horizon": args.horizon, "steps": args.steps,
    }
    rows = [
        (float(t), x, float(sol.u[k, x]))
        for k, t in enumerate(sol.times)
        for x in range(p.chain.n)
    ]
    _finish(args, manifest, meta, ["t", "state", "u"], rows, t0)
    return 0


def _cmd_moments(args, argv, t0) -> int:
    a = load_chain(args.chain_file)
    target = set(args.target)
    gamma = args.gamma
    if args.worst_case:
        if gamma is None:
            raise InputError("--worst-case requires --gamma")
        report = worst_case_exp_moment(a, gamma, target, args.beta)
    else:
        report = exp_moment(a, target, args.beta)
    try:
        k = condition_K(a, gamma if gamma is not None else 1.0, target, args.beta).k
    except NoFiniteExponentError:
        k = None
    if k is not None and not np.isfinite(k):
        k = None  # keep the meta line strict JSON
    meta = {
        "command": "moments", "beta": args.beta, "gamma": gamma,
        "worst_case": bool(args.worst_case), "finite": bool(report.finite), "k": k,
    }
    rows = (
        [(x, float(report.values[x])) for x in range(a.n)] if report.finite else []
    )
    manifest = _manifest(
        argv, [args.chain_file], None, {"beta": args.beta, "gamma": gamma}
    )
    _finish(args, manifest, meta, ["state", "h"], rows, t0)
    return 0


def _cmd_app(args, argv, t0) -> int:
    paths_n = args.mc_paths
    manifest = _manifest(
        argv, [args.app_file], args.seed if paths_n else None,
        {"mc_paths": paths_n},
    )
    meta = {"command": "app", "app": args.app}
    if args.app == "control":
        cs, chain, target, terminal = load_control(args.app_file)
        sol = solve_control(cs, chain, target, terminal)
        u = sol.value.u
        columns = ["state", "u", "policy"]
        rows = [[x, float(u[x]), sol.policy[x]] for x in range(chain.n)]
        if paths_n:
            running = np.array(
                [float(cs.cost[x, sol.policy_indices[x]]) for x in range(chain.n)]
            )
            mcp = McProblem(
                chain=validate_rate_matrix(sol.matrix),
                target=target, phi=terminal, running=running,
            )
            _append_mc(meta, columns, rows, mcp, u, paths_n, args.seed)
    elif args.app == "paths":
        g = load_graph(args.app_file)
        full, remaining = shortest_path_times(g)
        u = remaining.u
        columns = ["state", "remaining", "full_at_zero"]
        rows = [[x, float(u[x]), float(full.field_at(0.0)[x])] for x in range(g.n)]
        if paths_n:
            mats = [g.walk] + list(g.speedups)
            pol = shortest_path_driver(g.walk, mats).policy(u)
            mcp = McProblem(
                chain=validate_rate_matrix(_policy_generator(mats, pol)),
                target=frozenset({g.target}), phi=np.zeros(g.n), running=np.ones(g.n),
            )
            _append_mc(meta, columns, rows, mcp, u, paths_n, args.seed)
    elif args.app == "reliability":
        chain, loss, dead, target_node, controls = load_reliability(args.app_file)
        sol = reliability(chain, loss, dead, target_node, controls)
        target = dead | {target_node}
        phi = np.zeros(chain.n)
        phi[target_node] = 1.0
        if isinstance(sol, SolutionField):
            u, q_eff, policy = sol.u, chain.q, None
        else:
            u, q_eff, policy = sol.value.u, sol.matrix, sol.policy
        columns = ["state", "u"] + (["policy"] if policy else [])
        rows = [
            [x, float(u[x])] + ([policy[x]] if policy else [])
            for x in range(chain.n)
        ]
        if paths_n:
            mcp = McProblem(
                chain=validate_rate_matrix(q_eff),
                target=target, phi=phi, discount=loss,
            )
            _append_mc(meta, columns, rows, mcp, u, paths_n, args.seed)
    elif args.app == "circuit":
        try:
            text = Path(args.app_file).read_text()
        except OSError as exc:
            raise InputError(f"cannot read {args.app_file}: {exc}") from exc
        c = parse_netlist(text)
        sol = solve_circuit(c)
        v = sol.u
        free = sorted(set(range(c.n)) - set(c.sources))
        meta["max_kirchhoff_residual"] = float(
            np.abs(kirchhoff_residuals(c, v)[free]).max() if free else 0.0
        )
        columns = ["node", "name", "volts"]
        rows = [[x, c.nodes[x], float(v[x])] for x in range(c.n)]
        if paths_n:
            mcp = McProblem(
                chain=implied_matrix(c, v),
                target=frozenset(c.sources), phi=c.source_vector,
            )
            _append_mc(meta, columns, rows, mcp, v, paths_n, args.seed)
    else:  # argparse choices make this unreachable
        raise InputError(f"unknown app {args.app!r}")

    if paths_n:
        meta["mc_paths"] = paths_n
        meta["seed"] = args.seed
    _finish(args, manifest, meta, columns, rows, t0)
    return 0


def _append_mc(meta, columns, rows, mcp, values, paths_n, seed):
    rep = mc_validate(mcp, values, paths=paths_n, seed=seed)
    columns += ["mc_estimate", "mc_se", "mc_z"]
    for row, est, se, z in zip(rows, rep.estimates, rep.standard_errors, rep.z_scores):
        row += [float(est), float(se), float(z)]
    meta["mc_max_abs_z"] = rep.max_abs_z


def _cmd_truncation(args, argv, t0) -> int:
    p = load_problem(args.problem_file)
    diag = truncation_sequence(p, args.horizons, dt=args.dt)
    meta = {"command": "truncation", "dt": args.dt, "horizons": list(diag.horizons)}
    rows = []
    for k, horizon in enumerate(diag.horizons):
        gap = None if k == 0 else float(diag.successive_gaps[k - 1])
        for x in range(p.chain.n):
            rows.append((horizon, x, float(diag.values_at_zero[k][x]), gap))
    manifest = _manifest(argv, [args.problem_file], None, {"dt": args.dt})
    _finish(args, manifest, meta, ["horizon", "state", "value", "gap"], rows, t0)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainbsde",
        description="Backward-equation solvers on finite-state Markov chains.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser(
        "validate", help="check a chain, problem, graph, control or reliability spec file"
    )
    v.add_argument("file")
    v.add_argument("--out", default=None, help="also write the diagnostics JSON here")
    v.set_defaults(func=_cmd_validate)

    s = sub.add_parser("solve", help="solve a hitting problem from a spec file")
    s.add_argument("problem_file")
    s.add_argument("--mode", choices=["homogeneous", "grid"], default="homogeneous")
    s.add_argument("--horizon", type=float, default=None)
    s.add_argument("--steps", type=int, default=None)
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--out", default="solution.csv")
    s.set_defaults(func=_cmd_solve)

    m = sub.add_parser("moments", help="hitting-time exponential moments")
    m.add_argument("chain_file")
    m.add_argument("--target", type=int, nargs="+", required=True)
    m.add_argument("--beta", type=float, required=True)
    m.add_argument("--gamma", type=float, default=None)
    m.add_argument("--worst-case", action="store_true")
    m.add_argument("--out", default="moments.csv")
    m.set_defaults(func=_cmd_moments)

    a = sub.add_parser("app", help="run an application solver")
    a.add_argument("app_file")
    a.add_argument("--app", choices=["control", "paths", "reliability", "circuit"], required=True)
    a.add_argument("--mc-paths", type=int, default=0, help="0 disables the MC cross-check")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", default="app.csv")
    a.set_defaults(func=_cmd_app)

    t = sub.add_parser("truncation", help="finite-horizon truncation diagnostics")
    t.add_argument("problem_file")
    t.add_argument("--horizons", type=float, nargs="+", required=True)
    t.add_argument("--dt", type=float, default=0.01)
    t.add_argument("--out", default="truncation.csv")
    t.set_defaults(func=_cmd_truncation)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        return args.func(args, ["chainbsde"] + argv, t0)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
