"""File formats: JSON problem specs in, self-describing CSV tables out.

Input specs are JSON objects.  A chain spec is

    {"rates": [[...], ...], "state_names": ["a", "b", ...], "n": 2}

with ``rates`` dense in the column convention documented on RateMatrix
(``rates[j][i]`` is the jump rate i -> j); ``state_names`` and ``n`` are
optional.  A problem spec bundles everything a hitting problem needs:

    {"chain": {...}, "target": [1], "terminal": [0.0, 1.0],
     "driver": {"type": ...}, "constants": {"k": 1.0, "beta": 1.0, ...}}

Driver specs are a tagged union on "type":

    {"type": "affine", "b": [[...]], "g": [...], "r": [...]}   (all optional)
    {"type": "hamiltonian", "labels": [...], "matrices": [[[...]]],
     "cost": [[...]], "sense": "inf" | "sup"}
    {"type": "reliability", "loss_rates": [...], "control_matrices": [...]}
    {"type": "shortest_path", "control_matrices": [...]}
    {"type": "diode_circuit", "netlist": "V 1 1.0\\nR 1 0 ..."}

Graph, reliability, and control app specs are documented on their loaders.

Output tables are CSV with a single leading comment line holding a JSON
metadata object (`# {...}`).  Floats are serialized with ``repr`` so that
identical runs emit byte-identical files.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from .apps import GraphSpec
from .chain import RateMatrix, validate_rate_matrix
from .circuits import circuit_driver, parse_netlist, reference_matrix
from .drivers import (
    ControlSet,
    MarkovianDriver,
    affine_driver,
    hamiltonian_inf,
    hamiltonian_sup,
    reliability_driver,
    shortest_path_driver,
)
from .errors import InputError
from .solver import HittingProblem

__all__ = [
    "load_chain",
    "load_driver",
    "load_problem",
    "load_graph",
    "load_reliability",
    "load_control",
    "write_csv",
    "read_csv",
    "fmt_value",
    "sha256_of",
]


def _load_json(source) -> dict:
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, os.PathLike)):
        raise InputError(
            f"expected a JSON object or a path to one, got {type(source).__name__}"
        )
    path = Path(source)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at top level")
    return data


def _spec_loader(where: str):
    """Report a spec value that fails conversion (a string where a number
    belongs, a ragged matrix, ...) as an InputError naming the spec."""

    def wrap(load):
        @functools.wraps(load)
        def loader(*args, **kwargs):
            try:
                return load(*args, **kwargs)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"{where} spec has a malformed value: {exc}") from exc

        return loader

    return wrap


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise InputError(f"{where} spec is missing required field {key!r}")
    return data[key]


@_spec_loader("chain")
def load_chain(source) -> RateMatrix:
    """Chain spec: {"rates": dense column-convention matrix, "state_names"?, "n"?}."""
    data = _load_json(source)
    rates = np.array(_require(data, "rates", "chain"), dtype=float)
    names = data.get("state_names")
    if names is not None:
        names = tuple(str(s) for s in names)
    a = validate_rate_matrix(rates, state_names=names)
    declared = data.get("n")
    if declared is not None and int(declared) != a.n:
        raise InputError(f"chain spec declares n={declared} but rates are {a.n}x{a.n}")
    return a


def _matrices(raw, chain: RateMatrix, where: str) -> tuple[RateMatrix, ...]:
    mats = tuple(validate_rate_matrix(np.array(m, dtype=float)) for m in raw)
    for m in mats:
        if m.n != chain.n:
            raise InputError(f"{where}: control matrix size {m.n} != chain size {chain.n}")
    return mats


def _control_set(
    data: dict, chain: RateMatrix, where: str, priced: bool = True
) -> ControlSet:
    """ControlSet from the "labels", "matrices" and, when ``priced``, "cost"
    fields of ``data``; unpriced controls cost nothing."""
    labels = tuple(str(s) for s in _require(data, "labels", where))
    mats = _matrices(_require(data, "matrices", where), chain, where)
    cost = (
        np.array(_require(data, "cost", where), dtype=float)
        if priced
        else np.zeros((chain.n, len(mats)))
    )
    return ControlSet(labels=labels, matrices=mats, cost=cost, reference=chain)


@_spec_loader("driver")
def load_driver(spec, chain: RateMatrix) -> MarkovianDriver:
    """Build a driver from its tagged-union spec (see module docstring)."""
    data = _load_json(spec)
    kind = _require(data, "type", "driver")
    if kind == "affine":
        b = data.get("b")
        if b is not None:
            b = validate_rate_matrix(np.array(b, dtype=float))
        return affine_driver(chain, b=b, g=data.get("g"), r=data.get("r"))
    if kind == "hamiltonian":
        cs = _control_set(data, chain, "hamiltonian driver")
        sense = data.get("sense", "inf")
        if sense == "inf":
            return hamiltonian_inf(cs)
        if sense == "sup":
            return hamiltonian_sup(cs)
        raise InputError(f"hamiltonian driver sense must be 'inf' or 'sup', got {sense!r}")
    if kind == "reliability":
        mats = data.get("control_matrices")
        return reliability_driver(
            chain,
            _require(data, "loss_rates", "reliability driver"),
            control_matrices=_matrices(mats, chain, "reliability") if mats else None,
        )
    if kind == "shortest_path":
        mats = data.get("control_matrices")
        return shortest_path_driver(
            chain, control_matrices=_matrices(mats, chain, "shortest_path") if mats else None
        )
    if kind == "diode_circuit":
        circuit = parse_netlist(str(_require(data, "netlist", "diode_circuit driver")))
        ref = reference_matrix(circuit)
        if ref.n != chain.n or not np.allclose(ref.q, chain.q, rtol=0.0, atol=1e-9):
            raise InputError(
                "diode_circuit driver: the problem's chain must be the netlist's "
                "all-resistor reference matrix"
            )
        return circuit_driver(circuit, ref)
    raise InputError(f"unknown driver type {kind!r}")


@_spec_loader("problem")
def load_problem(source) -> HittingProblem:
    """Problem spec: chain + target + terminal vector + driver + constants.

    Recognized constants: k, beta, beta_hat, c (the last two override the
    driver's declared values when present).
    """
    data = _load_json(source)
    chain = load_chain(_require(data, "chain", "problem"))
    target = frozenset(int(i) for i in _require(data, "target", "problem"))
    terminal = np.array(_require(data, "terminal", "problem"), dtype=float)
    driver = load_driver(_require(data, "driver", "problem"), chain)
    consts = data.get("constants", {})
    if not isinstance(consts, dict):
        raise InputError("problem constants must be an object")
    overrides = {}
    if "c" in consts:
        overrides["c"] = float(consts["c"])
    if "beta_hat" in consts:
        overrides["beta_hat"] = float(consts["beta_hat"])
    if overrides:
        driver = replace(driver, **overrides)
    return HittingProblem(
        chain=chain,
        target=target,
        terminal=terminal,
        driver=driver,
        k=float(consts["k"]) if "k" in consts else None,
        beta=float(consts.get("beta", 1.0)),
    )


@_spec_loader("graph")
def load_graph(source) -> GraphSpec:
    """Graph spec: {"distances": [[...]], "target": 2, "speedups"?: [[[...]]],
    "node_names"?: [...]}; distances[i][j] > 0 is the directed edge i -> j."""
    data = _load_json(source)
    names = data.get("node_names")
    return GraphSpec(
        distances=np.array(_require(data, "distances", "graph"), dtype=float),
        target=int(_require(data, "target", "graph")),
        speedups=tuple(
            np.array(m, dtype=float) for m in data.get("speedups", ())
        ),
        node_names=tuple(str(s) for s in names) if names is not None else None,
    )


@_spec_loader("reliability")
def load_reliability(source):
    """Reliability spec: {"chain": {...}, "loss_rates": [...], "target_node": 1,
    "dead"?: [...], "controls"?: {"labels": [...], "matrices": [[[...]]]}}.

    Returns (chain, loss_rates, dead, target_node, controls) ready for
    :func:`chainbsde.apps.reliability`; controls have zero cost.
    """
    data = _load_json(source)
    chain = load_chain(_require(data, "chain", "reliability"))
    loss = np.array(_require(data, "loss_rates", "reliability"), dtype=float)
    dead = frozenset(int(i) for i in data.get("dead", ()))
    target_node = int(_require(data, "target_node", "reliability"))
    controls = (
        _control_set(data["controls"], chain, "controls", priced=False)
        if "controls" in data
        else None
    )
    return chain, loss, dead, target_node, controls


@_spec_loader("control")
def load_control(source):
    """Control app spec: {"chain": {...}, "target": [...], "terminal": [...],
    "controls": {"labels": [...], "matrices": [[[...]]], "cost": [[...]]}}.

    Returns (control_set, chain, target, terminal).
    """
    data = _load_json(source)
    chain = load_chain(_require(data, "chain", "control"))
    target = frozenset(int(i) for i in _require(data, "target", "control"))
    terminal = np.array(_require(data, "terminal", "control"), dtype=float)
    cs = _control_set(_require(data, "controls", "control"), chain, "controls")
    return cs, chain, target, terminal


def fmt_value(x) -> str:
    """Stable CSV cell formatting: floats via repr (shortest round trip)."""
    if x is None:
        return ""
    if isinstance(x, str):
        if "," in x or "\n" in x or '"' in x:
            raise InputError(f"CSV cell {x!r} would need quoting; rename the label")
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, meta: dict, columns, rows) -> None:
    """CSV with a one-line JSON metadata header comment, newline-stable."""
    lines = ["# " + json.dumps(meta, sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt_value(cell) for cell in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path):
    """Read back a table written by :func:`write_csv`.

    Returns (meta, columns, rows); numeric cells come back as floats,
    empty cells as None, everything else as strings.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise InputError(f"{path}: missing JSON metadata header line")
    meta = json.loads(lines[0][2:])
    if len(lines) < 2:
        raise InputError(f"{path}: missing column header")
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        if not line:
            continue
        cells = []
        for cell in line.split(","):
            if cell == "":
                cells.append(None)
            else:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
        rows.append(cells)
    return meta, columns, rows


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
