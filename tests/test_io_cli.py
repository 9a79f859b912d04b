import hashlib
import json

import numpy as np
import pytest

from chainbsde import (
    GraphSpec,
    HittingProblem,
    InputError,
    fmt_value,
    load_chain,
    load_control,
    load_driver,
    load_graph,
    load_problem,
    load_reliability,
    read_csv,
    sha256_of,
    solve_homogeneous,
    validate_rate_matrix,
    write_csv,
)
from chainbsde.cli import main

CHAIN_SPEC = {"rates": [[-1.0, 0.0], [1.0, 0.0]], "state_names": ["go", "done"]}

PROBLEM_SPEC = {
    "chain": CHAIN_SPEC,
    "target": [1],
    "terminal": [0.0, 0.0],
    "driver": {"type": "affine", "g": [1.0, 0.0]},
}

NETLIST = "V top 1.0\nV gnd 0.0\nR top mid 1000\nR mid gnd 1000\n"


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


class TestLoaders:
    def test_chain_roundtrip(self, tmp_path):
        f = write_json(tmp_path / "chain.json", CHAIN_SPEC)
        a = load_chain(f)
        assert a.n == 2 and a.state_names == ("go", "done")
        assert a.q[1, 0] == 1.0

    def test_chain_errors(self, tmp_path):
        with pytest.raises(InputError, match="missing required field"):
            load_chain({"state_names": ["a"]})
        with pytest.raises(InputError, match="declares n=3"):
            load_chain({"rates": [[-1.0, 0.0], [1.0, 0.0]], "n": 3})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(InputError, match="not valid JSON"):
            load_chain(str(bad))
        lst = tmp_path / "list.json"
        lst.write_text("[1, 2]")
        with pytest.raises(InputError, match="JSON object"):
            load_chain(str(lst))
        with pytest.raises(InputError, match="cannot read"):
            load_chain(str(tmp_path / "missing.json"))

    def test_affine_driver(self):
        a = load_chain(CHAIN_SPEC)
        d = load_driver({"type": "affine", "g": [2.0, 0.0], "r": [0.5, 0.0]}, a)
        assert d.spec["type"] == "affine"
        assert d.eval(0, 0.0, 1.0, np.zeros(2)) == pytest.approx(2.0 - 0.5)

    def test_hamiltonian_driver(self):
        a = load_chain(CHAIN_SPEC)
        spec = {
            "type": "hamiltonian",
            "labels": ["keep", "double"],
            "matrices": [a.q.tolist(), (2.0 * a.q).tolist()],
            "cost": [[1.0, 1.5], [0.0, 0.0]],
        }
        d = load_driver(spec, a)
        # at z = 0 the tilt vanishes; the min is the cheaper running cost
        assert d.eval(0, 0.0, 0.0, np.zeros(2)) == pytest.approx(1.0)
        d_sup = load_driver({**spec, "sense": "sup"}, a)
        assert d_sup.eval(0, 0.0, 0.0, np.zeros(2)) == pytest.approx(1.5)
        with pytest.raises(InputError, match="sense"):
            load_driver({**spec, "sense": "mid"}, a)

    def test_driver_unknown_type(self):
        a = load_chain(CHAIN_SPEC)
        with pytest.raises(InputError, match="unknown driver type"):
            load_driver({"type": "mystery"}, a)

    def test_diode_circuit_driver_checks_reference(self):
        from chainbsde import parse_netlist, reference_matrix

        c = parse_netlist(NETLIST)
        ref = reference_matrix(c)
        d = load_driver({"type": "diode_circuit", "netlist": NETLIST}, ref)
        assert d.spec["type"] == "diode_circuit"
        other = load_chain(CHAIN_SPEC)
        with pytest.raises(InputError, match="all-resistor reference"):
            load_driver({"type": "diode_circuit", "netlist": NETLIST}, other)

    def test_problem_solves(self, tmp_path):
        f = write_json(tmp_path / "p.json", PROBLEM_SPEC)
        p = load_problem(f)
        sol = solve_homogeneous(p)
        assert np.allclose(sol.u, [1.0, 0.0], atol=1e-12)

    def test_problem_constants(self):
        spec = dict(PROBLEM_SPEC)
        spec["constants"] = {"k": 5.0, "beta": 2.0, "c": 0.25, "beta_hat": 0.5}
        p = load_problem(spec)
        assert p.k == 5.0 and p.beta == 2.0
        assert p.driver.c == 0.25 and p.driver.beta_hat == 0.5
        with pytest.raises(InputError, match="constants"):
            load_problem({**PROBLEM_SPEC, "constants": [1, 2]})

    def test_graph_spec(self):
        g = load_graph(
            {
                "distances": [[0.0, 1.0], [1.0, 0.0]],
                "target": 1,
                "node_names": ["a", "b"],
            }
        )
        assert isinstance(g, GraphSpec)
        assert g.walk.state_names == ("a", "b")

    def test_reliability_spec(self):
        chain, loss, dead, target_node, controls = load_reliability(
            {
                "chain": {"rates": [[-3.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]},
                "loss_rates": [1.0, 0.0, 0.0],
                "dead": [1],
                "target_node": 2,
                "controls": {
                    "labels": ["boost"],
                    "matrices": [[[-6.0, 0.0, 0.0], [2.0, 0.0, 0.0], [4.0, 0.0, 0.0]]],
                },
            }
        )
        assert dead == frozenset({1}) and target_node == 2
        assert controls.labels == ("boost",)
        assert np.allclose(controls.cost, 0.0)

    def test_control_spec(self):
        cs, chain, target, terminal = load_control(
            {
                "chain": CHAIN_SPEC,
                "target": [1],
                "terminal": [0.0, 0.0],
                "controls": {
                    "labels": ["only"],
                    "matrices": [CHAIN_SPEC["rates"]],
                    "cost": [[1.0], [0.0]],
                },
            }
        )
        assert target == frozenset({1})
        assert cs.size == 1


MATRIX = [[-1.0, 0.0], [1.0, 0.0]]
CONTROLS = {"labels": ["a"], "matrices": [MATRIX], "cost": [[1.0], [0.0]]}
GRAPH_SPEC = {"distances": [[0.0, 1.0], [0.0, 0.0]], "target": 1}
RELIABILITY_SPEC = {"chain": CHAIN_SPEC, "loss_rates": [0.1, 0.0], "target_node": 1}
CONTROL_SPEC = {"chain": CHAIN_SPEC, "target": [1], "terminal": [0.0, 0.0], "controls": CONTROLS}


def amend(spec, **fields):
    return {**spec, **fields}


def load_driver_on_chain(spec):
    return load_driver(spec, validate_rate_matrix(MATRIX))


# values of the right field names but the wrong kind, each of which escaped
# as a raw ValueError or TypeError before the loaders converted them
MALFORMED = [
    (load_chain, {"rates": "abc"}),
    (load_chain, {"rates": [[-1.0, 0.0], [1.0]]}),
    (load_chain, {"rates": MATRIX, "n": "two"}),
    (load_chain, {"rates": MATRIX, "state_names": 5}),
    (load_chain, [1, 2]),
    (load_problem, amend(PROBLEM_SPEC, terminal=["a", 0, 0])),
    (load_problem, amend(PROBLEM_SPEC, target=["x"])),
    (load_problem, amend(PROBLEM_SPEC, target=5)),
    (load_problem, amend(PROBLEM_SPEC, constants={"k": "x"})),
    (load_problem, amend(PROBLEM_SPEC, constants={"beta": [1]})),
    (load_problem, amend(PROBLEM_SPEC, driver=[1, 2])),
    (load_driver_on_chain, {"type": "affine", "g": ["a", 0]}),
    (load_driver_on_chain, {"type": "affine", "b": "abc"}),
    (load_driver_on_chain, amend(CONTROLS, type="hamiltonian", matrices=[[[1, 2], [3]]])),
    (load_driver_on_chain, {"type": "reliability", "loss_rates": "ab"}),
    (load_driver_on_chain, {"type": "shortest_path", "control_matrices": 7}),
    (load_graph, amend(GRAPH_SPEC, target="x")),
    (load_graph, amend(GRAPH_SPEC, distances=[[0, 1], [0]])),
    (load_graph, amend(GRAPH_SPEC, speedups=5)),
    (load_reliability, amend(RELIABILITY_SPEC, target_node="x")),
    (load_reliability, amend(RELIABILITY_SPEC, dead=["q"])),
    (load_reliability, amend(RELIABILITY_SPEC, loss_rates=[[1], 2])),
    (load_control, amend(CONTROL_SPEC, controls=amend(CONTROLS, cost=[[1.0], [0.0, 2.0]]))),
    (load_control, amend(CONTROL_SPEC, terminal="zz")),
]


@pytest.mark.parametrize(("load", "spec"), MALFORMED)
def test_malformed_values_raise_input_error(load, spec):
    with pytest.raises(InputError):
        load(spec)


class TestCsv:
    def test_fmt_value_rules(self):
        assert fmt_value(None) == ""
        assert fmt_value(True) == "true" and fmt_value(False) == "false"
        assert fmt_value(np.bool_(True)) == "true"
        assert fmt_value(3) == "3" and fmt_value(np.int64(-2)) == "-2"
        assert fmt_value(0.1) == "0.1"
        assert fmt_value(np.float64(1.0) / 3.0) == repr(1.0 / 3.0)
        assert fmt_value("label") == "label"
        with pytest.raises(InputError, match="quoting"):
            fmt_value("a,b")
        with pytest.raises(InputError, match="quoting"):
            fmt_value('say "hi"')

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "table.csv"
        meta = {"command": "test", "tol": 1e-10}
        rows = [[0, 1.0 / 3.0, "alpha", None], [1, -2.5e-17, "beta", 4]]
        write_csv(path, meta, ["state", "value", "label", "extra"], rows)
        m2, cols, rows2 = read_csv(path)
        assert m2 == meta
        assert cols == ["state", "value", "label", "extra"]
        assert rows2[0][1] == 1.0 / 3.0  # exact float round trip via repr
        assert rows2[0][3] is None
        assert rows2[1][2] == "beta"

    def test_read_rejects_headerless(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InputError, match="metadata header"):
            read_csv(path)

    def test_sha256(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"hello\n")
        assert sha256_of(path) == hashlib.sha256(b"hello\n").hexdigest()


class TestCliValidate:
    def test_valid_chain(self, tmp_path, capsys):
        f = write_json(tmp_path / "chain.json", CHAIN_SPEC)
        assert main(["validate", f]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["diagnostics"][0]["check"] == "chain"

    def test_problem_sniffed_by_chain_key(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", PROBLEM_SPEC)
        assert main(["validate", f]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"][0]["check"] == "problem"

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        f = write_json(tmp_path / "bad.json", {"rates": [[1.0, 0.0], [0.0, 0.0]]})
        assert main(["validate", f]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False

    def test_bad_json_exits_one(self, tmp_path, capsys):
        f = tmp_path / "mangled.json"
        f.write_text("{oops")
        assert main(["validate", str(f)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"][0]["check"] == "json"

    @pytest.mark.parametrize("spec", [[1, 2], {"rates": "abc"}])
    def test_malformed_value_reported(self, tmp_path, capsys, spec):
        f = write_json(tmp_path / "bad.json", spec)
        assert main(["validate", f]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["diagnostics"][0]["error"] == "InputError"

    def test_out_writes_report_and_manifest(self, tmp_path, capsys):
        f = write_json(tmp_path / "chain.json", CHAIN_SPEC)
        out = tmp_path / "report.json"
        assert main(["validate", f, "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["ok"] is True
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["inputs"][f] == sha256_of(f)
        assert str(out) in manifest["outputs"]


class TestCliSolve:
    def test_homogeneous_solution_file(self, tmp_path):
        f = write_json(tmp_path / "p.json", PROBLEM_SPEC)
        out = tmp_path / "solution.csv"
        assert main(["solve", f, "--out", str(out)]) == 0
        meta, cols, rows = read_csv(out)
        assert cols == ["state", "u"]
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert meta["mode"] == "homogeneous"
        manifest = json.loads((tmp_path / "solution.csv.manifest.json").read_text())
        assert manifest["outputs"][str(out)] == sha256_of(out)

    def test_grid_requires_horizon(self, tmp_path, capsys):
        f = write_json(tmp_path / "p.json", PROBLEM_SPEC)
        out = tmp_path / "g.csv"
        assert main(["solve", f, "--mode", "grid", "--out", str(out)]) == 1
        assert "input error" in capsys.readouterr().err

    def test_grid_rows(self, tmp_path):
        f = write_json(tmp_path / "p.json", PROBLEM_SPEC)
        out = tmp_path / "g.csv"
        code = main(
            ["solve", f, "--mode", "grid", "--horizon", "1.0", "--steps", "20",
             "--out", str(out)]
        )
        assert code == 0
        _meta, cols, rows = read_csv(out)
        assert cols == ["t", "state", "u"]
        assert len(rows) == 21 * 2

    def test_unsolvable_exits_two(self, tmp_path, capsys):
        spec = dict(PROBLEM_SPEC)
        spec["driver"] = {
            "type": "affine",
            "b": [[0.0, 0.0], [0.0, 0.0]],
            "g": [1.0, 0.0],
        }
        f = write_json(tmp_path / "p.json", spec)
        assert main(["solve", f, "--out", str(tmp_path / "s.csv")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        f = write_json(tmp_path / "p.json", PROBLEM_SPEC)
        out = tmp_path / "solution.csv"
        mpath = tmp_path / "solution.csv.manifest.json"
        assert main(["solve", f, "--out", str(out)]) == 0
        first = out.read_bytes()
        m1 = json.loads(mpath.read_text())
        out.unlink()
        assert main(["solve", f, "--out", str(out)]) == 0
        assert out.read_bytes() == first
        m2 = json.loads(mpath.read_text())
        m1.pop("wall_clock_s")
        m2.pop("wall_clock_s")
        assert m1 == m2


class TestCliMoments:
    def test_reference_moment(self, tmp_path):
        f = write_json(tmp_path / "chain.json", CHAIN_SPEC)
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", f, "--target", "1", "--beta", "0.5", "--out", str(out)]
        )
        assert code == 0
        meta, _cols, rows = read_csv(out)
        assert meta["finite"] is True
        assert rows[0][1] == pytest.approx(2.0, abs=1e-12)  # 1/(1-0.5)
        assert meta["k"] is not None

    def test_worst_case_needs_gamma(self, tmp_path, capsys):
        f = write_json(tmp_path / "chain.json", CHAIN_SPEC)
        code = main(
            ["moments", f, "--target", "1", "--beta", "0.5", "--worst-case",
             "--out", str(tmp_path / "m.csv")]
        )
        assert code == 1
        assert "gamma" in capsys.readouterr().err

    def test_infinite_moment_empty_rows(self, tmp_path):
        f = write_json(tmp_path / "chain.json", CHAIN_SPEC)
        out = tmp_path / "m.csv"
        code = main(["moments", f, "--target", "1", "--beta", "1.0", "--out", str(out)])
        assert code == 0
        meta, _cols, rows = read_csv(out)
        assert meta["finite"] is False and rows == []

    def test_huge_beta_reports_null_k(self, tmp_path):
        # the envelope constant saturates to inf there; the meta stays JSON
        f = write_json(tmp_path / "chain.json", CHAIN_SPEC)
        out = tmp_path / "m.csv"
        code = main(["moments", f, "--target", "1", "--beta", "2000", "--out", str(out)])
        assert code == 0
        meta, _cols, rows = read_csv(out)
        assert meta["finite"] is False and rows == []
        assert meta["k"] is None


class TestCliApps:
    def test_control_with_mc(self, tmp_path):
        spec = {
            "chain": {"rates": [[-2.0, 0.0, 0.0], [2.0, -2.0, 0.0], [0.0, 2.0, 0.0]]},
            "target": [2],
            "terminal": [0.0, 0.0, 0.0],
            "controls": {
                "labels": ["fast", "slow"],
                "matrices": [
                    [[-2.0, 0.0, 0.0], [2.0, -2.0, 0.0], [0.0, 2.0, 0.0]],
                    [[-1.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 1.0, 0.0]],
                ],
                "cost": [[3.0, 1.0], [3.0, 1.0], [0.0, 0.0]],
            },
        }
        f = write_json(tmp_path / "control.json", spec)
        out = tmp_path / "control.csv"
        code = main(
            ["app", f, "--app", "control", "--mc-paths", "4000", "--out", str(out)]
        )
        assert code == 0
        meta, cols, rows = read_csv(out)
        assert cols == ["state", "u", "policy", "mc_estimate", "mc_se", "mc_z"]
        assert rows[0][1] == pytest.approx(2.0, abs=1e-9)
        assert rows[0][2] == "slow"
        assert meta["mc_max_abs_z"] < 4.0

    def test_paths_app(self, tmp_path):
        spec = {
            "distances": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
            "target": 2,
        }
        f = write_json(tmp_path / "graph.json", spec)
        out = tmp_path / "paths.csv"
        assert main(["app", f, "--app", "paths", "--out", str(out)]) == 0
        _meta, cols, rows = read_csv(out)
        assert cols == ["state", "remaining", "full_at_zero"]
        assert rows[0][1] == pytest.approx(2.5, abs=1e-9)
        assert rows[0][2] == rows[0][1]

    def test_reliability_app(self, tmp_path):
        spec = {
            "chain": {"rates": [[-3.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]},
            "loss_rates": [1.0, 0.0, 0.0],
            "dead": [1],
            "target_node": 2,
        }
        f = write_json(tmp_path / "rel.json", spec)
        out = tmp_path / "rel.csv"
        assert main(["app", f, "--app", "reliability", "--out", str(out)]) == 0
        _meta, cols, rows = read_csv(out)
        assert cols == ["state", "u"]
        assert rows[0][1] == pytest.approx(0.5, abs=1e-12)

    def test_circuit_app(self, tmp_path):
        f = tmp_path / "net.txt"
        f.write_text(NETLIST)
        out = tmp_path / "volts.csv"
        assert main(["app", str(f), "--app", "circuit", "--out", str(out)]) == 0
        meta, cols, rows = read_csv(out)
        assert cols == ["node", "name", "volts"]
        mid = [r for r in rows if r[1] == "mid"][0]
        assert mid[2] == pytest.approx(0.5, abs=1e-10)
        assert meta["max_kirchhoff_residual"] < 1e-8


class TestCliTruncation:
    def test_gap_column(self, tmp_path):
        f = write_json(tmp_path / "p.json", PROBLEM_SPEC)
        out = tmp_path / "trunc.csv"
        code = main(
            ["truncation", f, "--horizons", "1.0", "2.0", "4.0", "--out", str(out)]
        )
        assert code == 0
        meta, cols, rows = read_csv(out)
        assert cols == ["horizon", "state", "value", "gap"]
        assert len(rows) == 3 * 2
        first_h = [r for r in rows if r[0] == 1.0]
        assert all(r[3] is None for r in first_h)
        later = [r for r in rows if r[0] == 4.0]
        assert all(isinstance(r[3], float) for r in later)
        assert meta["horizons"] == [1.0, 2.0, 4.0]
