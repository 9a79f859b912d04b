"""Closed-loop benchmark of chainbsde: one workload per invocation.

    python3 perfbench/run.py --workload stationary --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # all four

Run from the root of a checkout.  The package is imported from ``src/``
and the independent oracles from ``tests/conftest.py``; both must exist.
One caller runs ops back to back: the next op starts only after the
previous one has returned and been checked against its oracle, with the
op's clock stopped.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 1 if any op failed, 2 on a usage or checkout error.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy can load; children inherit it.
BLAS_PIN = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("stationary", "horizon", "montecarlo", "cli")
SETUP_SAMPLES = 7  # set-up times per run whose median is setup_s: this process and fresh ones
MIN_OPS = 20  # op_tail_ms needs at least 10 ops beyond its percentile
DIGEST_ROUNDS = 2  # rounds whose outputs are hashed; every run completes them


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all of them one after another, each in a fresh process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny problem sizes (self-test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# -- set-up ------------------------------------------------------------------


def setup(args, workdir):
    """Import the package and warm every op kind up once; returns
    (state, seconds).  Input generation is not counted."""
    t0 = time.perf_counter()
    import chainbsde  # noqa: F401
    import numpy as np
    import workloads as wl
    from tracing import OFF

    spent = time.perf_counter() - t0
    size = wl.TINY if args.tiny else wl.FULL
    rng = np.random.default_rng([args.seed, 0])
    state = {"wl": wl, "np": np, "size": size, "warm": [], "workdir": workdir, "env": child_env()}
    if args.workload == "cli":
        cli = state["cli"] = wl.Cli(rng, size, workdir, state["env"])
        t0 = time.perf_counter()
        cli.write_inputs()
        cli.oracle_values()
        spent += time.perf_counter() - t0
        state["cycle"] = cli.kinds()
    else:
        state["cycle"] = wl.WORKLOADS[args.workload]
    kinds = list({k.name: k for k in state["cycle"]}.values())
    inputs = [k.make(rng, size) for k in kinds]
    t0 = time.perf_counter()
    for k, inp in zip(kinds, inputs):
        state["warm"].append((k, inp, k.run(inp, OFF)))
    spent += time.perf_counter() - t0
    return state, spent


def setup_probe(args):
    """Set-up time of one more fresh process, for the median in setup_s."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"] + (["--tiny"] if args.tiny else [])
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if res.returncode != 0:
        die(f"set-up probe failed:\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


# -- the closed loop ---------------------------------------------------------


def closed_loop(args, state, tracer_for_round, setups=None):
    """Run complete rounds until ``--seconds`` of op time have passed (and at
    least MIN_OPS ops).  Each op is checked right after it returns, with
    its clock stopped; only op wall time and loop bookkeeping count toward
    the phase.  If ``setups`` is a list, set-up probes are appended to it
    between rounds, spread evenly over the phase, until it holds
    SETUP_SAMPLES times: the machine's speed drifts within a run, and
    probes taken back to back would all see one speed."""
    wl, np = state["wl"], state["np"]
    cycle = state["cycle"]
    rng = np.random.default_rng([args.seed, 1])
    ops, failures = [], []
    digest = hashlib.sha256()
    untimed = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds * len(cycle) < MIN_OPS or time.perf_counter() - start - untimed < args.seconds:
        tr = tracer_for_round(rounds)
        for kind in cycle:
            t_gen = time.perf_counter()
            inp = kind.make(rng, state["size"])
            tr.op_id = len(ops)
            t0 = time.perf_counter()
            err = out = None
            try:
                out = kind.run(inp, tr)
            except wl.ChainBsdeError as exc:
                err = exc
            t1 = time.perf_counter()
            err = err or check(state, kind, inp, out)
            if err is not None:
                failures.append({"kind": kind.name, "error": type(err).__name__, "detail": str(err)[:300]})
            elif rounds < DIGEST_ROUNDS:
                digest.update(np.ascontiguousarray(kind.values(out), dtype=float).tobytes())
            ops.append((kind.name, t1 - t0, tr is not state["off"]))
            untimed += (t0 - t_gen) + (time.perf_counter() - t1)
        rounds += 1
        t_probe = time.perf_counter()
        while (setups is not None and len(setups) < SETUP_SAMPLES
               and t_probe - start - untimed >= len(setups) * args.seconds / SETUP_SAMPLES):
            setups.append(setup_probe(args))
        untimed += time.perf_counter() - t_probe
    phase = time.perf_counter() - start - untimed
    while setups is not None and len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe(args))
    return ops, failures, phase, digest.hexdigest()[:16]


def check(state, kind, inp, out):
    try:
        kind.check(inp, out)
    except (state["wl"].CheckFailed, state["wl"].ChainBsdeError) as exc:
        return exc
    return None


def check_warmups(state):
    failures = []
    for kind, inp, out in state["warm"]:
        err = check(state, kind, inp, out)
        if err is not None:
            failures.append({"kind": f"warm-up {kind.name}", "error": type(err).__name__,
                             "detail": str(err)[:300]})
    return failures


# -- metrics -----------------------------------------------------------------


def tail(times_ms):
    """Value at the highest percentile with at least 10 ops beyond it."""
    s = sorted(times_ms)
    n = len(s)
    return s[n - 11], 100.0 * (n - 10) / n


def machine_record(calibration_start):
    import numpy
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_pin": BLAS_PIN,
        "calibration_s": {"start": calibration_start, "end": calibration()},
    }


def calibration():
    """Fixed pure-Python loop, timed at the start and the end of a run: a
    machine-speed witness for diagnosing drift between runs.  Not a metric.
    It imports nothing, so it cannot warm up the package import."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times), 6)


def per_kind(ops):
    out = {}
    for name in dict.fromkeys(n for n, _, _ in ops):
        t = [1e3 * d for n, d, _ in ops if n == name]
        out[name] = {"ops": len(t), "p50_ms": round(statistics.median(t), 3)}
    return out


def emit(record, lines):
    for line in lines:
        print(line)
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def metric_lines(metrics, labels=None):
    labels = labels or {}
    return [f"  {name:44s} {m['value']:>14.6g} {m['unit']:6s} {labels.get(name, '')}"
            for name, m in metrics.items()]


def run_all(args):
    """Every workload in its own fresh process; the last line sums the
    counts and prefixes each metric with its workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        res = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode not in (0, 1) or not lines:
            die(f"workload {w} exited {res.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        out = json.loads(lines[-1])
        total["correct"] &= out["correct"]
        total["attempted"] += out["attempted"]
        total["failed"] += out["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in out["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "chainbsde" / "__init__.py").is_file():
        die("run from the root of a chainbsde checkout: src/chainbsde is missing")
    if not (ROOT / "tests" / "conftest.py").is_file():
        die("tests/conftest.py (the independent oracles) is missing")
    if not args.seconds >= 0:
        die("--seconds must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    workdir = OUT / f"work-{os.getpid()}"
    calibration_start = None if args.setup_only else calibration()
    try:
        state, setup_s = setup(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        from tracing import OFF, Tracer

        state["off"] = OFF
        setups = [setup_s]
        failures = check_warmups(state)
        if args.trace:
            tracer = Tracer()
            ops, loop_failures, phase, digest = closed_loop(
                args, state, lambda r: tracer if r % 2 else OFF)
        else:
            ops, loop_failures, phase, digest = closed_loop(args, state, lambda r: OFF, setups)
        rss_kb = (state["cli"].peak_rss_kb if args.workload == "cli"
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        failures += loop_failures
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "tiny": args.tiny, "machine": machine_record(calibration_start),
                  "digest": digest, "per_kind": per_kind(ops), "failures": failures,
                  "attempted": len(ops) + len(state["warm"]), "failed": len(failures)}
        record["correct"] = not failures
        error_frac = record["failed"] / record["attempted"]
        lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
                 f"machine={json.dumps(record['machine'])}"]
        lines += [f"  kind {k:12s} ops={v['ops']:<5d} p50={v['p50_ms']} ms" for k, v in record["per_kind"].items()]
        if args.trace:
            import layers

            metrics, labels = layers.measure(args, state, ops)
            OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
            span_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(span_path)
            record["spans"] = {"path": str(span_path.relative_to(ROOT)), "count": len(tracer.spans)}
            lines += metric_lines(metrics, labels) + [f"  spans written to {span_path.relative_to(ROOT)}"]
        else:
            times = [1e3 * d for _, d, _ in ops]
            tail_ms, tail_pct = tail(times)
            metrics = {
                "op_p50_ms": {"value": statistics.median(times), "unit": "ms"},
                "op_tail_ms": {"value": tail_ms, "unit": "ms"},
                "ops_per_s": {"value": len(ops) / phase, "unit": "1/s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            }
            record.update(setup_samples_s=setups, tail_percentile=tail_pct, timed_ops=len(ops),
                          op_ms=[[name, round(1e3 * d, 3)] for name, d, _ in ops],
                          phase_s=phase, error_frac=error_frac)
            lines += metric_lines(metrics)
            lines.append(f"  {'error_frac':44s} {error_frac:>14.6g} ratio  "
                         f"(ops={len(ops)}, tail at p{tail_pct:.1f}, setup samples={len(setups)})")
        lines.append(f"  digest={digest} failures={json.dumps(failures)}")
        record["metrics"] = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
        emit(record, lines)
        return 0 if record["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
