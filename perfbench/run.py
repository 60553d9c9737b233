"""pcindex benchmark: four single-process workloads, checked outputs, an optional traced run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 22

One run builds its inputs from --seed, warms up, then times whole units
for --seconds in this process (one worker) while set-up is sampled in
fresh interpreters between units.  It checks every output against
independent recomputations and prints one JSON object as its last line.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
records spans around the calls into the program's modules on every
other unit and reports the per-layer metrics instead.  --all runs every
workload, each in its own process, and prints a table.  See README.md in
this directory.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one core: OpenBLAS would otherwise thread the n=8
# matrix-vector products over both cores of a 2-core box, and other
# tenants' load on the second core then doubled the run-to-run spread on
# wide.  Set before numpy is first imported; set-up samples inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# keyword arguments of ExperimentConfig per experiment workload; one unit
# is one base matrix, i.e. d_max removal chains of removals_max + 1 rows
EXPERIMENTS = {
    "desk": dict(n=7, d_max=30, removals_max=15),
    "wide": dict(n=8, d_max=7, removals_max=21),
    "independent": dict(n=7, d_max=15, removals_max=15, independent_removals=True),
}
WORKLOADS = tuple(EXPERIMENTS) + ("analyze",)

SETUP_SAMPLES = 7  # fresh interpreters per run; setup_s is their median
TABLE_SAMPLES = 3  # in-process table builds per traced run
WARMUP_UNITS = 3
WARMUP_ROUND = 999_999  # analyze round number of the warm-up calls, never timed
UNIT_STRIDE = 100_000  # experiment seed of unit u is seed * UNIT_STRIDE + u
CHAIN_CHECK_EVERY = 64  # units 0, 64, 128, ... get every chain row recomputed
KNOWN_FAULT = {"CI", "Oliva"}  # what the fixed analyze matrices are allowed to fail on

# numpy is imported before the clock starts: its import is the same for
# every version of pcindex and was the noisiest part of a fresh start
SETUP_CODE = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import pcindex
if sys.argv[2] == "analyze":
    import pcindex.cli
else:
    from pcindex import _fast
    _fast.get_tables(int(sys.argv[2]))
end = time.perf_counter()
if not pcindex.__file__.startswith(sys.argv[1]):
    sys.exit("pcindex imported from " + pcindex.__file__)
print(end - start)
"""


class ProgramMissing(Exception):
    pass


def load_program():
    """Import pcindex from this checkout's src/, never from anywhere else."""
    if not (SRC / "pcindex" / "__init__.py").is_file():
        raise ProgramMissing("no program source at %s" % (SRC / "pcindex"))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pcindex

    if not Path(pcindex.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing("pcindex was imported from %s, not %s" % (pcindex.__file__, SRC))
    return pcindex


class SetupSampler:
    """Times `import pcindex` plus the first call's lazy work in fresh interpreters.

    The samples are spread evenly over the timed loop, between units, so
    that their median sees the machine over the whole run rather than in
    one moment.  Their time is not charged to the loop.
    """

    def __init__(self, workload, samples, seconds):
        arg = "analyze" if workload == "analyze" else str(EXPERIMENTS[workload]["n"])
        self.cmd = [sys.executable, "-E", "-s", "-c", SETUP_CODE, str(SRC), arg]
        self.samples = samples
        self.every = seconds / samples if samples else float("inf")
        self.times = []
        self.spent = 0.0
        if samples:
            self._child()  # fills the bytecode cache; not counted
            self.spent = 0.0

    def _child(self):
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        self.spent += time.perf_counter() - t0
        return float(done.stdout)

    def poll(self, elapsed):
        """Take a sample if one is due at `elapsed` seconds into the loop."""
        if len(self.times) < self.samples and elapsed >= len(self.times) * self.every:
            self.times.append(self._child())

    def median(self):
        while len(self.times) < self.samples:
            self.times.append(self._child())
        return statistics.median(self.times) if self.times else None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- experiment


def experiment_config(workload, seed, unit):
    from pcindex import ExperimentConfig

    return ExperimentConfig(base_matrices=1, seed=seed * UNIT_STRIDE + unit, **EXPERIMENTS[workload])


def run_experiment_units(workload, seed, seconds, tracer, setup):
    from pcindex import _fast, montecarlo

    for u in range(WARMUP_UNITS):
        montecarlo.run_experiment(experiment_config(workload, seed, UNIT_STRIDE - 1 - u))
    if tracer is not None:
        trace_experiment(tracer, montecarlo, _fast)
    times, tables, traced = [], [], []
    clock = time.perf_counter
    start = clock()
    while (elapsed := clock() - start - setup.spent) < seconds:
        setup.poll(elapsed)
        cfg = experiment_config(workload, seed, len(times))
        # a traced run traces every other unit, so the rest measure its overhead
        on = tracer is not None and len(times) % 2 == 0
        if on:
            tracer.install()
        t0 = clock()
        table = montecarlo.run_experiment(cfg)
        times.append(clock() - t0)
        if on:
            tracer.close()
        tables.append(table)
        traced.append(on)
    return times, tables, traced, peak_rss_mb()


def trace_experiment(tracer, montecarlo, fast):
    tracer.span(montecarlo, "run_experiment", "montecarlo.run_experiment")
    tracer.span(montecarlo, "_chain_masks", "montecarlo.removal")
    tracer.counter(montecarlo, "_bridges", "montecarlo.bridge_search")
    tracer.span(fast, "get_tables", "fast.get_tables")
    tracer.span(fast, "indices_for_masks", "fast.indices_for_masks", count=lambda a, out: len(out))


def check_experiment(workload, seed, tables):
    """Failure labels per unit: table properties always, chain rows on a sample."""
    failures = []
    for u, table in enumerate(tables):
        cfg = experiment_config(workload, seed, u)
        bad = table_failures(table, cfg)
        if u % CHAIN_CHECK_EVERY == 0:
            again, chains = replay(cfg)
            if not np.array_equal(again.d, table.d):
                bad.add("repeatable")
            bad |= chain_failures(cfg, chains, table)
        failures.append(bad)
    return failures


def table_failures(table, cfg):
    """D(.,0) = 0, |D| <= 1, finite values, totals equal to the summed |D|."""
    d = np.asarray(table.d)
    totals = np.asarray(table.totals)
    if d.shape != (len(oracle.INDEX_NAMES), cfg.removals_max + 1) or tuple(table.index_names) != oracle.INDEX_NAMES:
        return {"shape"}
    bad = set()
    if not (np.isfinite(d).all() and np.isfinite(totals).all()):
        bad.add("finite")
    if (d[:, 0] != 0.0).any():
        bad.add("zero_column")
    if (np.abs(d) > 1.0).any():
        bad.add("bounded")
    if not np.allclose(totals, np.abs(d).sum(axis=1), rtol=1e-12, atol=1e-15):
        bad.add("totals")
    return bad


def replay(cfg):
    """Run one unit again, keeping (logvals, masks, index rows) of every chain it evaluates."""
    from pcindex import _fast, montecarlo

    evaluate = _fast.indices_for_masks
    chains = []

    def keep(t, logvals, masks, *blend):
        out = evaluate(t, logvals, masks, *blend)
        chains.append((np.array(logvals), np.array(masks, dtype=bool), out.copy()))
        return out

    _fast.indices_for_masks = keep
    try:
        table = montecarlo.run_experiment(cfg)
    finally:
        _fast.indices_for_masks = evaluate
    return table, chains


def chain_failures(cfg, chains, table):
    """Recompute every chain row independently and rebuild the unit's table from the rows."""
    if len(chains) != cfg.d_max:
        return {"chains"}
    n = cfg.n
    pairs = list(zip(*np.triu_indices(n, 1)))
    acc = np.zeros((cfg.removals_max + 1, len(oracle.INDEX_NAMES)))
    bad = set()
    base = chains[0][0]  # d = 1 multiplies every entry by exactly 1
    for d, (logvals, masks, vals) in enumerate(chains, start=1):
        if (np.abs(logvals - base) > np.log(d) + 1e-12).any():
            bad.add("disturbance")
        bad |= mask_failures(n, pairs, masks, cfg)
        for row, mask in zip(vals, masks):
            # d = 1 rows are consistent, so every index must be 0 on them
            want = np.zeros(len(row)) if d == 1 else oracle.indices(n, logvals, mask)
            bad |= {name for name, g, w in zip(oracle.INDEX_NAMES, row, want) if not oracle.agrees(g, w)}
        acc += oracle.rescaled(vals[0][None, :], vals)
    if not np.allclose(acc.T / cfg.d_max, table.d, rtol=1e-9, atol=1e-12):
        bad.add("reduction")
    return bad


def mask_failures(n, pairs, masks, cfg):
    """Row 0 complete, row k missing exactly k comparisons, every row connected, nesting."""
    bad = set()
    removed = (~masks).sum(axis=1)
    if (removed != np.arange(len(masks))).any():
        bad.add("removal_count")
    if not all(oracle.connected(n, pairs, m) for m in masks):
        bad.add("connected")
    if not cfg.independent_removals and (masks[1:] & ~masks[:-1]).any():
        bad.add("nested")
    return bad


# ---------------------------------------------------------------- analyze


def run_analyze_units(seed, seconds, tracer, setup):
    from pcindex import cli

    folder = OUT / ("analyze-%d" % seed)
    folder.mkdir(parents=True, exist_ok=True)

    def write(matrices):
        paths = []
        for i, m in enumerate(matrices):
            path = folder / ("m%02d.txt" % i)
            path.write_text(m.text, encoding="utf-8")
            paths.append(str(path))
        return paths

    for path in write(inputs.round_inputs(seed, WARMUP_ROUND))[:WARMUP_UNITS]:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["analyze", path, "--json"])
    if tracer is not None:
        trace_analyze(tracer)
    times, results, traced = [], [], []
    clock = time.perf_counter
    start = clock()
    rnd = 0
    while clock() - start - setup.spent < seconds:
        matrices = inputs.round_inputs(seed, rnd)
        # a traced run traces every other round, so the rest measure its overhead
        on = tracer is not None and rnd % 2 == 0
        for m, path in zip(matrices, write(matrices)):
            setup.poll(clock() - start - setup.spent)
            buf = io.StringIO()
            if on:
                tracer.install()
            with contextlib.redirect_stdout(buf):
                t0 = clock()
                code = cli.main(["analyze", path, "--json"])
                t1 = clock()
            if on:
                tracer.close()
            times.append(t1 - t0)
            results.append((m, code, buf.getvalue()))
            traced.append(on)
        rnd += 1
    return times, results, traced, peak_rss_mb()


def trace_analyze(tracer):
    from pcindex import cli, indices, priority

    def length(_args, out):
        return len(out)

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "parse_matrix", "core.parse_matrix")
    tracer.span(cli, "all_indices", "indices.all_indices")
    tracer.span(cli, "classical_indices", "indices.classical_indices")
    for attr in ("cycle_based_indices", "sh_index_inc", "harker_ci", "oliva_index"):
        tracer.span(indices, attr, "indices." + attr)
    tracer.span(indices, "enumerate_cycles", "graph.enumerate_cycles", count=length)
    tracer.span(indices, "enumerate_paths", "graph.enumerate_paths", count=length)
    for attr in ("ills", "gmm", "harker_rank"):
        tracer.span(indices, attr, "priority." + attr)
    for module in (indices, priority):
        tracer.span(module, "build_graph", "graph.build_graph")
        tracer.span(module, "is_irreducible", "graph.is_irreducible")
        tracer.span(module, "principal_eigen", "priority.principal_eigen")


def _no_constant(token):
    raise ValueError("non-finite number %s in JSON output" % token)


def analyze_failures(m, code, text, expected):
    """Failure labels of one analyze call; `expected` is the recomputation of its matrix."""
    if code != 0:
        return {"exit_code"}
    try:
        out = json.loads(text, parse_constant=_no_constant)
    except ValueError:
        return {"json"}
    got = out.get("indices", {})
    if out.get("n") != m.n or out.get("complete") != m.complete or tuple(got) != oracle.INDEX_NAMES:
        return {"fields"}
    want = np.zeros(len(oracle.INDEX_NAMES)) if m.consistent else expected
    bad = {name for name, w in zip(oracle.INDEX_NAMES, want) if not oracle.agrees(got[name], w)}
    if m.complete:
        deltas = out.get("reduction_delta", {})
        if len(deltas) != 5 or any(abs(v) > oracle.ATOL for v in deltas.values()):
            bad.add("reduction")
    elif "classical" in out:
        bad.add("fields")
    return bad


def check_analyze(results):
    expected = {}
    failures = []
    for m, code, text in results:
        key = m.text
        if key not in expected:
            expected[key] = oracle.indices(m.n, m.logvals, m.mask)
        failures.append(analyze_failures(m, code, text, expected[key]))
    return failures


# ---------------------------------------------------------------- metrics


def end_to_end(times, rss, setup):
    ms = np.array(times) * 1e3
    return {
        "units_per_s": (len(times) / float(np.sum(times)), "1/s"),
        "latency_p50_ms": (float(np.percentile(ms, 50)), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
    }


LAYERS = ("cli", "core", "indices", "graph", "priority", "fast", "montecarlo")


def per_layer(tracer, workload, times, traced, tables_s, tables_mb):
    """Per-layer metrics from the traced units; the untraced ones give the overhead."""
    units = sum(traced)
    on = np.array(traced)
    overhead = np.mean(np.array(times)[on]) / np.mean(np.array(times)[~on]) - 1.0 if (~on).any() else 0.0
    tot = tracer.totals()
    selfs = tracer.self_times()

    def ms(name, per):
        return tot[name][1] * 1e3 / per if per else 0.0

    chains = units * EXPERIMENTS[workload]["d_max"] if workload in EXPERIMENTS else 0
    rows = tot["fast.indices_for_masks"][2]
    out = {
        "montecarlo.removal_ms_per_chain": (ms("montecarlo.removal", chains), "ms"),
        "montecarlo.bridge_searches_per_chain": (
            tracer.counts["montecarlo.bridge_search"] / chains if chains else 0.0,
            "count",
        ),
        "fast.indices_ms_per_chain": (ms("fast.indices_for_masks", chains), "ms"),
        "fast.indices_us_per_row": (tot["fast.indices_for_masks"][1] * 1e6 / rows if rows else 0.0, "us"),
        "fast.tables_s": (tables_s, "s"),
        "fast.tables_mb": (tables_mb, "MB"),
        "cli.analyze_ms": (ms("cli.main", units), "ms"),
        "core.parse_ms": (ms("core.parse_matrix", units), "ms"),
        "indices.all_indices_ms": (ms("indices.all_indices", units), "ms"),
        "indices.classical_ms": (ms("indices.classical_indices", units), "ms"),
        "graph.enumerate_ms": (ms("graph.enumerate_cycles", units) + ms("graph.enumerate_paths", units), "ms"),
        "graph.cycles_per_matrix": (tot["graph.enumerate_cycles"][2] / units, "count"),
        "graph.paths_per_matrix": (tot["graph.enumerate_paths"][2] / units, "count"),
        "graph.build_graph_calls_per_matrix": (tot["graph.build_graph"][0] / units, "count"),
        "priority.eigen_ms": (ms("priority.principal_eigen", units), "ms"),
        "priority.ills_ms": (ms("priority.ills", units), "ms"),
    }
    for layer in LAYERS:
        out[layer + ".self_ms_per_unit"] = (selfs.get(layer, 0.0) * 1e3 / units, "ms")
    out["trace.unit_ms"] = (sum(selfs.values()) * 1e3 / units, "ms")
    out["trace.overhead_pct"] = (overhead * 100.0, "%")
    return out


def table_build(workload):
    """Median in-process build time and size of the workload's tables (0 on analyze)."""
    if workload not in EXPERIMENTS:
        return 0.0, 0.0
    from pcindex import _fast

    n = EXPERIMENTS[workload]["n"]
    times = []
    for _ in range(TABLE_SAMPLES):
        _fast.get_tables.cache_clear()
        t0 = time.perf_counter()
        t = _fast.get_tables(n)
        times.append(time.perf_counter() - t0)
    size = sum(a.nbytes for a in t if isinstance(a, np.ndarray))
    return statistics.median(times), size / 2**20


# ---------------------------------------------------------------- runs


def verdict(failures, known):
    """True when every failed unit is a known-fault input failing only on the known indices."""
    return all(k and bad <= KNOWN_FAULT for bad, k in zip(failures, known) if bad)


def run(workload, seed, seconds, trace, setup_samples=SETUP_SAMPLES):
    """One run of one workload: (result object, failure labels and time in s per attempted unit)."""
    load_program()
    setup = SetupSampler(workload, 0 if trace else setup_samples, seconds)
    tables_s, tables_mb = table_build(workload) if trace else (0.0, 0.0)
    tracer = Tracer() if trace else None
    try:
        if workload == "analyze":
            times, results, traced, rss = run_analyze_units(seed, seconds, tracer, setup)
        else:
            times, results, traced, rss = run_experiment_units(workload, seed, seconds, tracer, setup)
    finally:
        if tracer is not None:
            tracer.close()
    if workload == "analyze":
        failures = check_analyze(results)
        known = [m.fixed for m, _code, _text in results]
    else:
        failures = check_experiment(workload, seed, results)
        known = [False] * len(results)
    if trace:
        metrics = per_layer(tracer, workload, times, traced, tables_s, tables_mb)
        OUT.mkdir(exist_ok=True)
        dump = OUT / ("spans-%s-%d.json" % (workload, seed))
        dump.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        metrics = end_to_end(times, rss, setup.median())
    result = {
        "correct": verdict(failures, known),
        "attempted": len(times),
        "failed": sum(1 for bad in failures if bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, failures, times


def report(workload, seed, result, failures, times, trace):
    print("workload %s, seed %d: %d attempted, %d failed, correct=%s"
          % (workload, seed, result["attempted"], result["failed"], result["correct"]))
    labels = {}
    for bad in failures:
        for label in bad:
            labels[label] = labels.get(label, 0) + 1
    for label, count in sorted(labels.items()):
        print("  failed check %-14s %d units" % (label, count))
    for name, m in result["metrics"].items():
        print("  %-38s %14.6g %s" % (name, m["value"], m["unit"]))
    if not trace:
        # reported, not gated: it moved by more than a tenth between runs of the same code
        print("  %-38s %14.6g ms (not gated)" % ("latency_p95_ms", np.percentile(times, 95) * 1e3))


def run_all(seed, seconds, trace):
    """Every workload in its own process, one after another; a table at the end."""
    rows = []
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        rows.append((workload, result))
    names = list(rows[0][1]["metrics"])
    print()
    print("%-38s" % "metric" + "".join("%14s" % w for w, _ in rows))
    for key in ("attempted", "failed"):
        print("%-38s" % key + "".join("%14d" % r[key] for _, r in rows))
    for name in names:
        unit = rows[0][1]["metrics"][name]["unit"]
        print("%-38s" % ("%s [%s]" % (name, unit)) + "".join("%14.5g" % r["metrics"][name]["value"] for _, r in rows))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.trace)
        result, failures, times = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    report(args.workload, args.seed, result, failures, times, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
