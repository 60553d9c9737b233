"""Command-line frontend.

Three subcommands: ``analyze`` prints inconsistency indices for a
matrix file (plus the classical reference suite when the matrix is
complete), ``rank`` prints a priority vector, and ``experiment`` runs
the Monte Carlo robustness study and writes its CSV tables.

Exit codes: 0 ok, 2 parse/validation failure or a non-finite index
value, 3 disconnected comparison graph, 4 method/input mismatch, 5 bad
configuration.
"""

import argparse
import functools
import json
import os
import sys

from .core import SCALE_S, NotComplete, NotIrreducible, PCError, is_complete, parse_matrix
from .indices import (
    CLASSICAL_NAMES,
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    INDEX_NAMES,
    BadParams,
    all_indices,
    classical_indices,
)
from .montecarlo import (
    BadK,
    ExperimentConfig,
    distance_csv,
    ranking,
    run_experiment,
    totals_csv,
)
from .priority import evm, gmm, harker_rank, ills

# incomplete-capable index -> classical counterpart it must reduce to
_REDUCTIONS = (("CI", "CI"), ("GCI1", "GCI"), ("GW", "GW"), ("RE1", "RE"), ("RE2", "RE"))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _fmt(x):
    return "%.6g" % x


def cmd_analyze(args):
    m = _load(args.file)
    if args.indices is not None:
        wanted = [s.strip() for s in args.indices.split(",") if s.strip()]
        bad = [s for s in wanted if s not in INDEX_NAMES]
        if bad:
            raise BadParams("unknown index name(s): %s" % ", ".join(bad))
        if not wanted:
            raise BadParams("--indices names no index")
        names = [s for s in INDEX_NAMES if s in wanted]
    else:
        names = list(INDEX_NAMES)
    vals = all_indices(m, alpha=args.alpha, beta=args.beta)
    complete = is_complete(m)
    classical = classical_indices(m) if complete else None

    if args.json:
        out = {
            "n": m.n,
            "complete": complete,
            "exceeds_scale": m.exceeds_scale,
            "indices": {k: vals[k] for k in names},
        }
        if classical is not None:
            out["classical"] = classical
            out["reduction_delta"] = {
                "%s-%s" % (a, b): vals[a] - classical[b] for a, b in _REDUCTIONS
            }
        print(json.dumps(out, indent=2))
        return 0

    print("matrix: n=%d, %s" % (m.n, "complete" if complete else "incomplete"))
    if m.exceeds_scale:
        print("note: some entries exceed the 1/%g..%g scale" % (SCALE_S, SCALE_S))
    for k in names:
        print("%-12s %s" % (k, _fmt(vals[k])))
    if classical is not None:
        print("classical reference (complete input):")
        for k in CLASSICAL_NAMES:
            print("%-12s %s" % (k, _fmt(classical[k])))
        print("reduction deltas (should be ~0):")
        for a, b in _REDUCTIONS:
            print("%-12s %.3g" % ("%s-%s" % (a, b), vals[a] - classical[b]))
    return 0


def cmd_rank(args):
    m = _load(args.file)
    method = {"evm": evm, "gmm": gmm, "harker": lambda x: harker_rank(x).vector, "ills": ills}[
        args.method
    ]
    w = method(m)
    order = sorted(range(m.n), key=lambda i: (-w[i], i))
    for i in order:
        print("%d %.6f" % (i + 1, w[i]))
    return 0


def cmd_experiment(args):
    cfg = ExperimentConfig(
        n=args.n,
        base_matrices=args.matrices,
        d_max=args.dmax,
        removals_max=args.removals,
        alpha=args.alpha,
        beta=args.beta,
        seed=args.seed,
        weight_range=args.weight_range,
        independent_removals=args.independent_removals,
    )
    # a missing directory would otherwise surface only after the whole run
    folder = os.path.dirname(args.out) or os.curdir
    if not os.path.isdir(folder):
        raise FileNotFoundError("output directory %s does not exist" % folder)
    table = run_experiment(cfg, threads=args.threads)
    dist_path = args.out + "_distance.csv"
    tot_path = args.out + "_totals.csv"
    with open(dist_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(distance_csv(table))
    with open(tot_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(totals_csv(table))
    print("wrote %s" % dist_path)
    print("wrote %s" % tot_path)
    print("ranking by total distance (ascending = more robust):")
    for pos, (name, tot) in enumerate(ranking(table), start=1):
        print("%2d. %-12s %s" % (pos, name, _fmt(tot)))
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(prog="pcindex", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="inconsistency indices of a matrix file")
    pa.add_argument("file")
    pa.add_argument("--indices", help="comma-separated subset of: %s" % ",".join(INDEX_NAMES))
    pa.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    pa.add_argument("--beta", type=float, default=DEFAULT_BETA)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("rank", help="priority vector of a matrix file")
    pr.add_argument("file")
    pr.add_argument("--method", choices=("evm", "gmm", "harker", "ills"), required=True)
    pr.set_defaults(func=cmd_rank)

    pe = sub.add_parser("experiment", help="Monte Carlo robustness experiment")
    pe.add_argument("--n", type=int, default=ExperimentConfig.n)
    pe.add_argument("--matrices", type=int, default=ExperimentConfig.base_matrices)
    pe.add_argument("--dmax", type=int, default=ExperimentConfig.d_max)
    pe.add_argument("--removals", type=int, default=ExperimentConfig.removals_max)
    pe.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    pe.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    pe.add_argument("--beta", type=float, default=DEFAULT_BETA)
    pe.add_argument("--weight-range", type=float, default=ExperimentConfig.weight_range)
    pe.add_argument("--threads", type=int, default=1)
    pe.add_argument("--independent-removals", action="store_true")
    pe.add_argument("--out", required=True, help="output path prefix for the CSV files")
    pe.set_defaults(func=cmd_experiment)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NotIrreducible:
        print("error: matrix is not irreducible", file=sys.stderr)
        return 3
    except NotComplete as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except (BadParams, BadK) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 5
    except PCError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
