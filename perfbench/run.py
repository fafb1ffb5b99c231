"""Pipeline benchmark of fraccalderon.

    python3 perfbench/run.py --workload {invert2d,noise1d,desk1d} --seed N \
        --seconds S --trace {0,1}

Run from a source checkout; the package is imported from ``src/``.  Prints
a human-readable summary and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Working files and a full result record go to ``.perfbench_out/``.
"""

import argparse
import json
import sys

import harness


def _summary(result: dict) -> None:
    s = result["samples"]
    print(f"perfbench {result['workload']} seed={result['seed']} trace={int(result['trace'])} "
          f"batches={result['batches']} setup_probes={result['setup_probes']}")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    stable = len(set(result["batch_digests"])) == 1
    print(f"digest: {result['digest']} (batch digests identical: {stable})")
    if result["trace"]:
        print(f"traced solve_s {result['metrics']['traced.solve_s'][0]} s; span self time "
              f"sums {result['self_s_sum']} <= traced wall {result['traced_wall_s']}")
    else:
        per = len(set(s["label"]))
        how = {"setup_s": f"sum over {per} processes of medians over "
                          f"{len(s['setup_s']) // per} samples",
               "solve_s": f"sum over {per} processes of medians over "
                          f"{result['batches']} samples",
               "peak_rss_mb": f"max over {len(s['rss_mb'])} processes",
               "recon_err": f"mean over {len(s['recon_err'])} estimates"}
        for name, (value, unit) in result["metrics"].items():
            print(f"{name:<12} {value!r} {unit} ({how[name]})")
    print(f"ops_failed   {result['failed']}/{result['attempted']} count/attempted")
    for line in result["failures"]:
        print("  " + line.strip().replace("\n", " | "), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "fraccalderon" / "cli.py").is_file() or not harness.CONFIGS.is_dir():
        print(f"perfbench: no fraccalderon source tree under {harness.ROOT}", file=sys.stderr)
        return 2
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _summary(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
