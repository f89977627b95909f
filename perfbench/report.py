#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, one row per workload.

Run from the repository root:

    python3 perfbench/report.py [--seed 0] [--seconds 40] [--workloads logit gt-tuned]

For each workload this runs ``run.py`` untraced and then traced, one child
process at a time, and prints three comma-separated tables: the end-to-end
metrics, the per-layer metrics, and the runs of each workload's first pass
(seeds, status, iterations, bits and CG breach iterations per config). The
``samples`` column gives the number of samples behind each median.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_COLUMNS = ("label", "problem_seed", "graph_seed", "status", "iters",
               "bits", "cg_breach_iters", "rel_err", "seconds", "failure")


def run_workload(name: str, seed: int, seconds: float, trace: int):
    """Stdout JSON lines of one run.py process; raises if it fails."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def table(title: str, rows: dict) -> None:
    """rows: workload -> (result, samples) of one run.py process."""
    first = next(iter(rows.values()))[0]["metrics"]
    print(f"# {title}")
    print(",".join(["workload", "correct", "failed/attempted", "samples"]
                   + [f"{name} [{m['unit']}]" for name, m in first.items()]))
    for workload, (result, samples) in rows.items():
        counts = " ".join(f"{k}={v}" for k, v in samples.items() if k != "kind")
        cells = [f"{result['metrics'][name]['value']:.6g}" for name in first]
        print(",".join([workload, str(result["correct"]),
                        f"{result['failed']}/{result['attempted']}", counts] + cells))
    print()


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import run

    run.import_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    args = parser.parse_args(argv)

    end_to_end, per_layer, runs = {}, {}, []
    for name in args.workloads:
        for trace, rows in ((0, end_to_end), (1, per_layer)):
            lines = run_workload(name, args.seed, args.seconds, trace)
            samples = next(line for line in lines if line.get("kind") == "samples")
            rows[name] = (lines[-1], samples)
            if trace == 0:
                runs += [(name, line) for line in lines if line.get("kind") == "run"]
    table("end-to-end", end_to_end)
    table("per-layer (traced runs)", per_layer)
    print("# runs of the first untraced pass")
    print(",".join(("workload",) + RUN_COLUMNS))
    for name, line in runs:
        print(",".join([name] + [str(line.get(col, "")) for col in RUN_COLUMNS]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
