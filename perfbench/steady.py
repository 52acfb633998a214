"""Steadiness of the benchmark: repeated runs, quartiles per metric.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Runs every workload of BENCHMARK.json ``--runs`` times, untraced and for
its ``run_seconds``, each run with its own seed and in a separate
process, alternating the order of the workloads from one pass
to the next (forward, then backward), and prints for each metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles over the median.  Every
spread but that of ``setup_s`` is compared against its bound in
BENCHMARK.json: ``ok`` below a third of it, ``WIDE`` up to the bound,
``OVER`` beyond.  The exit status is 0 only if every run is correct with
the same share of failed operations, reports every metric, and every
compared spread is ``ok``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    for index in range(args.runs):
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.first_seed + index
            result = run_once(workload, seed, spec["run_seconds"])
            results[workload].append(result)
            print(f"# {workload} seed {seed}: {json.dumps(result)}",
                  flush=True)

    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"failed shares={sorted(shares)}")
        steady &= correct and len(shares) == 1
        names = sorted({name for r in runs for name in r["metrics"]})
        for name in names:
            samples = [r["metrics"][name] for r in runs
                       if name in r["metrics"]]
            if len(samples) < len(runs):
                steady = False
                print(f"  {name:28s} MISSING from "
                      f"{len(runs) - len(samples)} runs")
                continue
            med, q1, q3, share = spread([m["value"] for m in samples])
            line = (f"  {name:28s} median {med:12.6g} "
                    f"{samples[0]['unit']:9s} q1 {q1:12.6g}  "
                    f"q3 {q3:12.6g}  spread {share:7.2%}")
            bound = bounds[name]
            if name != "setup_s":
                ok = share < bound / 3
                steady &= ok
                verdict = ("ok" if ok else "WIDE" if share <= bound
                           else "OVER")
                line += f"  bound {bound:.2f} {verdict}"
            print(line)
    print(f"\nsteady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
