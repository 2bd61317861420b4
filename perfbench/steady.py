#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs each workload once per seed and prints, for every metric, the
median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median against the metric's bound.  A spread above
the bound is NOISY and names the metric at fault; below a third of the
bound it is steady.  Every run lasts BENCHMARK.json's run_seconds.

    python3 perfbench/steady.py --seeds 1-10                 # all workloads
    python3 perfbench/steady.py --workloads eco_serve --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --save first.json
    python3 perfbench/steady.py --seeds 1-10 --against first.json
    python3 perfbench/steady.py --seeds 1001 --against first.json   # held-out seed
    python3 perfbench/steady.py --seeds 7 --repeat 2          # determinism of one seed
    python3 perfbench/steady.py --trace 1 --seeds 1-2 --repeat 2

--against compares these medians with saved ones: a metric whose median
is worse than the saved median by more than its bound fails.  --repeat
runs each seed several times and requires the deterministic metrics
(alloc_mwords, delay_rel_err, oracle_rel_l2 and, traced, every count)
to read the same on every run of a seed.  Exits 1 on any failure.
Run from anywhere; the runs execute from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = {"alloc_mwords", "delay_rel_err", "oracle_rel_l2", "ok_share"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(spec, workload, seed, trace, declared):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stdout.write(proc.stdout[-4000:] + proc.stderr[-2000:])
        return None
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != declared:
        print(f"{workload} seed {seed}: metrics or units differ from BENCHMARK.json: "
              f"{sorted(set(units.items()) ^ set(declared.items()))}")
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--save", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    declared = {m["name"]: m["unit"] for m in metrics}
    # traced counts are deterministic; per-retime averages too, since
    # every script cycle does the same work
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    fixed = DETERMINISTIC if args.trace == 0 else counts
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    ok = True
    results = {}
    # seed-major order: every workload's runs spread over the whole
    # session, so a slow spell of the host does not land on one workload
    runs_of = {w: [] for w in workloads}
    for seed in seeds:
        for rep in range(args.repeat):
            for w in workloads:
                m = run_once(spec, w, seed, args.trace, declared)
                if m is None:
                    print(f"{w} seed {seed}: run failed or incorrect")
                    ok = False
                    continue
                runs_of[w].append((seed, m))
                print(f"{w} seed {seed} run {rep + 1}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in m.items()), flush=True)
    for w in workloads:
        runs = runs_of[w]
        if not runs:
            continue
        results[w] = {mt["name"]: [m[mt["name"]] for _, m in runs] for mt in metrics}
        print(f"\n{w}: {len(runs)} runs, seeds {args.seeds}, {spec['run_seconds']} s each")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for mt in metrics:
            name, vals = mt["name"], results[w][mt["name"]]
            med, q1, q3, sp = spread(vals)
            bound = mt.get("bound")
            if bound is None:
                verdict = ""
            elif sp <= bound / 3:
                verdict = "steady"
            elif sp <= bound:
                verdict = "within bound"
            else:
                verdict = f"NOISY: {name} spread {sp:.3f} > bound {bound}"
                ok = False
            if args.repeat > 1 and name in fixed:
                for seed in seeds:
                    same = {m[name] for s, m in runs if s == seed}
                    if len(same) > 1:
                        verdict += f" NOT DETERMINISTIC on seed {seed}: {sorted(same)}"
                        ok = False
            if w in saved and name in saved[w] and bound is not None:
                old = statistics.median(saved[w][name])
                worse = (med - old) / old if mt["better"] == "lower" else (old - med) / old
                verdict += f"  vs saved {old:.6g}: {worse:+.3f}"
                if worse > bound:
                    verdict += f" WORSE THAN BOUND ({name})"
                    ok = False
            bstr = "" if bound is None else f"{bound:.2f}"
            print(f"  {name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.4f} {bstr:>6}  {verdict}")
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    print("STEADY" if ok else "NOT STEADY (see above)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
