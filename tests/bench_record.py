"""Run perfbench on this checkout and a baseline checkout, alternating
them, and append each run to BENCH_<workload>.json.

    python3 tests/bench_record.py --workload city120-recommend \
        --baseline /path/to/parent --aa /path/to/parent-copy \
        --seeds 4101 4102 4103 4104 4105 4106 4107 4108 4109 4110
    python3 tests/bench_record.py --workload c8-train --baseline . \
        --seeds 1 --seconds 1 --smoke --out "$(mktemp -d)"

Each seed runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once per checkout, each in its own process and with its own
perfbench: this one ("change"), --baseline ("baseline") and, with --aa,
a second copy of the baseline ("aa"). The order rotates from seed to
seed, so slow drift of a shared machine lands on every side alike. The
aa side shows how far two copies of one commit read apart; a claimed
gain must be wider than that. --smoke passes perfbench's --smoke (the
criterion-9 shape).

Each run appends {sha, side, seed, provenance, correct, failed, metrics}
to BENCH_<workload>.json in --out (default: this checkout's root), which
must be an existing directory: sha is
``git describe --always --dirty`` of the checkout, and the rest is what
perfbench printed. At the end, each metric's median and quartiles per
side are printed over this invocation's runs, with the number of seeds
where the change read better than the baseline. pytest does not collect
this script. --out and every checkout's perfbench/run.py are checked
before the first run, so a bad argument records nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]


def git_sha(checkout: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty",
             "--abbrev=40"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def bench(checkout: Path, args, seed: int) -> dict:
    """One untraced perfbench run in checkout: its provenance line and its
    final result line, parsed."""
    command = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(command, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"bench_record: {' '.join(command)} exited "
                 f"{out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    provenance = next(
        line for line in lines if line.startswith("provenance: ")
    )
    result = json.loads(lines[-1])
    return {
        "provenance": json.loads(provenance.removeprefix("provenance: ")),
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def summarize(runs: list[dict]) -> None:
    sides = list(dict.fromkeys(run["side"] for run in runs))
    for name in runs[0]["metrics"]:
        print(name)
        by_side = {}
        for side in sides:
            values = {run["seed"]: run["metrics"][name]["value"]
                      for run in runs if run["side"] == side}
            by_side[side] = values
            q1, median, q3 = (
                statistics.quantiles(values.values(), n=4)
                if len(values) > 1 else [next(iter(values.values()))] * 3
            )
            print(f"  {side:<9} median {median:.6g} [quartiles {q1:.6g}, "
                  f"{q3:.6g}] over {len(values)} runs")
        if "baseline" in by_side:
            change, base = by_side["change"], by_side["baseline"]
            lower = sum(change[s] < base[s] for s in change)
            higher = sum(change[s] > base[s] for s in change)
            print(f"  change lower in {lower}, higher in {higher} "
                  f"of {len(change)} seeds")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="checkout of the commit to compare against")
    parser.add_argument("--aa", type=Path,
                        help="a second checkout of the baseline's commit")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE,
                        help="directory of BENCH_<workload>.json")
    args = parser.parse_args()
    if not args.out.is_dir():
        # checked before the first run, which would write nothing to it
        parser.error(f"--out {args.out} is not a directory")
    checkouts = {"change": HERE, "baseline": args.baseline.resolve()}
    if args.aa is not None:
        checkouts["aa"] = args.aa.resolve()
    for side, path in checkouts.items():
        # checked before the first run, so no side's runs land alone
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    shas = {side: git_sha(path) for side, path in checkouts.items()}
    record = args.out / f"BENCH_{args.workload}.json"
    history = json.loads(record.read_text()) if record.exists() else []
    runs = []
    order = list(checkouts)
    for i, seed in enumerate(args.seeds):
        shift = i % len(order)
        for side in order[shift:] + order[:shift]:
            run = {"sha": shas[side], "side": side, "seed": seed,
                   **bench(checkouts[side], args, seed)}
            print(f"seed {seed} {side}: correct {run['correct']}, "
                  f"setup_s {run['metrics']['setup_s']['value']:.6g}",
                  flush=True)
            runs.append(run)
            history.append(run)
            # written after each run, so an interrupted round keeps its runs
            record.write_text(json.dumps(history, indent=1) + "\n")
    summarize(runs)


if __name__ == "__main__":
    main()
