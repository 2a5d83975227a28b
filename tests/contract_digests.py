"""Print, as JSON, the sha256 of every output the behaviour contract keeps
byte for byte: the criterion-9 `synth` data directory (its four files);
the criterion-9 train and eval flow (checkpoint, training log and the
three metric files), the same flow with softmax scores, dropout 0.3 and
beta 2, and the same flow on the criterion-9 data synthesized with
`--adjacency-m 85` (neighbourhoods of up to 9 candidates rather than 5),
each with `eval --split val --max-wait 3` (the three metric files) and
`recommend --top 9 --time 100` for meters m000, m004 and m008; `bench`
on the criterion-9 data (both files); and `ingest --kind space` and
`--kind street` (the four data-dir files) from the fixed record files of
write_records.

    python3 tests/contract_digests.py > after.json
    python3 tests/contract_digests.py /path/to/other/checkout/src > before.json
    diff before.json after.json

The optional argument is the src/ directory to import parkrank from; by
default it is the one next to this file. pytest does not collect this
script.

    python3 tests/contract_digests.py --kernels

runs the digests here and again in two child processes, each with one
variable set for it alone: OPENBLAS_CORETYPE=Sandybridge (OpenBLAS's
kernels without FMA) and NPY_DISABLE_CPU_FEATURES naming every feature
numpy dispatches to that this machine has (numpy's baseline loops). It
prints the keys each child reads differently, and exits 1 if one of them
is not a checkpoint.bin or train_log.csv: only those may move with the
CPU kernels, in their last bits.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

# the criterion-9 settings (tests/test_acceptance.py)
SYNTH = ["--locations", "9", "--intervals", "150", "--seed", "4"]
TRAIN = [
    "--alpha", "3", "--beta", "1", "--conv-channels", "3", "--embed-dim", "4",
    "--kernel-len", "2", "--horizon-intervals", "2", "--batch-size", "8",
    "--iterations", "6", "--eval-every", "3", "--seed", "1",
]
VARIANTS = {
    "c9": [],
    "c9-softmax-dropout-beta2": [
        "--score-activation", "softmax", "--dropout-rate", "0.3",
        "--beta", "2",
    ],
}
# the c9 flow again on data synthesized with this extra option
WIDE = ("c9-adjacency-85m", ["--adjacency-m", "85"])
METRIC_FILES = ("metrics.json", "metrics.csv", "plot_data.csv")
FILES = ("checkpoint.bin", "train_log.csv", *METRIC_FILES)
METERS = ("m000", "m004", "m008")
BENCH_FILES = ("complexity.json", "complexity_curve.csv")
DATA_FILES = ("matrix.csv", "matrix.meta.json", "graph.json", "locations.csv")
START = datetime(2022, 8, 1, 8, 0)
# the outputs whose bytes may follow the CPU kernels (--kernels)
KERNEL_DEPENDENT = ("/checkpoint.bin", "/train_log.csv")
RECORD_HEADERS = {
    "space": "meter_id,timestamp,state",
    "street": "street_id,timestamp,occupied_count,capacity",
}


def write_records(work: Path) -> tuple[Path, dict[str, Path]]:
    """A locations file and one record file per kind, over 4 meters x 20
    five-minute intervals: m0's timestamps end in Z, m1 misses 2 intervals
    (10%, carried forward) and m3 misses 3 (15%, over the missing-data
    limit, so it is dropped)."""
    work.mkdir(parents=True, exist_ok=True)
    locations = work / "locations.csv"
    locations.write_text(
        "meter_id,lat,lon\nm0,22.3,114.17\nm1,22.3,114.1703\n"
        "m2,22.3,114.1706\nm3,22.3003,114.17\n"
    )
    missing = {"m1": (5, 6), "m3": (10, 11, 12)}
    records = {}
    for kind, header in RECORD_HEADERS.items():
        lines = [header]
        for i in range(4):
            meter = f"m{i}"
            for t in range(20):
                if t in missing.get(meter, ()):
                    continue
                stamp = (START + timedelta(minutes=5 * t)).isoformat()
                stamp += "Z" if meter == "m0" else ""
                busy = (3 * i + 7 * t) % 11
                cells = [busy % 2] if kind == "space" else [busy, 10]
                lines.append(",".join(map(str, [meter, stamp, *cells])))
        records[kind] = work / f"{kind}.csv"
        records[kind].write_text("\n".join(lines) + "\n")
    return locations, records


def run(cli, argv: list[str]) -> bytes:
    """cli.main(argv)'s stdout; any exit code but 0 raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue().encode("utf-8")


def sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def flow(cli, data: Path, out: Path, extra: list[str]) -> dict[str, str]:
    """Digests of train, eval, eval on val and recommend on data, keyed
    by paths under out's name."""
    result = {}
    checkpoint = out / "checkpoint.bin"
    run(cli, ["train", "--data", str(data), "--out", str(out),
              *TRAIN, *extra])
    run(cli, ["eval", "--data", str(data), "--checkpoint",
              str(checkpoint), "--out", str(out)])
    for file in FILES:
        result[f"{out.name}/{file}"] = sha((out / file).read_bytes())
    val_out = out / "val-max-wait-3"
    run(cli, ["eval", "--data", str(data), "--checkpoint",
              str(checkpoint), "--out", str(val_out), "--split", "val",
              "--max-wait", "3"])
    for file in METRIC_FILES:
        result[f"{out.name}/val-max-wait-3/{file}"] = sha(
            (val_out / file).read_bytes()
        )
    for meter in METERS:
        stdout = run(cli, [
            "recommend", "--data", str(data), "--checkpoint",
            str(checkpoint), "--query", meter, "--time", "100",
            "--top", "9",
        ])
        result[f"{out.name}/recommend-{meter}"] = sha(stdout)
    return result


def digests(cli, work: Path) -> dict[str, str]:
    data = work / "data"
    run(cli, ["synth", "--out", str(data), *SYNTH])
    result = {f"synth/{file}": sha((data / file).read_bytes())
              for file in DATA_FILES}
    for name, extra in VARIANTS.items():
        result.update(flow(cli, data, work / name, extra))
    name, synth_extra = WIDE
    wide_data = work / f"{name}-data"
    run(cli, ["synth", "--out", str(wide_data), *SYNTH, *synth_extra])
    result.update(flow(cli, wide_data, work / name, []))
    bench = work / "bench"
    run(cli, ["bench", "--data", str(data), "--out", str(bench)])
    for file in BENCH_FILES:
        result[f"bench/{file}"] = sha((bench / file).read_bytes())
    locations, records = write_records(work / "records")
    for kind, path in records.items():
        out = work / f"ingest-{kind}"
        run(cli, ["ingest", "--records", str(path), "--locations",
                  str(locations), "--kind", kind, "--out", str(out)])
        for file in DATA_FILES:
            result[f"ingest-{kind}/{file}"] = sha((out / file).read_bytes())
    return result


def kernel_variables() -> list[tuple[str, str]]:
    """The variable each --kernels child runs under."""
    from numpy._core._multiarray_umath import (
        __cpu_dispatch__, __cpu_features__,
    )
    dispatched = [name for name in __cpu_dispatch__ if __cpu_features__[name]]
    return [("OPENBLAS_CORETYPE", "Sandybridge"),
            ("NPY_DISABLE_CPU_FEATURES", " ".join(dispatched))]


def compare_kernels(src: Path, ours: dict[str, str]) -> bool:
    """Print the keys each kernel child reads differently from ours; True
    if every such key is kernel-dependent."""
    held = True
    for name, value in kernel_variables():
        if not value:
            print(f"{name}: nothing to disable, skipped")
            continue
        child = subprocess.run(
            [sys.executable, __file__, str(src)],
            env={**os.environ, name: value},
            stdout=subprocess.PIPE, text=True, check=True,
        )
        theirs = json.loads(child.stdout)
        differ = sorted(key for key in ours.keys() | theirs.keys()
                        if ours.get(key) != theirs.get(key))
        print(f"{name}={value}: {len(differ)} of {len(ours)} keys differ")
        for key in differ:
            allowed = key.endswith(KERNEL_DEPENDENT)
            held &= allowed
            print(f"  {key}" + ("" if allowed else "  (must not differ)"))
    return held


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "src", nargs="?", type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
    )
    parser.add_argument("--kernels", action="store_true")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("parkrank.cli")
    with tempfile.TemporaryDirectory() as tmp:
        ours = digests(cli, Path(tmp))
    if not args.kernels:
        print(json.dumps(ours, indent=1, sort_keys=True))
    elif not compare_kernels(src, ours):
        sys.exit(1)


if __name__ == "__main__":
    main()
