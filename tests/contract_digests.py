"""Print, as JSON, the sha256 of every output the behaviour contract keeps
byte for byte: the criterion-9 train and eval flow (checkpoint, training
log and the three metric files), the same flow with softmax scores,
dropout 0.3 and beta 2, `eval --split val --max-wait 3` (the three metric
files) and `recommend --top 9 --time 100` for meters m000, m004 and m008
on both checkpoints.

    python3 tests/contract_digests.py > after.json
    python3 tests/contract_digests.py /path/to/other/checkout/src > before.json
    diff before.json after.json

The optional argument is the src/ directory to import parkrank from; by
default it is the one next to this file. pytest does not collect this
script.
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
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
METRIC_FILES = ("metrics.json", "metrics.csv", "plot_data.csv")
FILES = ("checkpoint.bin", "train_log.csv", *METRIC_FILES)
METERS = ("m000", "m004", "m008")


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


def digests(cli, work: Path) -> dict[str, str]:
    data = work / "data"
    run(cli, ["synth", "--out", str(data), *SYNTH])
    result = {}
    for name, extra in VARIANTS.items():
        out = work / name
        checkpoint = out / "checkpoint.bin"
        run(cli, ["train", "--data", str(data), "--out", str(out),
                  *TRAIN, *extra])
        run(cli, ["eval", "--data", str(data), "--checkpoint",
                  str(checkpoint), "--out", str(out)])
        for file in FILES:
            result[f"{name}/{file}"] = sha((out / file).read_bytes())
        val_out = out / "val-max-wait-3"
        run(cli, ["eval", "--data", str(data), "--checkpoint",
                  str(checkpoint), "--out", str(val_out), "--split", "val",
                  "--max-wait", "3"])
        for file in METRIC_FILES:
            result[f"{name}/val-max-wait-3/{file}"] = sha(
                (val_out / file).read_bytes()
            )
        for meter in METERS:
            stdout = run(cli, [
                "recommend", "--data", str(data), "--checkpoint",
                str(checkpoint), "--query", meter, "--time", "100",
                "--top", "9",
            ])
            result[f"{name}/recommend-{meter}"] = sha(stdout)
    return result


def main() -> None:
    here = Path(__file__).resolve().parents[1] / "src"
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else here
    sys.path.insert(0, str(src.resolve()))
    cli = importlib.import_module("parkrank.cli")
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(digests(cli, Path(tmp)), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
