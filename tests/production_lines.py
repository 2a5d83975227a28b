"""Print, as JSON, the src lines of each parkrank function that no
production flow runs: every CLI command at the criterion-9 shape, traced
line by line with sys.settrace.

The flows: `synth` from a `--config` file with the seed from OPR_SEED;
`ingest --kind space` and `--kind street` from the record files of
contract_digests.write_records (a Z timestamp, a gap carried forward and
a meter dropped over the missing-data limit); `train` with the relu
settings and with softmax scores, dropout 0.3 and beta 2; `eval` on
`--split test`, `val` and `train`, and `recommend`, on both checkpoints;
and `bench`. Lines inside `raise` statements and `except` handlers are
left out, so what remains is code that only tests reach.

    python3 tests/production_lines.py > after.json
    python3 tests/production_lines.py /path/to/other/checkout/src > before.json

The optional argument is the src/ directory to import parkrank from; by
default it is the one next to this file. Keys are module.qualname; the
lines of comprehensions, generator expressions and lambdas count under
the function that holds them. pytest does not collect this script;
tests/test_contract.py pins the names it lists.
"""

import ast
import importlib
import inspect
import json
import os
import sys
import tempfile
import types
from pathlib import Path

import contract_digests as contract


def flows(cli, work: Path) -> None:
    data = work / "data"
    config = work / "synth.cfg"
    config.write_text("# criterion 9\nlocations = 9\nintervals = 150\n")
    os.environ["OPR_SEED"] = "4"
    try:
        contract.run(cli, ["synth", "--out", str(data), "--config",
                           str(config)])
    finally:
        del os.environ["OPR_SEED"]
    locations, records = contract.write_records(work / "records")
    for kind, path in records.items():
        contract.run(cli, ["ingest", "--records", str(path), "--locations",
                           str(locations), "--kind", kind, "--out",
                           str(work / f"ingest-{kind}")])
    for name, extra in contract.VARIANTS.items():
        out = work / name
        checkpoint = str(out / "checkpoint.bin")
        contract.run(cli, ["train", "--data", str(data), "--out", str(out),
                           *contract.TRAIN, *extra])
        for split in ("test", "val", "train"):
            contract.run(cli, ["eval", "--data", str(data), "--checkpoint",
                               checkpoint, "--out", str(out / split),
                               "--split", split])
        contract.run(cli, ["recommend", "--data", str(data), "--checkpoint",
                           checkpoint, "--query", "m004", "--time", "100"])
    contract.run(cli, ["bench", "--data", str(data), "--out",
                       str(work / "bench")])


def traced_lines(package: Path, run) -> set[tuple[str, int]]:
    """(file, line) of every line run in package while run() runs."""
    hit: set[tuple[str, int]] = set()
    root = str(package)

    def local(frame, event, arg):
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(root):
            return None
        hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return hit


def owner(code: types.CodeType) -> str:
    """The qualname, with anonymous code folded into its function."""
    parts = code.co_qualname.split(".")
    while len(parts) > 1 and parts[-1].startswith("<"):
        parts.pop()
        if parts[-1] == "<locals>":
            parts.pop()
    return ".".join(parts)


def function_lines(path: Path) -> dict[str, set[int]]:
    """Per function of a module, the lines that hold its bytecode, less
    those inside raise statements and except handlers."""
    source = path.read_text()
    errors = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            errors.update(range(node.lineno, node.end_lineno + 1))
    out: dict[str, set[int]] = {}
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        name = owner(code)
        # module and class bodies, and comprehensions in them, run on import
        if code.co_flags & inspect.CO_OPTIMIZED and name[0] != "<":
            lines = {line for _, _, line in code.co_lines() if line}
            out.setdefault(name, set()).update(lines - errors)
    return out


def unrun_lines(cli) -> dict[str, list[int]]:
    """{module.qualname: sorted unrun lines} of each function in the cli
    module's package that the flows leave wholly or partly unrun."""
    package = Path(cli.__file__).resolve().parent
    with tempfile.TemporaryDirectory() as tmp:
        hit = traced_lines(package, lambda: flows(cli, Path(tmp)))
    unrun = {}
    for path in sorted(package.glob("*.py")):
        for name, lines in function_lines(path).items():
            missed = sorted(n for n in lines if (str(path), n) not in hit)
            if missed:
                unrun[f"{path.stem}.{name}"] = missed
    return unrun


def main() -> None:
    here = Path(__file__).resolve().parents[1] / "src"
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else here
    sys.path.insert(0, str(src.resolve()))
    cli = importlib.import_module("parkrank.cli")
    print(json.dumps(unrun_lines(cli), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
