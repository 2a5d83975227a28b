"""Record the input digest of every workload shape for every data seed.

Usage: python3 perfbench/record_digests.py

Writes perfbench/digests.json. A benchmark run fails when its generated
inputs no longer match this file, so a change to the synthetic generator
cannot quietly change the workloads. Re-record only together with a
deliberate change to the workloads, in a change of its own.
"""

import json

import bootstrap


def main() -> int:
    bootstrap.import_parkrank()
    import workloads

    table = {}
    for shape in sorted(workloads.SHAPES):
        table[shape] = {}
        for seed in range(workloads.DIGEST_SEEDS):
            _, matrix, graph = workloads.synth_inputs(shape, seed)
            table[shape][str(seed)] = workloads.input_digest(matrix, graph)
    workloads.DIGEST_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
