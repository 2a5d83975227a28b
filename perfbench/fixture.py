"""Write the checkpoint a workload loads; run in its own process.

Usage: python3 perfbench/fixture.py DATA_DIR CHECKPOINT STEPS

With STEPS > 0 the checkpoint is trained by ``train.train_loop`` with
criterion 8's settings for that many steps; with 0 it holds the seeded
initial weights. Either way it is saved the way the train command saves.
"""

import sys

import bootstrap


def main(argv) -> int:
    data_dir, checkpoint, steps = argv[0], argv[1], int(argv[2])
    bootstrap.import_parkrank()
    import numpy as np
    from parkrank import cli, model, train

    import workloads

    matrix, graph = cli.load_data_dir(data_dir)
    cfg = workloads.train_config(max(steps, 1))
    if steps > 0:
        params = train.train_loop(matrix, graph, cfg).params
    else:
        params = model.ModelParams(
            cfg.model_config(), graph, np.random.default_rng(cfg.rng_seed)
        )
    params.save(checkpoint, {"train": cfg.to_manifest()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
