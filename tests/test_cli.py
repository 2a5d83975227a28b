"""End-to-end subcommand tests through main(argv)."""

import json
import shutil
import struct
from dataclasses import asdict
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import baseline_oracle
import dense_oracle
from dense_oracle import adjacency
from parkrank import cli, esgraph, evaluate, ingest, model, train
from parkrank import tensor as T
from parkrank.errors import DataError, ParkrankError


def run(*argv):
    return cli.main([str(a) for a in argv])


def synth_dir(tmp_path, name="data", locations=9, intervals=150, seed=4):
    out = tmp_path / name
    code = run(
        "synth", "--out", out, "--locations", locations,
        "--intervals", intervals, "--seed", seed,
    )
    assert code == 0
    return out


TRAIN_FLAGS = (
    "--alpha", 3, "--beta", 1, "--conv-channels", 3, "--embed-dim", 4,
    "--kernel-len", 2, "--horizon-intervals", 2, "--batch-size", 8,
    "--iterations", 4, "--eval-every", 2,
)


def trained_dir(tmp_path, data, name="run", seed=1):
    out = tmp_path / name
    code = run("train", "--data", data, "--out", out, "--seed", seed,
               *TRAIN_FLAGS)
    assert code == 0
    return out


class TestSynth:
    def test_writes_loadable_data_dir(self, tmp_path):
        out = synth_dir(tmp_path)
        matrix, graph = cli.load_data_dir(out)
        assert matrix.states.shape == (9, 150)
        assert graph.num_vertices == 9
        locs = ingest.load_locations(out / "locations.csv")
        assert [l.meter_id for l in locs] == matrix.meter_ids

    def test_deterministic_bytes(self, tmp_path):
        a = synth_dir(tmp_path, "a")
        b = synth_dir(tmp_path, "b")
        for name in ("locations.csv", "matrix.csv", "matrix.meta.json",
                     "graph.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_matrix(self, tmp_path):
        a = synth_dir(tmp_path, "a", seed=1)
        b = synth_dir(tmp_path, "b", seed=2)
        assert (a / "matrix.csv").read_bytes() != (b / "matrix.csv").read_bytes()


class TestIngest:
    def make_records(self, tmp_path):
        cfg = ingest.SynthConfig(num_locations=4, num_intervals=20, rng_seed=0)
        locations, matrix = ingest.synth_generate(cfg)
        loc_file = tmp_path / "loc.csv"
        ingest.save_locations(locations, loc_file)
        rec_file = tmp_path / "rec.csv"
        lines = record_lines(matrix, "space")
        rec_file.write_text("\n".join(lines) + "\n")
        return rec_file, loc_file, matrix

    def test_space_records_round_trip(self, tmp_path):
        rec, loc, original = self.make_records(tmp_path)
        out = tmp_path / "data"
        assert run("ingest", "--records", rec, "--locations", loc,
                   "--kind", "space", "--out", out) == 0
        matrix, graph = cli.load_data_dir(out)
        assert matrix.equals(original)
        assert graph.num_vertices == 4

    def test_missing_coordinates_exit_2(self, tmp_path, capsys):
        rec, loc, _ = self.make_records(tmp_path)
        short = tmp_path / "short.csv"
        short.write_text("meter_id,lat,lon\nm000,22.3,114.17\n")
        code = run("ingest", "--records", rec, "--locations", short,
                   "--kind", "space", "--out", tmp_path / "x")
        assert code == 2
        assert "no coordinates" in capsys.readouterr().err

    def test_duplicate_location_exit_2(self, tmp_path, capsys):
        rec, loc, _ = self.make_records(tmp_path)
        rows = loc.read_text().splitlines()
        twice = tmp_path / "twice.csv"
        moved = rows[1].replace("22.", "23.")  # m000 again, elsewhere
        twice.write_text("\n".join([*rows, moved]) + "\n")
        code = run("ingest", "--records", rec, "--locations", twice,
                   "--kind", "space", "--out", tmp_path / "x")
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"line {len(rows) + 1}: duplicate meter_id 'm000'" in err
        assert not (tmp_path / "x").exists()

    def test_missing_records_exit_2(self, tmp_path):
        loc = tmp_path / "loc.csv"
        loc.write_text("meter_id,lat,lon\n")
        assert run("ingest", "--records", tmp_path / "nope.csv",
                   "--locations", loc, "--kind", "space",
                   "--out", tmp_path / "x") == 2


class TestTrain:
    def test_outputs(self, tmp_path):
        data = synth_dir(tmp_path)
        out = trained_dir(tmp_path, data)
        assert (out / "checkpoint.bin").exists()
        lines = (out / "train_log.csv").read_text().splitlines()
        assert lines[0] == "step,train_loss,val_ndcg1"
        assert lines[1].startswith("2,")
        assert len(lines) == 3  # eval at steps 2 and 4

    def test_checkpoint_reloads_with_settings(self, tmp_path):
        data = synth_dir(tmp_path)
        out = trained_dir(tmp_path, data)
        _, graph = cli.load_data_dir(data)
        params, cfg = cli.load_checkpoint_bundle(out / "checkpoint.bin", graph)
        assert cfg.alpha == 3
        assert cfg.iterations == 4
        assert params.config.kernel_len == 2

    def test_deterministic_across_runs(self, tmp_path):
        data = synth_dir(tmp_path)
        a = trained_dir(tmp_path, data, "a")
        b = trained_dir(tmp_path, data, "b")
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        assert (a / "train_log.csv").read_bytes() == (b / "train_log.csv").read_bytes()

    def test_config_file_and_flag_precedence(self, tmp_path):
        data = synth_dir(tmp_path)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(
            "# tiny run\nalpha = 3\nbeta = 1\nconv_channels = 3\n"
            "embed_dim = 4\nkernel_len = 2\nhorizon_intervals = 2\n"
            "batch_size = 8\niterations = 4\neval_every = 2\nseed = 9\n"
        )
        out = tmp_path / "run"
        assert run("train", "--data", data, "--out", out,
                   "--config", cfg_file, "--iterations", 6) == 0
        _, graph = cli.load_data_dir(data)
        _, cfg = cli.load_checkpoint_bundle(out / "checkpoint.bin", graph)
        assert cfg.iterations == 6  # flag beats file
        assert cfg.alpha == 3  # file beats default
        assert cfg.rng_seed == 9

    def test_unknown_config_key_exit_3(self, tmp_path, capsys):
        data = synth_dir(tmp_path)
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("warp_speed = 11\n")
        code = run("train", "--data", data, "--out", tmp_path / "x",
                   "--config", cfg_file)
        assert code == 3
        assert "unknown config key" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        data = synth_dir(tmp_path)
        monkeypatch.setenv("OPR_SEED", "7")
        out = trained_dir(tmp_path, data, "env")  # helper passes --seed 1
        monkeypatch.setenv("OPR_SEED", "1")
        ref = trained_dir(tmp_path, data, "ref")
        assert (out / "checkpoint.bin").read_bytes() == (ref / "checkpoint.bin").read_bytes()
        # without the flag, the environment value takes over
        monkeypatch.setenv("OPR_SEED", "7")
        env_out = tmp_path / "env2"
        assert run("train", "--data", data, "--out", env_out, *TRAIN_FLAGS) == 0
        _, graph = cli.load_data_dir(data)
        _, cfg = cli.load_checkpoint_bundle(env_out / "checkpoint.bin", graph)
        assert cfg.rng_seed == 7

    def test_missing_data_dir_exit_2(self, tmp_path):
        assert run("train", "--data", tmp_path / "nope",
                   "--out", tmp_path / "x") == 2

    def test_bad_hyperparameter_exit_3(self, tmp_path):
        data = synth_dir(tmp_path)
        assert run("train", "--data", data, "--out", tmp_path / "x",
                   "--learning-rate", 0) == 3


class TestEval:
    def test_metric_files(self, tmp_path):
        data = synth_dir(tmp_path)
        run_dir = trained_dir(tmp_path, data)
        out = tmp_path / "metrics"
        assert run("eval", "--data", data, "--checkpoint",
                   run_dir / "checkpoint.bin", "--out", out) == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert set(payload) == {"model", "persistence", "historical_mean"}
        assert set(payload["model"]) == {
            "all", "workday", "weekend", "daytime", "nighttime"
        }
        csv_lines = (out / "metrics.csv").read_text().splitlines()
        assert csv_lines[0].startswith("model,scenario,num_queries,ndcg1")
        assert len(csv_lines) == 1 + 3 * 5
        plot_lines = (out / "plot_data.csv").read_text().splitlines()
        assert plot_lines[0] == "model,metric,scenario,value,std"
        # every value cell is a plain number
        for line in csv_lines[1:]:
            for cell in line.split(",")[2:]:
                float(cell)
        for line in plot_lines[1:]:
            for cell in line.split(",")[3:]:
                float(cell)

    def test_eval_deterministic(self, tmp_path):
        data = synth_dir(tmp_path)
        run_dir = trained_dir(tmp_path, data)
        a, b = tmp_path / "ma", tmp_path / "mb"
        for out in (a, b):
            assert run("eval", "--data", data, "--checkpoint",
                       run_dir / "checkpoint.bin", "--out", out) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    @pytest.mark.parametrize(
        "intervals, split",
        [(150, "test"), (700, "test"), (700, "train")],
        ids=["short-test", "multiday-test", "multiday-train"],
    )
    def test_batched_baselines_match_per_snapshot(
        self, monkeypatch, tmp_path, intervals, split
    ):
        # the eval files as eval writes them, then with whole ranking
        # rows patched in: the model's from dense_oracle.rank_rows, each
        # baseline's from the per-snapshot loop, and the reports from
        # whole-row metrics with per-list-size wait slicing; 150
        # intervals leave training under a day, and the 700-interval
        # train split spans several ranking blocks
        data = synth_dir(tmp_path, intervals=intervals)
        checkpoint = trained_dir(tmp_path, data) / "checkpoint.bin"

        def eval_files(out):
            assert run("eval", "--data", data, "--checkpoint", checkpoint,
                       "--out", out, "--split", split) == 0
            names = ("metrics.json", "metrics.csv", "plot_data.csv")
            return [(out / name).read_bytes() for name in names]

        batched = eval_files(tmp_path / "batched")
        monkeypatch.setattr(train, "split_results", dense_oracle.split_results)
        monkeypatch.setattr(train, "baseline_split_results",
                            baseline_oracle.baseline_split_results)
        monkeypatch.setattr(evaluate, "slice_scenarios",
                            baseline_oracle.slice_scenarios)
        assert eval_files(tmp_path / "looped") == batched

    def test_bad_split_exit_3(self, tmp_path):
        data = synth_dir(tmp_path)
        run_dir = trained_dir(tmp_path, data)
        assert run("eval", "--data", data, "--checkpoint",
                   run_dir / "checkpoint.bin", "--out", tmp_path / "x",
                   "--split", "future") == 3


class TestRecommend:
    def test_prints_ranked_lines(self, tmp_path, capsys):
        data = synth_dir(tmp_path)
        run_dir = trained_dir(tmp_path, data)
        assert run("recommend", "--data", data, "--checkpoint",
                   run_dir / "checkpoint.bin", "--query", "m004",
                   "--time", 100, "--top", 3) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        matrix, graph = cli.load_data_dir(data)
        adj = adjacency(graph)
        hood = {matrix.meter_ids[v] for v in np.flatnonzero(adj[4])} | {"m004"}
        for line in lines:
            mid, score = line.split("\t")
            assert mid in hood
            float(score)

    def test_scores_are_the_trained_models(self, tmp_path, capsys):
        # the checkpoint's one weight per allowed pair scores as the
        # trained parameters do in process, byte for byte
        data = synth_dir(tmp_path)
        checkpoint = trained_dir(tmp_path, data) / "checkpoint.bin"
        assert run("recommend", "--data", data, "--checkpoint", checkpoint,
                   "--query", "m004", "--time", 100, "--top", 9) == 0
        printed = capsys.readouterr().out
        matrix, graph = cli.load_data_dir(data)
        _, manifest = T.load_checkpoint(checkpoint)
        cfg = train.TrainConfig.from_manifest(manifest["train"])
        trained = train.train_loop(matrix, graph, cfg).params
        loaded, _ = cli.load_checkpoint_bundle(checkpoint, graph)
        window = esgraph.RunTable(matrix.states).window_at(100, cfg.alpha)
        inputs = (
            window.signed_durations[np.newaxis],
            window.current_signed_duration[np.newaxis],
            matrix.states[:, 100][np.newaxis],
        )
        scores = model.forward_scores(trained, *inputs).data
        assert model.forward_scores(loaded, *inputs).data.tobytes() == (
            scores.tobytes()
        )
        order = model.recommend_top_n(scores[0, 4], 4, graph, 9)
        assert printed == "".join(
            f"{matrix.meter_ids[v]}\t{scores[0, 4, v]:.6f}\n" for v in order
        )

    def test_unknown_meter_exit_2(self, tmp_path):
        data = synth_dir(tmp_path)
        run_dir = trained_dir(tmp_path, data)
        assert run("recommend", "--data", data, "--checkpoint",
                   run_dir / "checkpoint.bin", "--query", "m999",
                   "--time", 10) == 2

    def test_time_out_of_range_exit_2(self, tmp_path):
        data = synth_dir(tmp_path)
        run_dir = trained_dir(tmp_path, data)
        assert run("recommend", "--data", data, "--checkpoint",
                   run_dir / "checkpoint.bin", "--query", "m000",
                   "--time", 150) == 2


class TestBench:
    def test_complexity_outputs(self, tmp_path):
        data = synth_dir(tmp_path)
        out = tmp_path / "bench"
        assert run("bench", "--data", data, "--out", out, "--alpha", 4) == 0
        payload = json.loads((out / "complexity.json").read_text())
        matrix, _ = cli.load_data_dir(data)
        expected = asdict(esgraph.bench_complexity(matrix, 4))
        assert payload == expected
        lines = (out / "complexity_curve.csv").read_text().splitlines()
        assert lines[0] == "prefix_len,cell_count,event_node_count"
        last = lines[-1].split(",")
        assert int(last[0]) == 150
        assert int(last[1]) == 9 * 150

    def test_checkpoint_graph_mismatch_exit_2(self, tmp_path, capsys):
        data = synth_dir(tmp_path)
        other = synth_dir(tmp_path, "other", locations=4, intervals=150)
        run_dir = trained_dir(tmp_path, data)
        assert run("eval", "--data", other, "--checkpoint",
                   run_dir / "checkpoint.bin", "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert "checkpoint.bin" in err
        assert "trained on 9 vertices but the graph has 4" in err


# every subcommand's help and flags: (flag, required, type, choices,
# default, help), in the order --help lists them; spec options take no
# type, because cli.resolve casts their text
PARSER_SURFACE = {
    "synth": ("generate a synthetic data directory", [
        ("--out", True, None, None, None, None),
        ("--config", False, None, None, None, None),
        ("--seed", False, None, None, None, None),
        ("--locations", False, None, None, None, None),
        ("--intervals", False, None, None, None, None),
        ("--spacing", False, None, None, None, None),
        ("--base-rate", False, None, None, None, None),
        ("--correlation", False, None, None, None, None),
        ("--adjacency-m", False, None, None, None, None),
    ]),
    "ingest": ("build a data directory from records", [
        ("--records", True, None, None, None, None),
        ("--locations", True, None, None, None, None),
        ("--kind", True, None, ("space", "street"), None, None),
        ("--out", True, None, None, None, None),
        ("--config", False, None, None, None, None),
        ("--interval-minutes", False, None, None, None, None),
        ("--full-ratio", False, None, None, None, None),
        ("--adjacency-m", False, None, None, None, None),
    ]),
    "train": ("train a scorer on a data directory", [
        ("--data", True, None, None, None, None),
        ("--out", True, None, None, None, None),
        ("--config", False, None, None, None, None),
        ("--seed", False, None, None, None, None),
        ("--alpha", False, None, None, None, None),
        ("--beta", False, None, None, None, None),
        ("--conv-channels", False, None, None, None, None),
        ("--embed-dim", False, None, None, None, None),
        ("--kernel-len", False, None, None, None, None),
        ("--score-activation", False, None, None, None, None),
        ("--horizon-intervals", False, None, None, None, None),
        ("--prox-weight", False, None, None, None, None),
        ("--dur-weight", False, None, None, None, None),
        ("--duration-cap", False, None, None, None, None),
        ("--softmax-weight", False, None, None, None, None),
        ("--l2-coeff", False, None, None, None, None),
        ("--dropout-rate", False, None, None, None, None),
        ("--batch-size", False, None, None, None, None),
        ("--iterations", False, None, None, None, None),
        ("--learning-rate", False, None, None, None, None),
        ("--eval-every", False, None, None, None, None),
    ]),
    "eval": ("score a checkpoint against baselines", [
        ("--data", True, None, None, None, None),
        ("--checkpoint", True, None, None, None, None),
        ("--out", True, None, None, None, None),
        ("--config", False, None, None, None, None),
        ("--split", False, None, None, None, None),
        ("--max-wait", False, None, None, None, None),
    ]),
    "recommend": ("rank spots for one query", [
        ("--data", True, None, None, None, None),
        ("--checkpoint", True, None, None, None, None),
        ("--query", True, None, None, None, "meter id of the driver"),
        ("--time", True, int, None, None, "interval index"),
        ("--config", False, None, None, None, None),
        ("--top", False, None, None, None, None),
    ]),
    "bench": ("measure event-graph compression", [
        ("--data", True, None, None, None, None),
        ("--out", True, None, None, None, None),
        ("--config", False, None, None, None, None),
        ("--alpha", False, None, None, None, None),
        ("--points", False, None, None, None, None),
    ]),
}


def test_parser_surface_pinned():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a.choices, dict)]
    helps = {a.dest: a.help for a in subs._choices_actions}
    surface = {
        name: (helps[name], [
            (a.option_strings[0], a.required, a.type, a.choices, a.default,
             a.help)
            for a in sub._actions if a.dest != "help"
        ])
        for name, sub in subs.choices.items()
    }
    assert surface == PARSER_SURFACE
    assert list(surface) == list(PARSER_SURFACE)


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"alpha = 3\niterations = \xff\n", id="undecodable"),
        pytest.param(b"alpha 3\n", id="no-equals"),
        pytest.param(b"alpha = 3\nbeta =\n", id="empty-value"),
    ],
)
def test_bad_config_file_exit_2(tmp_path, capsys, content):
    data = synth_dir(tmp_path)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(content)
    code = run("train", "--data", data, "--out", tmp_path / "x",
               "--config", cfg_file)
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "bad.cfg" in err


@pytest.mark.parametrize(
    "content, says",
    [
        pytest.param(b"alpha = x\n", "bad value for alpha", id="bad-value"),
        pytest.param(
            b"alpha = 3\nwarp = 1\n", "line 2: unknown config key: warp",
            id="unknown-key",
        ),
    ],
)
def test_bad_config_option_names_file(tmp_path, capsys, content, says):
    data = synth_dir(tmp_path)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(content)
    code = run("train", "--data", data, "--out", tmp_path / "x",
               "--config", cfg_file)
    assert code == 3
    err = capsys.readouterr().err
    assert f"{cfg_file}: " in err and says in err


def test_repeated_config_key_exit_2(tmp_path, capsys):
    # the last of a repeated key once won, and training ran 7 steps
    data = synth_dir(tmp_path)
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("iterations = 5\niterations = 7\n")
    code = run("train", "--data", data, "--out", tmp_path / "x",
               "--config", cfg_file)
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        f"error: {cfg_file}: line 2: repeated config key: iterations"
    )
    assert not (tmp_path / "x").exists()


def required_flags(command, tmp_path):
    """argv for command's required flags; the paths, under tmp_path, are
    never read, because a bad option stops the command first."""
    values = {"kind": "space", "query": "m000", "time": "0"}
    return [arg for flag in cli.COMMANDS[command][2]
            for arg in (f"--{flag}", values.get(flag, tmp_path / flag))]


def give_option(monkeypatch, tmp_path, source, key, text):
    """Hand key's text to the CLI through source ("flag", "config" or
    "OPR_SEED"); returns the extra argv and the name the error gives."""
    monkeypatch.delenv("OPR_SEED", raising=False)
    if source == "flag":
        flag = f"--{key.replace('_', '-')}"
        return [flag, text], flag
    if source == "config":
        cfg_file = tmp_path / "opts.cfg"
        cfg_file.write_text(f"{key} = {text}\n")
        return ["--config", cfg_file], str(cfg_file)
    monkeypatch.setenv("OPR_SEED", text)
    return [], "OPR_SEED"


BIG = str(10**20)
# (id, command, key, text) that the key's cast rejects; the integers are
# past what numpy holds as int64
BAD_OPTION_TEXTS = [
    ("eval-max-wait-text", "eval", "max_wait", "abc"),
    ("eval-max-wait-big", "eval", "max_wait", BIG),
    ("bench-alpha-big", "bench", "alpha", BIG),
    ("train-alpha-big", "train", "alpha", BIG),
    ("train-embed-dim-big", "train", "embed_dim", BIG),
    ("synth-intervals-big", "synth", "intervals", BIG),
    ("ingest-full-ratio-text", "ingest", "full_ratio", "half"),
    ("synth-seed-float", "synth", "seed", "1.5"),
    ("train-seed-2**63", "train", "seed", str(2**63)),
]


@pytest.mark.parametrize(
    "command, key, text, source",
    [
        pytest.param(command, key, text, source, id=f"{name}-{source}")
        for name, command, key, text in BAD_OPTION_TEXTS
        for source in ("flag", "config", "OPR_SEED")
        if source != "OPR_SEED" or key == "seed"
    ],
)
def test_bad_option_text_exit_3_names_source(
    tmp_path, capsys, monkeypatch, command, key, text, source
):
    # one cast serves every source: a bad flag used to exit 2 with a
    # usage message, and an integer past int64 to die in numpy
    extra, where = give_option(monkeypatch, tmp_path, source, key, text)
    assert run(command, *required_flags(command, tmp_path), *extra) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {where}: bad value for {key}: {text!r}"


@pytest.mark.parametrize(
    "source, text", [("flag", "-1"), ("config", "-2"), ("OPR_SEED", "-3")]
)
@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_exit_3(
    pristine_tree, tmp_path, capsys, monkeypatch, command, source, text
):
    # numpy's generators take no negative seed; both used to die in numpy
    extra, _where = give_option(monkeypatch, tmp_path, source, "seed", text)
    rest = (["--locations", 4, "--intervals", 20] if command == "synth"
            else ["--data", pristine_tree / "data", *TRAIN_FLAGS])
    code = run(command, "--out", tmp_path / "x", *rest, *extra)
    assert code == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: rng_seed must be non-negative"
    assert not (tmp_path / "x").exists()


NUMPY_OUT_OF_MEMORY = (
    "Unable to allocate 44.7 GiB for an array with shape (2, 3000000000) "
    "and data type float64"
)


@pytest.mark.parametrize("message", [NUMPY_OUT_OF_MEMORY, ""],
                         ids=["numpy", "bare"])
@pytest.mark.parametrize(
    "command, owner, name, size",
    [("train", model.ModelParams, "__init__", ("--embed-dim", 3000000000)),
     ("synth", ingest, "synth_generate", ("--intervals", 10**12))],
    ids=["train-embed-dim", "synth-intervals"],
)
def test_out_of_memory_exit_4(
    pristine_tree, tmp_path, capsys, monkeypatch, command, owner, name, size,
    message,
):
    # the allocation raises as numpy's does when memory runs out; patched,
    # so no host allocates (or overcommits) the real size
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(owner, name, no_memory)
    rest = (["--locations", 4] if command == "synth"
            else ["--data", pristine_tree / "data", *TRAIN_FLAGS])
    assert run(command, "--out", tmp_path / "x", *rest, *size) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: out of memory" + (f": {message}" if message else "")


# config values of every kind: out of range, past int64, not a number
CONFIG_VALUES = st.one_of(
    st.integers(-3, 3), st.integers(),
    st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**20]),
    st.floats(), st.sampled_from(["nan", "-inf", "1e3", "0x10", "1_0"]),
    st.text(max_size=4),
)


def write_mutated_config(draw, spec, path):
    """Write to path a valid config of every key in spec, each at its
    default, with one drawn mutation: a known key given a drawn value, an
    unknown key, a line without "=", or a single byte."""
    lines = [f"{key} = {default}" for key, (_cast, default) in spec.items()]
    kind = draw(st.sampled_from(["value", "unknown", "no-equals", "byte"]))
    row = draw(st.integers(0, len(lines) - 1))
    key = lines[row].split(" = ")[0]
    if kind == "value":
        lines[row] = f"{key} = {draw(CONFIG_VALUES)}"
    elif kind == "unknown":
        lines[row] = f"warp_speed = {draw(CONFIG_VALUES)}"
    elif kind == "no-equals":
        lines[row] = lines[row].replace("=", "")
    data = bytearray("\n".join(lines).encode() + b"\n")
    if kind == "byte":
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    path.write_bytes(bytes(data))


# the settings object each command builds from its options, as
# cmd_synth and cmd_train build them
CONFIG_OBJECTS = {
    "synth": lambda opts: ingest.SynthConfig(
        num_locations=opts["locations"],
        num_intervals=opts["intervals"],
        grid_spacing_m=opts["spacing"],
        base_occupancy_rate=opts["base_rate"],
        spatial_correlation=opts["correlation"],
        rng_seed=opts["seed"],
    ),
    "train": lambda opts: train.TrainConfig(
        **{key: value for key, value in opts.items() if key != "seed"},
        rng_seed=opts["seed"],
    ),
}


# built once: building a parser costs more than resolving a config
PARSER = cli.build_parser()


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_config_resolves_or_raises(tmp_path_factory, data):
    # resolve and the settings objects only: a valid `intervals = 10**8`
    # would run synth for hours
    command = data.draw(st.sampled_from(list(cli.COMMANDS)))
    spec = cli.COMMANDS[command][3]
    work = tmp_path_factory.getbasetemp()
    path = work / "fuzzed.cfg"
    write_mutated_config(data.draw, spec, path)
    args = PARSER.parse_args(
        [command, *map(str, required_flags(command, work)),
         "--config", str(path)]
    )
    try:
        opts = cli.resolve(args, spec)
        if command in CONFIG_OBJECTS:
            CONFIG_OBJECTS[command](opts)
    except ParkrankError:
        return
    assert list(opts) == list(spec)
    assert all(
        -(2**63) <= value < 2**63
        for value in opts.values() if isinstance(value, int)
    )


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _drop_sidecar_key(path):
    meta = json.loads(path.read_text())
    del meta["interval_minutes"]
    path.write_text(json.dumps(meta))


def _bad_matrix_cell(path):
    lines = path.read_text().splitlines()
    lines[3] = "x" + lines[3][1:]
    path.write_text("\n".join(lines) + "\n")


def _bad_leading_byte(path):
    path.write_bytes(b"\xff" + path.read_bytes()[1:])


def _bad_manifest_bytes(path):
    raw = bytearray(path.read_bytes())
    raw[len(T.CHECKPOINT_MAGIC) + 4] = 0xFF  # first manifest byte
    path.write_bytes(bytes(raw))


def _drop_manifest_field(path):
    entries, manifest = T.load_checkpoint(path)
    del manifest["alpha"]
    T.save_checkpoint(path, entries, manifest)


def _mistype_train_setting(path):
    entries, manifest = T.load_checkpoint(path)
    manifest["train"]["horizon_intervals"] = "4"
    T.save_checkpoint(path, entries, manifest)


def _invalid_model_field(path):
    entries, manifest = T.load_checkpoint(path)
    manifest["kernel_len"] = 9  # well typed, but longer than alpha 3
    T.save_checkpoint(path, entries, manifest)


def _unknown_train_setting(path):
    entries, manifest = T.load_checkpoint(path)
    manifest["train"]["bogus"] = 1
    T.save_checkpoint(path, entries, manifest)


def _invalid_train_setting(path):
    entries, manifest = T.load_checkpoint(path)
    manifest["train"]["batch_size"] = 0
    T.save_checkpoint(path, entries, manifest)


def _drop_tensor(path):
    entries, manifest = T.load_checkpoint(path)
    del entries["readout.bias"]
    T.save_checkpoint(path, entries, manifest)


def _repeat_tensor(path):
    """A second readout.bias entry, after the first."""
    entries, manifest = T.load_checkpoint(path)
    entries["readout.bia$"] = entries["readout.bias"]
    T.save_checkpoint(path, entries, manifest)
    path.write_bytes(
        path.read_bytes().replace(b"readout.bia$", b"readout.bias")
    )


def _reshape_tensor(path):
    entries, manifest = T.load_checkpoint(path)
    entries["readout.item"] = entries["readout.item"][:, :-1]
    T.save_checkpoint(path, entries, manifest)


def _overflowing_tensor_shape(path):
    """Cut after the first tensor's name, then declare a rank-4 tensor of
    (2**32 - 1)-long dims whose element count overflows int64."""
    raw = path.read_bytes()
    offset = len(T.CHECKPOINT_MAGIC)
    (manifest_len,) = struct.unpack_from("<I", raw, offset)
    offset += 4 + manifest_len + 4  # manifest, then the entry count
    (name_len,) = struct.unpack_from("<H", raw, offset)
    offset += 2 + name_len
    dims = struct.pack("<B4I", 4, *[2**32 - 1] * 4)
    path.write_bytes(raw[:offset] + dims + bytes(8))


def _repeat_header_id(path):
    lines = path.read_text().splitlines()
    ids = lines[0].split(",")
    lines[0] = ",".join([ids[0], ids[0], *ids[2:]])
    path.write_text("\n".join(lines) + "\n")


def _header_only(path):
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _zero_interval_minutes(path):
    meta = json.loads(path.read_text())
    meta["interval_minutes"] = 0
    path.write_text(json.dumps(meta))


def _rename_graph_meter(path):
    payload = json.loads(path.read_text())
    payload["vertices"][0]["meter_id"] = "zzz"
    path.write_text(json.dumps(payload))


def _long_matrix_field(path):
    """A cell longer than the csv module's 131072-character field limit."""
    lines = path.read_text().splitlines()
    lines[3] = "0" * 200_000 + lines[3][1:]
    path.write_text("\n".join(lines) + "\n")


def _infinite_json_number(*keys):
    """A JSON edit that puts 1e400, which parses to an infinite float,
    at payload[keys[0]][keys[1]]..."""
    def corrupt(path):
        payload = json.loads(path.read_text())
        inner = payload
        for key in keys[:-1]:
            inner = inner[key]
        inner[keys[-1]] = "@inf@"
        path.write_text(json.dumps(payload).replace('"@inf@"', "1e400"))
    return corrupt


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def _deep_json(path):
    path.write_bytes(DEEP_JSON)


def _deep_manifest(path):
    """The manifest swapped for JSON nested deeper than any stack."""
    raw = path.read_bytes()
    offset = len(T.CHECKPOINT_MAGIC)
    (manifest_len,) = struct.unpack_from("<I", raw, offset)
    rest = raw[offset + 4 + manifest_len:]
    path.write_bytes(
        raw[:offset] + struct.pack("<I", len(DEEP_JSON)) + DEEP_JSON + rest
    )


@pytest.fixture(scope="module")
def pristine_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    trained_dir(root, synth_dir(root))
    return root


@pytest.fixture(scope="module")
def pristine_graph(pristine_tree):
    return ingest.load_graph(pristine_tree / "data" / "graph.json")


@pytest.mark.parametrize(
    "name, corrupt",
    [
        pytest.param("data/graph.json", _truncate, id="truncated-graph"),
        pytest.param(
            "data/matrix.meta.json", _drop_sidecar_key, id="sidecar-key"
        ),
        pytest.param(
            "data/matrix.meta.json", _zero_interval_minutes,
            id="sidecar-interval",
        ),
        pytest.param("data/matrix.csv", _bad_matrix_cell, id="matrix-cell"),
        pytest.param(
            "data/matrix.csv", _repeat_header_id, id="matrix-duplicate-id"
        ),
        pytest.param("data/matrix.csv", _header_only, id="matrix-no-rows"),
        pytest.param(
            "data/matrix.csv", lambda p: p.write_text(""), id="matrix-empty"
        ),
        pytest.param("data/matrix.csv", _bad_leading_byte, id="matrix-bytes"),
        pytest.param(
            "run/checkpoint.bin", _bad_manifest_bytes, id="manifest-bytes"
        ),
        pytest.param(
            "run/checkpoint.bin", _drop_manifest_field, id="manifest-field"
        ),
        pytest.param(
            "run/checkpoint.bin", _mistype_train_setting, id="train-setting"
        ),
        pytest.param(
            "run/checkpoint.bin", _invalid_model_field, id="model-value"
        ),
        pytest.param(
            "run/checkpoint.bin", _invalid_train_setting, id="train-value"
        ),
        pytest.param(
            "run/checkpoint.bin", _unknown_train_setting, id="train-field"
        ),
        pytest.param(
            "data/graph.json", _rename_graph_meter, id="graph-meter-ids"
        ),
        pytest.param(
            "run/checkpoint.bin", _overflowing_tensor_shape,
            id="tensor-shape",
        ),
        pytest.param("run/checkpoint.bin", _drop_tensor, id="missing-tensor"),
        pytest.param(
            "run/checkpoint.bin", _repeat_tensor, id="repeated-tensor"
        ),
        pytest.param(
            "run/checkpoint.bin", lambda p: p.write_bytes(p.read_bytes() * 2),
            id="checkpoint-twice",
        ),
        pytest.param(
            "run/checkpoint.bin", _reshape_tensor,
            id="tensor-shape-mismatch",
        ),
        pytest.param(
            "data/matrix.csv", _long_matrix_field, id="matrix-long-field"
        ),
        pytest.param(
            "data/matrix.meta.json", _infinite_json_number("interval_minutes"),
            id="sidecar-infinite-interval",
        ),
        pytest.param(
            "data/graph.json", _infinite_json_number("edges", 0, 1),
            id="graph-infinite-edge",
        ),
        pytest.param("data/graph.json", _deep_json, id="graph-deep-json"),
        pytest.param(
            "data/matrix.meta.json", _deep_json, id="sidecar-deep-json"
        ),
        pytest.param(
            "run/checkpoint.bin", _deep_manifest, id="manifest-deep-json"
        ),
    ],
)
def test_corrupt_file_exit_2(pristine_tree, tmp_path, capsys, name, corrupt):
    root = tmp_path / "tree"
    shutil.copytree(pristine_tree, root)
    corrupt(root / name)
    code = run("recommend", "--data", root / "data", "--checkpoint",
               root / "run" / "checkpoint.bin", "--query", "m000",
               "--time", 100)
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert name.split("/")[-1] in err


# 10**17 minutes wrap the eval clock's int64 days negative, and 10**20
# minutes overflow it
@pytest.mark.parametrize("minutes", [10**17, 10**20])
def test_eval_interval_past_calendar_exit_2(
    pristine_tree, tmp_path, capsys, minutes
):
    root = tmp_path / "tree"
    shutil.copytree(pristine_tree, root)
    meta = root / "data" / "matrix.meta.json"
    payload = json.loads(meta.read_text())
    payload["interval_minutes"] = minutes
    meta.write_text(json.dumps(payload))
    code = run("eval", "--data", root / "data", "--checkpoint",
               root / "run" / "checkpoint.bin", "--out", root / "eval")
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert len(errors) == 1
    assert "matrix.meta.json" in errors[0]
    assert "past the calendar" in errors[0]


@pytest.mark.parametrize(
    "copy, key, value, says",
    [
        pytest.param(
            "train", "score_activation", "softmax",
            "score_activation 'softmax'", id="activation",
        ),
        pytest.param(
            "train", "conv_channels", 5, "conv_channels 5", id="channels"
        ),
        pytest.param("train", "alpha", 4, "alpha 4", id="alpha"),
        pytest.param(
            "train", "kernel_len", 9, "kernel_len 9 exceeds alpha 3",
            id="invalid",
        ),
        # the top-level copy is never cast: it must equal the other exactly
        pytest.param(
            "top", "alpha", 3.5, "saved with 3.5", id="top-alpha-float"
        ),
        pytest.param(
            "top", "alpha", "3", "saved with '3'", id="top-alpha-string"
        ),
        pytest.param(
            "top", "num_vertices", 9.5, "trained on 9.5 vertices",
            id="top-vertices-float",
        ),
        # equal in value but not in type
        pytest.param(
            "top", "alpha", 3.0, "saved with 3.0", id="top-alpha-whole-float"
        ),
        pytest.param("top", "beta", True, "saved with True", id="top-beta-bool"),
        pytest.param(
            "top", "num_vertices", 9.0, "trained on 9.0 vertices",
            id="top-vertices-whole-float",
        ),
    ],
)
@pytest.mark.parametrize("command", ["eval", "recommend"])
def test_checkpoint_settings_disagree_exit_2(
    pristine_tree, tmp_path, capsys, command, copy, key, value, says
):
    # the model is built from the checkpoint's training settings, which
    # its top-level model fields must repeat
    checkpoint = tmp_path / "edited.bin"
    entries, manifest = T.load_checkpoint(
        pristine_tree / "run" / "checkpoint.bin"
    )
    (manifest["train"] if copy == "train" else manifest)[key] = value
    T.save_checkpoint(checkpoint, entries, manifest)
    extra = (["--out", tmp_path / "x"] if command == "eval"
             else ["--query", "m000", "--time", 100])
    code = run(command, "--data", pristine_tree / "data", "--checkpoint",
               checkpoint, *extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "edited.bin" in err
    assert says in err


@pytest.mark.parametrize(
    "key, copies",
    [
        pytest.param("learning_rate", ("train",), id="float-field"),
        # beta is 1 in the pristine checkpoint, so true would equal it
        pytest.param("beta", ("train", "top"), id="int-field"),
    ],
)
def test_checkpoint_bool_setting_exit_2(
    pristine_tree, tmp_path, capsys, key, copies
):
    checkpoint = tmp_path / "edited.bin"
    entries, manifest = T.load_checkpoint(
        pristine_tree / "run" / "checkpoint.bin"
    )
    for copy in copies:
        (manifest["train"] if copy == "train" else manifest)[key] = True
    T.save_checkpoint(checkpoint, entries, manifest)
    code = run("eval", "--data", pristine_tree / "data", "--checkpoint",
               checkpoint, "--out", tmp_path / "x")
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert "edited.bin" in line
    assert f"training field {key} has value True" in line


@pytest.mark.parametrize("command", ["eval", "recommend"])
def test_checkpoint_missing_train_setting_exit_2(
    pristine_tree, tmp_path, capsys, command
):
    # the checkpoint was trained at horizon 2: a default of 4 in place of
    # the lost setting once evaluated and recommended without a word
    checkpoint = tmp_path / "edited.bin"
    entries, manifest = T.load_checkpoint(
        pristine_tree / "run" / "checkpoint.bin"
    )
    del manifest["train"]["horizon_intervals"], manifest["train"]["prox_weight"]
    T.save_checkpoint(checkpoint, entries, manifest)
    extra = (["--out", tmp_path / "x"] if command == "eval"
             else ["--query", "m000", "--time", 100])
    code = run(command, "--data", pristine_tree / "data", "--checkpoint",
               checkpoint, *extra)
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        f"error: {checkpoint}: missing training fields: "
        "['horizon_intervals', 'prox_weight']"
    )


def _one_query_pack(matrix, horizon):
    """A pack of one candidate per horizon, for the waiting-time metric."""
    horizon = np.atleast_1d(horizon)
    single = np.zeros((len(horizon), 1), dtype=np.intp)
    return evaluate.Candidates(
        query_vertex=single[:, 0], query_time=horizon, horizon_time=horizon,
        vertex=single, position=single, labels=np.zeros(single.shape),
        num_vertices=matrix.num_locations,
    )


# every library entry point that reads an interval, and the name its
# message gives that interval
INTERVAL_READERS = {
    "window_at": (
        "time", lambda m, t: esgraph.RunTable(m.states).window_at(t, 2)
    ),
    "remaining_run_lengths": (
        "time",
        lambda m, t: esgraph.RunTable(m.states).remaining_run_lengths(t),
    ),
    "persistence_scores": ("time", evaluate.persistence_scores),
    "historical_mean_scores": (
        "time", lambda m, t: evaluate.historical_mean_scores(m, t, 100)
    ),
    "awtp_rnwtr": (
        "horizon",
        lambda m, t: evaluate.awtp_rnwtr([_one_query_pack(m, t)], m, 1),
    ),
}


@pytest.mark.parametrize(
    "reader, times",
    [
        pytest.param(reader, times, id=f"{reader}-{label}")
        for reader in (*INTERVAL_READERS, "recommend")
        for label, times in (
            ("minus-one", -1), ("num-intervals", 150),
            ("array-past-end", [3, 150, -1]), ("array-negative", [-1, 7]),
        )
        # the CLI's --time is one int
        if reader != "recommend" or np.ndim(times) == 0
    ],
)
def test_interval_outside_matrix_one_message(
    pristine_tree, capsys, reader, times
):
    # one check (ingest.check_times) gives every reader the same message,
    # naming the first entry outside the 150 intervals
    data = pristine_tree / "data"
    flat = np.ravel(times)
    first = flat[(flat < 0) | (flat >= 150)][0]
    if reader == "recommend":
        code = run("recommend", "--data", data, "--checkpoint",
                   pristine_tree / "run" / "checkpoint.bin", "--query",
                   "m000", "--time", times)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: time must lie in [0, 150), got {first}"
        ]
        return
    name, read = INTERVAL_READERS[reader]
    matrix, _graph = cli.load_data_dir(data)
    with pytest.raises(
        DataError, match=rf"^{name} must lie in \[0, 150\), got {first}$"
    ):
        read(matrix, np.array(times) if np.ndim(times) else times)


@pytest.mark.parametrize(
    "times, shown",
    [(2.5, "2.5"), (np.array([1.0, 2.0]), "1.0"), (True, "True"),
     (np.array([False, True]), "False")],
    ids=["float", "float-array", "bool", "bool-array"],
)
@pytest.mark.parametrize(
    "reader", [r for r in INTERVAL_READERS if r != "awtp_rnwtr"]
)
def test_non_integer_interval_rejected(pristine_tree, reader, times, shown):
    # these raised numpy's IndexError, or read True as time 1 and answered
    # with an extra leading axis
    name, read = INTERVAL_READERS[reader]
    matrix, _graph = cli.load_data_dir(pristine_tree / "data")
    with pytest.raises(
        DataError, match=rf"^{name} must be an integer, got {shown}$"
    ):
        read(matrix, times)


def test_empty_times_of_any_dtype_pass():
    for dtype in (np.float64, np.bool_, np.int64):
        times = ingest.check_times(np.array([], dtype=dtype), 150)
        assert times.size == 0


FLOAT_TRAIN_FIELDS = ("prox_weight", "dur_weight", "softmax_weight",
                      "l2_coeff", "dropout_rate", "learning_rate")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_TRAIN_FIELDS)
def test_non_finite_train_option_exit_3(
    pristine_tree, tmp_path, capsys, key, value
):
    # NaN fails no comparison, so without its own check it trained on
    # one token, or argparse reads -inf as a flag
    code = run("train", "--data", pristine_tree / "data", "--out",
               tmp_path / "x", *TRAIN_FLAGS,
               f"--{key.replace('_', '-')}={value}")
    assert code == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {key} must be finite, got {float(value)!r}"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key", FLOAT_TRAIN_FIELDS)
def test_checkpoint_nan_setting_exit_2(pristine_tree, tmp_path, capsys, key):
    checkpoint = tmp_path / "edited.bin"
    entries, manifest = T.load_checkpoint(
        pristine_tree / "run" / "checkpoint.bin"
    )
    manifest["train"][key] = float("nan")
    T.save_checkpoint(checkpoint, entries, manifest)
    assert f'"{key}":NaN'.encode() in checkpoint.read_bytes()
    with pytest.raises(DataError, match=f"edited.bin: {key} must be finite"):
        cli.load_checkpoint_bundle(checkpoint, ingest.load_graph(
            pristine_tree / "data" / "graph.json"
        ))
    code = run("eval", "--data", pristine_tree / "data", "--checkpoint",
               checkpoint, "--out", tmp_path / "x")
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "edited.bin" in line


def _nan_weight(entries, manifest):
    entries["gcn.input"][1, 2] = np.nan


def _oversized_embedding(entries, manifest):
    # both copies agree, so only the tensors' shapes can tell
    manifest["embed_dim"] = manifest["train"]["embed_dim"] = 10**6


def _huge_beta(entries, manifest):
    manifest["beta"] = manifest["train"]["beta"] = 10**9


def _unknown_tensor(entries, manifest):
    entries["gcn.extra"] = np.zeros(3)


def _missing_tensor(entries, manifest):
    del entries["readout.bias"]


def _dense_mask(entries, manifest):
    # the layout before mask.weights held one weight per allowed pair:
    # the pair weights at their [n, n] cells, zero elsewhere
    graph = ingest.build_adjacency(ingest.synth_locations(
        ingest.SynthConfig(num_locations=9, num_intervals=1)
    ))
    dense = np.zeros((9, 9))
    dense[graph.allowed_pairs()] = entries["mask.weights"]
    entries["mask.weights"] = dense


@pytest.mark.parametrize(
    "edit, says",
    [
        pytest.param(
            _nan_weight, "tensor 'gcn.input' is not finite", id="nan-weight"
        ),
        pytest.param(
            _oversized_embedding,
            "tensor 'gcn.input' has shape (2, 4), expected (2, 1000000)",
            id="oversized",
        ),
        pytest.param(
            _huge_beta, "is missing tensor 'gcn.mix.2'", id="huge-beta"
        ),
        pytest.param(
            _unknown_tensor, "holds unknown tensor 'gcn.extra'",
            id="unknown-tensor",
        ),
        pytest.param(
            _missing_tensor, "is missing tensor 'readout.bias'",
            id="missing-tensor",
        ),
        pytest.param(
            _dense_mask,
            "tensor 'mask.weights' has shape (9, 9), expected (33,)",
            id="dense-mask",
        ),
    ],
)
@pytest.mark.parametrize("command", ["eval", "recommend"])
def test_checkpoint_tensors_must_fit_exit_2(
    pristine_tree, tmp_path, capsys, monkeypatch, command, edit, says
):
    # the checkpoint is checked before any model is built
    def no_model(*args):
        raise AssertionError("built a model for a bad checkpoint")

    monkeypatch.setattr(model, "ModelParams", no_model)
    checkpoint = tmp_path / "edited.bin"
    entries, manifest = T.load_checkpoint(
        pristine_tree / "run" / "checkpoint.bin"
    )
    edit(entries, manifest)
    T.save_checkpoint(checkpoint, entries, manifest)
    extra = (["--out", tmp_path / "x"] if command == "eval"
             else ["--query", "m000", "--time", 100])
    code = run(command, "--data", pristine_tree / "data", "--checkpoint",
               checkpoint, *extra)
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {checkpoint}: checkpoint {says}"


# JSON values of every kind, field-sized numbers among them
MANIFEST_VALUES = st.one_of(
    st.integers(-2, 12), st.sampled_from([10**6, 10**9, 2**63]),
    st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["relu", "softmax"]), st.text(max_size=3),
    st.lists(st.integers(-1, 9), max_size=2),
)
TENSOR_VALUES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), st.floats()
)


def write_mutated_checkpoint(draw, source, out):
    """Write to out the checkpoint at source with one drawn mutation: a
    manifest field (either copy, or both of a model field), one tensor
    value, or a single byte."""
    kind = draw(st.sampled_from(["manifest", "tensor", "byte"]))
    if kind == "byte":
        data = bytearray(source.read_bytes())
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        out.write_bytes(bytes(data))
        return
    entries, manifest = T.load_checkpoint(source)
    if kind == "manifest":
        key = draw(st.sampled_from(sorted({*manifest, *manifest["train"]})))
        copies = [c for c in (manifest, manifest["train"]) if key in c]
        value = draw(MANIFEST_VALUES)
        for copy in draw(st.sampled_from([copies[:1], copies[1:], copies])):
            if draw(st.booleans()):
                copy[key] = value
            else:
                del copy[key]
    else:
        name = draw(st.sampled_from(sorted(entries)))
        flat = entries[name].reshape(-1)
        flat[draw(st.integers(0, flat.size - 1))] = draw(TENSOR_VALUES)
    T.save_checkpoint(out, entries, manifest)


@given(st.data())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_mutated_checkpoint_loads_or_raises(
    pristine_tree, pristine_graph, tmp_path_factory, data
):
    path = tmp_path_factory.getbasetemp() / "fuzzed-checkpoint.bin"
    write_mutated_checkpoint(
        data.draw, pristine_tree / "run" / "checkpoint.bin", path
    )
    try:
        params, _cfg = cli.load_checkpoint_bundle(path, pristine_graph)
    except ParkrankError:
        return
    loaded = params.snapshot()
    want = model.param_shapes(
        params.config, len(pristine_graph.allowed_pairs()[0])
    )
    assert [(k, v.shape) for k, v in loaded.items()] == list(want)
    assert all(np.isfinite(v).all() for v in loaded.values())


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param("bench", "--points", -1, id="points-negative"),
        pytest.param("bench", "--points", 0, id="points-zero"),
        pytest.param("eval", "--max-wait", -3, id="max-wait-negative"),
    ],
)
def test_out_of_range_option_exit_3(
    pristine_tree, tmp_path, capsys, command, flag, value
):
    checkpoint = pristine_tree / "run" / "checkpoint.bin"
    extra = ["--checkpoint", checkpoint] if command == "eval" else []
    code = run(command, "--data", pristine_tree / "data", *extra,
               "--out", tmp_path / "x", flag, value)
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("minutes", [0, -5])
def test_ingest_interval_out_of_range_exit_3(tmp_path, capsys, minutes):
    _write_ingest_inputs(tmp_path, "space")
    code = run("ingest", "--records", tmp_path / "rec.csv", "--locations",
               tmp_path / "loc.csv", "--kind", "space", "--out",
               tmp_path / "x", "--interval-minutes", minutes)
    assert code == 3
    assert "error: interval_minutes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, says",
    [
        pytest.param("--adjacency-m", "nan", "threshold_m",
                     id="adjacency-nan"),
        pytest.param("--adjacency-m", "inf", "threshold_m",
                     id="adjacency-inf"),
        pytest.param("--spacing", "nan", "grid_spacing_m", id="spacing-nan"),
        pytest.param("--spacing", "inf", "grid_spacing_m", id="spacing-inf"),
    ],
)
def test_non_finite_synth_option_exit_3(tmp_path, capsys, flag, value, says):
    # a NaN threshold used to write a graph with no edges, a NaN spacing
    # to fail later on a NaN latitude
    code = run("synth", "--out", tmp_path / "x", "--locations", 4,
               "--intervals", 20, flag, value)
    assert code == 3
    assert f"error: {says}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "kind, flag, value, says",
    [
        pytest.param("street", "--full-ratio", "nan", "full_loaded_ratio",
                     id="full-ratio-nan"),
        pytest.param("street", "--full-ratio", "5", "full_loaded_ratio",
                     id="full-ratio-above-1"),
        pytest.param("street", "--full-ratio", "-1", "full_loaded_ratio",
                     id="full-ratio-negative"),
        pytest.param("space", "--adjacency-m", "nan", "threshold_m",
                     id="adjacency-nan"),
    ],
)
def test_ingest_option_out_of_range_exit_3(
    tmp_path, capsys, kind, flag, value, says
):
    # a ratio of NaN or above 1 used to mark every street vacant, one
    # below 0 every street occupied
    _write_ingest_inputs(tmp_path, kind)
    code = run("ingest", "--records", tmp_path / "rec.csv", "--locations",
               tmp_path / "loc.csv", "--kind", kind, "--out",
               tmp_path / "x", flag, value)
    assert code == 3
    assert f"error: {says}" in capsys.readouterr().err


def record_lines(matrix, kind):
    """The lines of a space or street record file holding every cell of
    matrix, header first: a street is one space, occupied or not."""
    if kind == "space":
        lines = ["meter_id,timestamp,state"]
    else:
        lines = ["street_id,timestamp,occupied_count,capacity"]
    step = timedelta(minutes=matrix.interval_minutes)
    for i, mid in enumerate(matrix.meter_ids):
        for t in range(matrix.num_intervals):
            ts = matrix.start_time + t * step
            row = f"{mid},{ts.isoformat()},{int(matrix.states[i, t])}"
            lines.append(row if kind == "space" else row + ",1")
    return lines


def _write_ingest_inputs(tmp_path, kind):
    """Valid loc.csv and rec.csv (space or street records) in tmp_path."""
    cfg = ingest.SynthConfig(num_locations=4, num_intervals=20, rng_seed=0)
    locations, matrix = ingest.synth_generate(cfg)
    ingest.save_locations(locations, tmp_path / "loc.csv")
    lines = record_lines(matrix, kind)
    (tmp_path / "rec.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "kind, name",
    [
        pytest.param("space", "loc.csv", id="locations"),
        pytest.param("space", "rec.csv", id="space-records"),
        pytest.param("street", "rec.csv", id="street-records"),
    ],
)
def test_undecodable_ingest_input_exit_2(tmp_path, capsys, kind, name):
    _write_ingest_inputs(tmp_path, kind)
    target = tmp_path / name
    raw = target.read_bytes()
    target.write_bytes(raw[:40] + b"\xff" + raw[41:])
    code = run("ingest", "--records", tmp_path / "rec.csv", "--locations",
               tmp_path / "loc.csv", "--kind", kind, "--out", tmp_path / "x")
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert name in err


def _short_location_row(lines):
    """Columns reordered to lat,lon,meter_id; the second record then
    lacks its id field."""
    rows = [line.split(",") for line in lines]
    rows = [[*row[1:], row[0]] for row in rows]
    rows[2] = rows[2][:2]
    return [",".join(row) for row in rows]


def _long_first_field(row):
    """The row's first field past the csv module's 131072-character
    field limit."""
    return "x" * 200_000 + row


def _on_row_3(edit):
    """A file edit that rewrites the third line (the second record)."""
    return lambda lines: [*lines[:2], edit(lines[2]), *lines[3:]]


@pytest.mark.parametrize(
    "kind, name, edit, says",
    [
        pytest.param(
            "space", "loc.csv",
            _on_row_3(lambda row: row.replace(",", ",north", 1)), "line 3:",
            id="latitude",
        ),
        pytest.param(
            "space", "rec.csv", _on_row_3(lambda row: row[:-1] + "x"),
            "line 3:", id="state",
        ),
        pytest.param(
            "street", "rec.csv",
            _on_row_3(lambda row: row[: row.rindex(",")] + ",many"),
            "line 3:", id="capacity",
        ),
        pytest.param(
            "space", "loc.csv", _short_location_row, "line 3:",
            id="short-location-row",
        ),
        pytest.param(
            "space", "loc.csv", lambda lines: [], "no header row",
            id="empty-locations",
        ),
        pytest.param(
            "space", "loc.csv", lambda lines: lines[:1], "no rows",
            id="header-only-locations",
        ),
        pytest.param(
            "space", "rec.csv", lambda lines: [], "no header row",
            id="empty-records",
        ),
        pytest.param(
            "street", "rec.csv", lambda lines: lines[:1], "no records",
            id="header-only-records",
        ),
        pytest.param(
            "space", "loc.csv", _on_row_3(_long_first_field), "field limit",
            id="locations-long-field",
        ),
        pytest.param(
            "space", "rec.csv", _on_row_3(_long_first_field), "field limit",
            id="space-records-long-field",
        ),
        pytest.param(
            "street", "rec.csv", _on_row_3(_long_first_field), "field limit",
            id="street-records-long-field",
        ),
    ],
)
def test_ingest_parse_error_names_file(tmp_path, capsys, kind, name, edit, says):
    _write_ingest_inputs(tmp_path, kind)
    target = tmp_path / name
    lines = edit(target.read_text().splitlines())
    target.write_text("".join(line + "\n" for line in lines))
    code = run("ingest", "--records", tmp_path / "rec.csv", "--locations",
               tmp_path / "loc.csv", "--kind", kind, "--out", tmp_path / "x")
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and says in err
    assert name in err


RECORD_IDS = st.sampled_from(["m000", "m003", " m001", '"m002"', "", "m9"])
RECORD_CELLS = {
    "meter_id": RECORD_IDS,
    "street_id": RECORD_IDS,
    "timestamp": st.sampled_from([
        "", "2022-08-01", "2022-08-01T00:00:00+05:30", "2022-08-01T00:02:29Z",
        "2022-08-01 07:30:15.25", "0001-01-01", "9999-12-31T23:59:59",
        "22-8-1", "nan",
    ]),
    "state": st.sampled_from(["0", "1", "", "2", "-1", " 1", "01", "1.0"]),
    "occupied_count": st.sampled_from(["0", "1", "3", "-1", "", "1e2", "١"]),
    "capacity": st.sampled_from(["1", "2", "0", "-1", "", str(10**20)]),
}


def mutated_record_lines(draw, lines):
    """A record file's lines with one drawn mutation: a cell (an id, a
    timestamp off the grid, in another zone or malformed, a state or a
    count out of range or not a number), a header field, a line dropped,
    repeated or moved, or a single byte."""
    kind = draw(st.sampled_from(["cell", "header", "line", "byte"]))
    names = lines[0].split(",")
    text = st.text(max_size=6)
    if kind == "cell":
        row = draw(st.integers(1, len(lines) - 1))
        cells = lines[row].split(",")
        column = draw(st.integers(0, len(cells) - 1))
        stamp = datetime.fromisoformat(cells[1])
        moved = stamp + timedelta(minutes=draw(st.integers(-20, 200)))
        cells[column] = draw(st.one_of(
            RECORD_CELLS[names[column]], text,
            *([st.just(moved.isoformat())] if column == 1 else []),
        ))
        lines[row] = ",".join(cells)
    elif kind == "header":
        column = draw(st.integers(0, len(names) - 1))
        names[column] = draw(
            st.one_of(st.sampled_from(sorted(RECORD_CELLS)), text)
        )
        lines[0] = ",".join(names)
    elif kind == "line":
        row = draw(st.integers(1, len(lines) - 1))
        line = lines.pop(row)
        if draw(st.booleans()):  # repeated or moved, not dropped
            lines.insert(draw(st.integers(1, len(lines))), line)
            if draw(st.booleans()):
                lines.insert(row, line)
    data = bytearray("\n".join(lines).encode() + b"\n")
    if kind == "byte":
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@pytest.fixture(scope="module")
def ingest_inputs(tmp_path_factory):
    """A directory holding loc.csv, and the record lines of its matrix."""
    work = tmp_path_factory.mktemp("ingest")
    cfg = ingest.SynthConfig(num_locations=4, num_intervals=20, rng_seed=0)
    locations, matrix = ingest.synth_generate(cfg)
    ingest.save_locations(locations, work / "loc.csv")
    kinds = ("space", "street")
    return work, {kind: record_lines(matrix, kind) for kind in kinds}


def ingest_records(work, records, kind, out):
    """cmd_ingest of the record file at records, as the CLI resolves it."""
    args = PARSER.parse_args([
        "ingest", "--records", str(records), "--locations",
        str(work / "loc.csv"), "--kind", kind, "--out", str(out),
    ])
    cli.cmd_ingest(args, cli.resolve(args, cli.COMMANDS["ingest"][3]))


@pytest.mark.parametrize("kind", ["space", "street"])
@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mutated_records_round_trip_or_raise(ingest_inputs, kind, data):
    # an ingested data dir, written back out as records of the same kind
    # and ingested again, gives the same bytes
    work, lines = ingest_inputs
    records = work / f"fuzzed-{kind}.csv"
    records.write_bytes(mutated_record_lines(data.draw, list(lines[kind])))
    try:
        ingest_records(work, records, kind, work / "first")
    except ParkrankError:
        return
    matrix, _graph = cli.load_data_dir(work / "first")
    again = work / f"again-{kind}.csv"
    again.write_text("\n".join(record_lines(matrix, kind)) + "\n")
    ingest_records(work, again, kind, work / "second")
    for name in (cli.LOCATIONS_FILE, cli.MATRIX_FILE, "matrix.meta.json",
                 cli.GRAPH_FILE):
        first = (work / "first" / name).read_bytes()
        assert first == (work / "second" / name).read_bytes(), name
