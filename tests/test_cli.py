"""End-to-end subcommand tests through main(argv)."""

import json
import shutil
from datetime import timedelta

import numpy as np
import pytest

from parkrank import cli, esgraph, ingest, model, train
from parkrank import tensor as T


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
        lines = ["meter_id,timestamp,state"]
        for i, mid in enumerate(matrix.meter_ids):
            for t in range(20):
                ts = matrix.start_time + timedelta(minutes=5 * t)
                lines.append(f"{mid},{ts.isoformat()},{int(matrix.states[i, t])}")
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
        adj = graph.adjacency_matrix()
        hood = {matrix.meter_ids[v] for v in np.flatnonzero(adj[4])} | {"m004"}
        for line in lines:
            mid, score = line.split("\t")
            assert mid in hood
            float(score)

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
        expected = esgraph.bench_complexity(matrix, 4).as_dict()
        assert payload == expected
        lines = (out / "complexity_curve.csv").read_text().splitlines()
        assert lines[0] == "prefix_len,cell_count,event_node_count"
        last = lines[-1].split(",")
        assert int(last[0]) == 150
        assert int(last[1]) == 9 * 150

    def test_checkpoint_graph_mismatch_exit_2(self, tmp_path):
        data = synth_dir(tmp_path)
        other = synth_dir(tmp_path, "other", locations=4, intervals=150)
        run_dir = trained_dir(tmp_path, data)
        assert run("eval", "--data", other, "--checkpoint",
                   run_dir / "checkpoint.bin", "--out", tmp_path / "x") == 2


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


def _invalid_train_setting(path):
    entries, manifest = T.load_checkpoint(path)
    manifest["train"]["batch_size"] = 0
    T.save_checkpoint(path, entries, manifest)


def _rename_graph_meter(path):
    payload = json.loads(path.read_text())
    payload["vertices"][0]["meter_id"] = "zzz"
    path.write_text(json.dumps(payload))


@pytest.fixture(scope="module")
def pristine_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    trained_dir(root, synth_dir(root))
    return root


@pytest.mark.parametrize(
    "name, corrupt",
    [
        pytest.param("data/graph.json", _truncate, id="truncated-graph"),
        pytest.param(
            "data/matrix.meta.json", _drop_sidecar_key, id="sidecar-key"
        ),
        pytest.param("data/matrix.csv", _bad_matrix_cell, id="matrix-cell"),
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
            "data/graph.json", _rename_graph_meter, id="graph-meter-ids"
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


def _write_ingest_inputs(tmp_path, kind):
    """Valid loc.csv and rec.csv (space or street records) in tmp_path."""
    cfg = ingest.SynthConfig(num_locations=4, num_intervals=20, rng_seed=0)
    locations, matrix = ingest.synth_generate(cfg)
    ingest.save_locations(locations, tmp_path / "loc.csv")
    if kind == "space":
        lines = ["meter_id,timestamp,state"]
    else:
        lines = ["street_id,timestamp,occupied_count,capacity"]
    for i, mid in enumerate(matrix.meter_ids):
        for t in range(20):
            ts = matrix.start_time + timedelta(minutes=5 * t)
            row = f"{mid},{ts.isoformat()},{int(matrix.states[i, t])}"
            lines.append(row if kind == "space" else row + ",1")
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
