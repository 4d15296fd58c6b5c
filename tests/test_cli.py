import subprocess
import sys

import numpy as np
import pytest

from nightdehaze import cli
from nightdehaze.engine import load_checkpoint, save_checkpoint
from nightdehaze.imageio import read_ppm, write_ppm
from nightdehaze.networks import DeGlowModel, DeHazeModel, save_model


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.mark.parametrize("errors", [(1e-4, np.nan, 2e-4), (np.nan, 1e-4), (1e-4, 2e-4)])
def test_gradcheck_fails_on_any_nan_case(monkeypatch, capsys, errors):
    results = [(f"case{i}", err) for i, err in enumerate(errors)]
    monkeypatch.setattr(cli, "run_gradient_suite", lambda: results)
    ok = not any(np.isnan(errors))
    assert run_cli("gradcheck") == (0 if ok else 1)
    verdict = capsys.readouterr().out.splitlines()[-1]
    assert verdict.startswith("gradcheck PASS" if ok else "gradcheck FAIL")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "set"
    config = tmp_path_factory.mktemp("cfg") / "synth.cfg"
    config.write_text(
        "[synthesis]\n"
        "target_size = 24, 24\n"
        "glow_radius_range = 3, 8\n"
        "sources_per_image_range = 1, 2\n"
        "rng_seed = 7\n"
    )
    assert run_cli("synth", "--config", str(config), "--out", str(out), "--pairs", "2") == 0
    return out


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    rng = np.random.default_rng(0)
    out = tmp_path_factory.mktemp("ckpt")
    save_model(DeGlowModel(features=4, tau=2).init(rng, std=0.05), out / "deglow.nckp")
    save_model(DeHazeModel(features=4).init(rng, std=0.05), out / "dehaze.nckp")
    return out


class TestUsage:
    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nightdehaze.cli", "run", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()

    def test_unknown_subcommand_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nightdehaze.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_unknown_flag_exits_two(self):
        # --tau sets the DeGlow recurrence count only, so train-dehaze has none
        for argv in (
            ["synth", "--bogus"],
            ["train-dehaze", "--data", "d", "--out", "o", "--tau", "5"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "nightdehaze.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2, argv


class TestSynth:
    def test_manifest_record_count(self, dataset_dir):
        lines = (dataset_dir / "manifest.txt").read_text().strip().split("\n")
        assert len(lines) == 2 * 3 * 3

    def test_layer_files_exist(self, dataset_dir):
        first = (dataset_dir / "manifest.txt").read_text().split("\n")[0]
        fields = dict(kv.split("=", 1) for kv in first.split(" "))
        for key in ("observed", "haze", "transmission", "glow_mask", "streak_sum"):
            assert (dataset_dir / fields[key]).exists()


class TestTrain:
    def test_train_both_models(self, dataset_dir, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(
            "[training]\n"
            "learning_rate = 0.002\n"
            "batch_size = 2\n"
            "max_iterations = 4\n"
            "checkpoint_interval = 2\n"
        )
        for cmd in ("train-deglow", "train-dehaze"):
            out = tmp_path / cmd
            status = run_cli(
                cmd,
                "--config",
                str(config),
                "--data",
                str(dataset_dir),
                "--out",
                str(out),
                "--features",
                "4",
                "--val",
                "2",
            )
            assert status == 0
            assert (out / "ckpt_final.nckp").exists()
            assert (out / "ckpt_000002.nckp").exists()

    def test_missing_manifest_exits_one(self, tmp_path, capsys):
        status = run_cli(
            "train-dehaze", "--data", str(tmp_path), "--out", str(tmp_path / "o")
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "stage=" in err and "manifest" in err


class TestRunRecoverEval:
    def test_run_writes_outputs(self, dataset_dir, checkpoints, tmp_path, capsys):
        inp = dataset_dir / "rec_000000.observed.ppm"
        out = tmp_path / "out"
        status = run_cli(
            "run",
            str(inp),
            "--out",
            str(out),
            "--checkpoint",
            f"deglow={checkpoints / 'deglow.nckp'}",
            "--checkpoint",
            f"dehaze={checkpoints / 'dehaze.nckp'}",
            "--dump-intermediates",
        )
        assert status == 0
        stem = "rec_000000.observed"
        for suffix in (".out.ppm", ".deglow.ppm", ".trans.pgm", ".light.txt", ".stages.npz"):
            assert (out / f"{stem}{suffix}").exists()
        printed = capsys.readouterr().out
        for stage in ("deglow", "dehaze", "atmospheric_light", "recover"):
            assert f"{stage}=" in printed

    def test_recover_stage_isolation_is_bit_exact(
        self, dataset_dir, checkpoints, tmp_path
    ):
        out = tmp_path / "out"
        run_cli(
            "run",
            str(dataset_dir / "rec_000001.observed.ppm"),
            "--out",
            str(out),
            "--checkpoint",
            f"deglow={checkpoints / 'deglow.nckp'}",
            "--checkpoint",
            f"dehaze={checkpoints / 'dehaze.nckp'}",
            "--dump-intermediates",
        )
        stem = "rec_000001.observed"
        redo = tmp_path / "redo"
        status = run_cli(
            "recover", "--intermediates", str(out / f"{stem}.stages.npz"), "--out", str(redo)
        )
        assert status == 0
        assert (out / f"{stem}.out.ppm").read_bytes() == (
            redo / f"{stem}.out.ppm"
        ).read_bytes()

    def test_run_directory_mode_with_threads(self, dataset_dir, checkpoints, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        for i in range(2):
            img = read_ppm(dataset_dir / f"rec_00000{i}.observed.ppm")
            write_ppm(indir / f"img{i}.ppm", img)
        out = tmp_path / "out"
        status = run_cli(
            "run",
            str(indir),
            "--out",
            str(out),
            "--checkpoint",
            f"deglow={checkpoints / 'deglow.nckp'}",
            "--checkpoint",
            f"dehaze={checkpoints / 'dehaze.nckp'}",
            "--threads",
            "2",
        )
        assert status == 0
        assert (out / "img0.out.ppm").exists()
        assert (out / "img1.out.ppm").exists()

    def test_missing_checkpoint_exits_one(self, dataset_dir, tmp_path, capsys):
        status = run_cli(
            "run",
            str(dataset_dir / "rec_000000.observed.ppm"),
            "--out",
            str(tmp_path / "o"),
            "--checkpoint",
            "deglow=/nonexistent.nckp",
            "--checkpoint",
            "dehaze=/nonexistent.nckp",
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage=")

    def test_eval_self_comparison(self, dataset_dir, tmp_path, capsys):
        pred = tmp_path / "pred"
        pred.mkdir()
        img = read_ppm(dataset_dir / "rec_000000.observed.ppm")
        write_ppm(pred / "a.out.ppm", img)
        truth = tmp_path / "truth"
        truth.mkdir()
        write_ppm(truth / "a.ppm", img)
        status = run_cli("eval", "--pred", str(pred), "--truth", str(truth))
        assert status == 0
        out = capsys.readouterr().out
        assert "a inf 1.000000" in out

    def test_eval_no_matches_exits_one(self, tmp_path, capsys):
        (tmp_path / "p").mkdir()
        (tmp_path / "t").mkdir()
        assert run_cli("eval", "--pred", str(tmp_path / "p"), "--truth", str(tmp_path / "t")) == 1
        assert "stage=" in capsys.readouterr().err


def _write(path, content):
    if isinstance(content, str):
        path.write_text(content)
    else:
        path.write_bytes(content)
    return str(path)


def _sidecar(path, **overrides):
    arrays = dict(
        deglowed=np.zeros((4, 4, 3)),
        transmission=np.ones((4, 4)),
        light=np.ones(3),
        t_min=np.array(0.05),
    )
    arrays.update(overrides)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    return str(path)


def _manifest_dir(path, line):
    path.mkdir()
    (path / "manifest.txt").write_text(line + "\n")
    return str(path)


def _checkpoint(path, records=None, model=None):
    """A small DeGlow checkpoint (or `model`'s) with some records replaced."""
    save_model(model or DeGlowModel(features=4, tau=2), path)
    arrays = load_checkpoint(path)
    for name, value in (records or {}).items():
        arrays[name] = np.asarray(value, dtype=np.float32)
    save_checkpoint(path, arrays)
    return str(path)


def _overflowing_checkpoint(path):
    """A DeGlow checkpoint whose finite weights, all 1e30, overflow at run time."""
    save_model(DeGlowModel(features=4, tau=2), path)
    arrays = load_checkpoint(path)
    save_checkpoint(
        path, {k: v if k.startswith("meta.") else np.full_like(v, 1e30) for k, v in arrays.items()}
    )
    return str(path)


def _deglow_slot(t, records):
    return ["--checkpoint", f"deglow={_checkpoint(t / 'c.nckp', records)}"]


# each row: the stage the error line names, and argv built from
# (tmp dir, image, run flags, dataset dir)
BAD_INPUTS = {
    "truncated-ppm": ("read-input", lambda t, image, run, data: [
        "run", _write(t / "a.ppm", b"P6\n4 4\n255\n" + bytes(10)), *run
    ]),
    "non-numeric-ppm-header": ("read-input", lambda t, image, run, data: [
        "run", _write(t / "a.ppm", b"P6\nfour 4\n255\n" + bytes(48)), *run
    ]),
    # a 0-pixel image used to reach the pipeline and fail on an empty reduction
    "zero-width-ppm": ("read-input", lambda t, image, run, data: [
        "run", _write(t / "a.ppm", b"P6\n0 5\n255\n"), *run
    ]),
    "zero-size-ppm": ("read-input", lambda t, image, run, data: [
        "run", _write(t / "a.ppm", b"P6\n0 0\n255\n"), *run
    ]),
    "run-threads-zero": ("run", lambda t, image, run, data: [
        "run", image, *run, "--threads", "0"
    ]),
    "run-threads-negative": ("run", lambda t, image, run, data: [
        "run", image, *run, "--threads", "-3"
    ]),
    "negative-tile-size": ("pipeline", lambda t, image, run, data: [
        "run", image, *run, "--tile-size", "-4"
    ]),
    "config-tile-size-abc": ("run", lambda t, image, run, data: [
        "run", image, *run, "--config", _write(t / "c.cfg", "[pipeline]\ntile_size = abc\n")
    ]),
    # rejected as the config is read, before either network runs
    "config-t-min-nan": ("run", lambda t, image, run, data: [
        "run", image, *run, "--config", _write(t / "c.cfg", "[pipeline]\nt_min = nan\n")
    ]),
    "config-t-min-one": ("run", lambda t, image, run, data: [
        "run", image, *run, "--config", _write(t / "c.cfg", "[pipeline]\nt_min = 1\n")
    ]),
    "config-fractional-target-size": ("synth", lambda t, image, run, data: [
        "synth", "--out", str(t / "d"),
        "--config", _write(t / "c.cfg", "[synthesis]\ntarget_size = 32.5, 20\n"),
    ]),
    "sidecar-without-light": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz", light=None),
        "--out", str(t / "r"),
    ]),
    "sidecar-light-two-values": ("recover", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz", light=np.ones(2)),
        "--out", str(t / "r"),
    ]),
    "sidecar-deglowed-nan": ("recover", lambda t, image, run, data: [
        "recover", "--intermediates",
        _sidecar(t / "x.stages.npz", deglowed=np.full((4, 4, 3), np.nan)), "--out", str(t / "r"),
    ]),
    "sidecar-transmission-wrong-size": ("recover", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz", transmission=np.ones((4, 5))),
        "--out", str(t / "r"),
    ]),
    "sidecar-t-min-two-values": ("read-intermediates", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz", t_min=np.ones(2)),
        "--out", str(t / "r"),
    ]),
    "manifest-layer-file-missing": ("load-data", lambda t, image, run, data: [
        "train-dehaze", "--data", _manifest_dir(t / "m", " ".join([
            "id=rec_0", "observed=o.ppm", "haze=h.ppm", "transmission=t.pgm",
            "glow_mask=g.pgm", "streak_sum=s.ppm", "beta=1", "q=0.5", "light=1,1,1",
        ])),
        "--out", str(t / "o"),
    ]),
    "manifest-missing-layer-keys": ("load-data", lambda t, image, run, data: [
        "train-dehaze", "--data", _manifest_dir(t / "m", "id=rec_0 beta=1"),
        "--out", str(t / "o"),
    ]),
    "manifest-token-without-equals": ("load-data", lambda t, image, run, data: [
        "train-dehaze", "--data", _manifest_dir(t / "m", "id=rec_0 observed"),
        "--out", str(t / "o"),
    ]),
    "checkpoint-untied": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.tied": [0.0]})
    ]),
    "checkpoint-wrong-kind": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run,
        "--checkpoint", f"deglow={_checkpoint(t / 'h.nckp', model=DeHazeModel(features=4))}",
    ]),
    "checkpoint-nan-weight": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"head_residual.bias": [0.0, np.nan, 0.0]})
    ]),
    "checkpoint-fractional-tau": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.tau": [2.7]})
    ]),
    "checkpoint-nan-tau": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.tau": [np.nan]})
    ]),
    "checkpoint-tau-above-max": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.tau": [1e9]})
    ]),
    "checkpoint-features-zero": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.features": [0.0]})
    ]),
    "checkpoint-features-mismatch": ("load-checkpoint", lambda t, image, run, data: [
        "run", image, *run, *_deglow_slot(t, {"meta.features": [8.0]})
    ]),
    # load_model accepts the finite weights; the deglow stage's output is not finite
    "checkpoint-overflowing-weights": ("pipeline", lambda t, image, run, data: [
        "run", image, *run, "--checkpoint", f"deglow={_overflowing_checkpoint(t / 'c.nckp')}"
    ]),
    "train-tau-zero": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"), "--tau", "0"
    ]),
    # numpy overflow warnings must not precede the divergence's error line
    "train-deglow-diverges": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\nlearning_rate = 1e12\n"),
    ]),
    "train-dehaze-diverges": ("train-dehaze", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\nlearning_rate = 1e12\n"),
    ]),
    # each interval is the divisor of an iteration-count modulo
    "val-interval-zero": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\nval_interval = 0\n"),
    ]),
    "checkpoint-interval-zero": ("train-dehaze", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", str(t / "o"),
        "--config", _write(t / "c.cfg", "[training]\ncheckpoint_interval = 0\n"),
    ]),
    # a negative count would train on the first records and validate on the rest
    "train-val-negative": ("train-deglow", lambda t, image, run, data: [
        "train-deglow", "--data", data, "--out", str(t / "o"), "--val", "-2"
    ]),
    "train-features-zero": ("train-dehaze", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", str(t / "o"), "--features", "0"
    ]),
    # --out names an existing regular file, so no output directory can be made
    "run-out-is-file": ("write-output", lambda t, image, run, data: [
        "run", image, *run, "--out", _write(t / "f", "x")
    ]),
    "recover-out-is-file": ("write-output", lambda t, image, run, data: [
        "recover", "--intermediates", _sidecar(t / "x.stages.npz"), "--out", _write(t / "f", "x")
    ]),
    "train-dehaze-out-is-file": ("write-output", lambda t, image, run, data: [
        "train-dehaze", "--data", data, "--out", _write(t / "f", "x")
    ]),
    "eval-out-is-directory": ("write-output", lambda t, image, run, data: [
        "eval", "--pred", data, "--truth", data, "--out", str(t)
    ]),
    # the directories used to be listed outside any error handling
    "eval-pred-missing": ("eval", lambda t, image, run, data: [
        "eval", "--pred", str(t / "missing"), "--truth", data
    ]),
    "eval-truth-is-file": ("eval", lambda t, image, run, data: [
        "eval", "--pred", data, "--truth", _write(t / "f", "x")
    ]),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_with_one_error_line(case, dataset_dir, checkpoints, tmp_path):
    run_flags = [
        "--out", str(tmp_path / "out"),
        "--checkpoint", f"deglow={checkpoints / 'deglow.nckp'}",
        "--checkpoint", f"dehaze={checkpoints / 'dehaze.nckp'}",
    ]
    image = str(dataset_dir / "rec_000000.observed.ppm")
    stage, build_argv = BAD_INPUTS[case]
    argv = build_argv(tmp_path, image, run_flags, str(dataset_dir))
    proc = subprocess.run(
        [sys.executable, "-m", "nightdehaze.cli", *argv], capture_output=True, text=True
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1 and lines[0].startswith(f"error: stage={stage} "), proc.stderr
    assert "Traceback" not in proc.stderr
