"""Command-line interface.

Subcommands:
    synth         build a synthetic dataset from procedural scenes
    train-deglow  train the glow-removal model on a dataset directory
    train-dehaze  train the transmission model on a dataset directory
    run           dehaze images end to end
    recover       redo only the recovery stage from dumped intermediates
    eval          score outputs against ground truth (PSNR/SSIM)
    gradcheck     run the finite-difference gradient suite

Exit codes: 0 success, 1 runtime failure (one-line `error: stage=... ` on
stderr), 2 usage error.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import metrics, synthesis
from .config import default_config, load_config
from .errors import NightDehazeError, ParameterError
from .gradsuite import TOLERANCE, run_gradient_suite
from .imageio import read_ppm, write_pgm, write_ppm
from .networks import DEFAULT_FEATURES, DEFAULT_TAU, DeGlowModel, DeHazeModel, load_model
from .pipeline import run_pipeline
from .training import load_samples_from_manifest, train_deglow, train_dehaze


SIDECAR_KEYS = {"deglowed", "transmission", "light", "t_min"}


class StageFailure(Exception):
    def __init__(self, stage, file, cause):
        super().__init__(f"stage={stage} file={file}: {cause}")
        self.stage = stage


def _fail(stage, file, cause):
    raise StageFailure(stage, file or "-", cause)


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        _fail("write-output", path, e)


def build_parser():
    parser = argparse.ArgumentParser(prog="nightdehaze", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="build a synthetic training dataset")
    p.add_argument("--config", help="config file ([synthesis] section)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, help="override synthesis rng seed")
    p.add_argument("--pairs", type=int, default=10, help="number of procedural scenes")

    for name in ("train-deglow", "train-dehaze"):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} on a dataset directory")
        p.add_argument("--config", help="config file ([training]/[loss] sections)")
        p.add_argument("--data", required=True, help="dataset directory with manifest.txt")
        p.add_argument("--out", required=True, help="checkpoint output directory")
        p.add_argument("--seed", type=int, help="override training seed")
        p.add_argument("--features", type=int, help="feature channel width")
        p.add_argument("--val", type=int, default=0, help="hold out last N records for validation")
        if name == "train-deglow":
            p.add_argument("--tau", type=int, help="recurrence count")

    p = sub.add_parser("run", help="dehaze images end to end")
    p.add_argument("inputs", nargs="+", help="input .ppm files or a directory")
    p.add_argument("--config", help="config file ([pipeline] section)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--checkpoint",
        action="append",
        default=[],
        metavar="KIND=PATH",
        help="model checkpoint, e.g. deglow=d.nckp (repeatable)",
    )
    p.add_argument("--tile-size", type=int, help="process in tiles of this size")
    p.add_argument("--threads", type=int, default=1, help="parallel images in directory mode")
    p.add_argument("--dump-intermediates", action="store_true")

    p = sub.add_parser("recover", help="recovery stage only, from dumped intermediates")
    p.add_argument("--intermediates", required=True, help="<stem>.stages.npz from run")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted .ppm images")
    p.add_argument("--truth", required=True, help="directory of ground-truth .ppm images")
    p.add_argument("--out", help="write the report table to this file")

    sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    return parser


def cmd_synth(args):
    cfg = (load_config(args.config) if args.config else default_config())["synthesis"]
    if args.seed is not None:
        cfg.rng_seed = args.seed
    width, height = cfg.target_size
    scene_rng = np.random.default_rng([cfg.rng_seed, 0])
    pairs = [synthesis.procedural_scene(scene_rng, (height, width)) for _ in range(args.pairs)]
    try:
        records, manifest = synthesis.build_dataset(pairs, cfg, args.out)
    except OSError as e:
        _fail("synth", args.out, e)
    print(f"wrote {len(records)} records to {manifest}")
    return 0


def _cmd_train(args, kind):
    if args.val < 0:
        raise ParameterError(f"--val must be >= 0, got {args.val}")
    cfgs = load_config(args.config) if args.config else default_config()
    schedule = cfgs["training"]
    if args.seed is not None:
        schedule.seed = args.seed
    manifest = os.path.join(args.data, "manifest.txt")
    if not os.path.exists(manifest):
        _fail("load-data", manifest, "manifest not found")
    try:
        samples = load_samples_from_manifest(args.data, kind)
    except (OSError, NightDehazeError) as e:
        _fail("load-data", manifest, e)
    val = None
    if args.val:
        samples, val = samples[: -args.val], samples[-args.val :]
    features = DEFAULT_FEATURES if args.features is None else args.features
    rng = np.random.default_rng([schedule.seed, 1])
    if kind == "deglow":
        tau = DEFAULT_TAU if args.tau is None else args.tau
        model = DeGlowModel(features=features, tau=tau).init(rng)
    else:
        model = DeHazeModel(features=features).init(rng)
    # an unwritable --out fails here, before any training time is spent
    _make_out_dir(args.out)
    try:
        if kind == "deglow":
            result = train_deglow(model, samples, schedule, cfgs["loss"], val, args.out)
        else:
            result = train_dehaze(model, samples, schedule, val, args.out)
    except OSError as e:
        _fail("write-output", e.filename or args.out, e)
    final_loss = result.loss_log[-1][1]
    print(f"trained {kind}: {len(result.loss_log)} iterations, final loss {final_loss:.6g}")
    print(f"checkpoints: {', '.join(result.checkpoints)}")
    return 0


def _load_models(args):
    cfg = (load_config(args.config) if args.config else default_config())["pipeline"]
    paths = {"deglow": cfg.deglow_checkpoint, "dehaze": cfg.dehaze_checkpoint}
    for item in args.checkpoint:
        if "=" not in item:
            _fail("load-checkpoint", item, "expected KIND=PATH")
        kind, path = item.split("=", 1)
        if kind not in paths:
            _fail("load-checkpoint", item, f"unknown model kind '{kind}'")
        paths[kind] = path
    models = {}
    for kind, path in paths.items():
        if not path:
            _fail("load-checkpoint", "-", f"no {kind} checkpoint given")
        try:
            models[kind] = load_model(path)
        except NightDehazeError as e:
            _fail("load-checkpoint", path, e)
        if models[kind].kind != kind:
            _fail("load-checkpoint", path, f"holds a {models[kind].kind} model, not {kind}")
    return models["deglow"], models["dehaze"], cfg


def _run_one(path, out_dir, deglow, dehaze, cfg, args):
    try:
        image = read_ppm(path)
    except (OSError, NightDehazeError) as e:
        _fail("read-input", path, e)
    try:
        art = run_pipeline(
            image,
            deglow,
            dehaze,
            t_min=cfg.t_min,
            tile_size=args.tile_size if args.tile_size is not None else cfg.tile_size,
        )
    except NightDehazeError as e:
        _fail("pipeline", path, e)
    stem = os.path.splitext(os.path.basename(path))[0]
    try:
        write_ppm(os.path.join(out_dir, f"{stem}.out.ppm"), art.radiance)
        if args.dump_intermediates:
            write_ppm(os.path.join(out_dir, f"{stem}.deglow.ppm"), art.deglowed)
            write_pgm(os.path.join(out_dir, f"{stem}.trans.pgm"), art.transmission)
            with open(os.path.join(out_dir, f"{stem}.light.txt"), "w") as f:
                f.write(" ".join(f"{v:.17g}" for v in art.light) + "\n")
            np.savez(
                os.path.join(out_dir, f"{stem}.stages.npz"),
                deglowed=art.deglowed,
                transmission=art.transmission,
                light=art.light,
                t_min=np.array(cfg.t_min),
            )
    except OSError as e:
        _fail("write-output", e.filename or out_dir, e)
    timing = " ".join(f"{k}={art.timings[k]:.4f}s" for k in art.timings)
    print(f"{stem}: {timing}")
    return 0


def cmd_run(args):
    if args.threads < 1:
        raise ParameterError(f"--threads must be >= 1, got {args.threads}")
    inputs = []
    for item in args.inputs:
        if os.path.isdir(item):
            inputs.extend(
                os.path.join(item, f) for f in sorted(os.listdir(item)) if f.endswith(".ppm")
            )
        else:
            inputs.append(item)
    if not inputs:
        _fail("read-input", args.inputs[0], "no .ppm inputs found")
    deglow, dehaze, cfg = _load_models(args)
    _make_out_dir(args.out)
    if args.threads > 1 and len(inputs) > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            list(pool.map(lambda p: _run_one(p, args.out, deglow, dehaze, cfg, args), inputs))
    else:
        for path in inputs:
            _run_one(path, args.out, deglow, dehaze, cfg, args)
    return 0


def cmd_recover(args):
    from .atmospherics import recover_radiance

    try:
        blob = np.load(args.intermediates)
    except (OSError, ValueError) as e:
        _fail("read-intermediates", args.intermediates, e)
    missing = SIDECAR_KEYS - set(getattr(blob, "files", ()))
    if missing:
        _fail("read-intermediates", args.intermediates, f"missing {sorted(missing)}")
    try:
        t_min = float(blob["t_min"])
    except (TypeError, ValueError) as e:
        _fail("read-intermediates", args.intermediates, f"t_min: {e}")
    try:
        radiance = recover_radiance(blob["deglowed"], blob["transmission"], blob["light"], t_min)
    except NightDehazeError as e:
        _fail("recover", args.intermediates, e)
    stem = os.path.basename(args.intermediates).replace(".stages.npz", "")
    _make_out_dir(args.out)
    out_path = os.path.join(args.out, f"{stem}.out.ppm")
    try:
        write_ppm(out_path, radiance)
    except OSError as e:
        _fail("write-output", out_path, e)
    print(f"wrote {out_path}")
    return 0


def _stem_map(directory):
    try:
        names = sorted(os.listdir(directory))
    except OSError as e:
        _fail("eval", directory, e)
    out = {}
    for f in names:
        if not f.endswith(".ppm"):
            continue
        stem = f[: -len(".ppm")]
        if stem.endswith(".out"):
            stem = stem[: -len(".out")]
        out[stem] = os.path.join(directory, f)
    return out


def cmd_eval(args):
    preds = _stem_map(args.pred)
    truths = _stem_map(args.truth)
    shared = sorted(set(preds) & set(truths))
    if not shared:
        _fail("eval", args.pred, "no matching image stems between --pred and --truth")
    pairs = []
    for stem in shared:
        try:
            pairs.append((stem, read_ppm(preds[stem]), read_ppm(truths[stem])))
        except (OSError, NightDehazeError) as e:
            _fail("eval", preds[stem], e)
    report = metrics.evaluate_pairs(pairs)
    text = metrics.format_report(report)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as e:
            _fail("write-output", args.out, e)
    print(text, end="")
    return 0


def cmd_gradcheck(args):
    results = run_gradient_suite()
    worst = 0.0
    for name, err in results:
        print(f"{name}: max rel error {err:.3e}")
        worst = np.maximum(worst, err)  # a NaN case stays NaN and fails
    ok = worst <= TOLERANCE
    tolerance = np.format_float_scientific(TOLERANCE, trim="-", exp_digits=1)
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (worst {worst:.3e}, tolerance {tolerance})")
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth": cmd_synth,
        "train-deglow": lambda a: _cmd_train(a, "deglow"),
        "train-dehaze": lambda a: _cmd_train(a, "dehaze"),
        "run": cmd_run,
        "recover": cmd_recover,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except StageFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NightDehazeError as e:
        print(f"error: stage={args.command} file=-: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
