"""Synthetic training-data generation from clean image + depth pairs.

Each record composes haze from a sampled scattering coefficient and
atmospheric light, adds rendered glow streaks from randomly placed light
sources, and persists the observed image together with all ground-truth
layers.  Generation is deterministic: every record derives its own RNG
stream from the master seed, so parallel and serial builds agree.
"""

import os
from dataclasses import dataclass

import numpy as np

from .atmospherics import GlowField, GlowSource, compose_glow, compose_haze, transmission_from_depth
from .errors import DataError, ParameterError, check_fields, ranged
from .imageio import bilinear_resize, write_pgm, write_ppm

GLOW_MASK_THRESHOLD = 0.02
LAYER_KEYS = ("observed", "haze", "transmission", "glow_mask", "streak_sum")


@dataclass
class SynthesisConfig:
    beta_range: tuple = ranged((0.5, 1.5), "(0, inf)")
    beta_samples_per_image: int = ranged(3, "[1, inf)")
    q_range: tuple = ranged((0.2, 0.9), "(0, inf)")
    q_samples_per_image: int = ranged(3, "[1, inf)")
    light_range: tuple = ranged((0.5, 1.0), "[0, 1]")
    target_size: tuple = ranged((320, 240), "[16, inf)")  # (width, height)
    use_taylor_glow: bool = False
    sources_per_image_range: tuple = ranged((1, 5), "[0, inf)")
    glow_radius_range: tuple = ranged((10.0, 60.0), "(0, inf)")
    rng_seed: int = ranged(0, "[0, inf)")
    __post_init__ = check_fields


@dataclass
class DatasetRecord:
    id: str
    paths: dict  # keys: observed, haze, transmission, glow_mask, streak_sum
    beta: float
    q: float
    light: tuple
    source_positions: list


def sample_scene_params(rng, config):
    """Draw (beta, q, light) uniformly from the configured ranges; light is gray."""
    beta = rng.uniform(*config.beta_range)
    q = rng.uniform(*config.q_range)
    level = rng.uniform(*config.light_range)
    return beta, q, np.array([level, level, level])


def glow_attenuation(q, d, use_taylor=False):
    """Radial glow falloff exp(-q*d), or its first-order form max(0, 1 - q*d)."""
    if use_taylor:
        return np.maximum(0.0, 1.0 - q * np.asarray(d, dtype=np.float64))
    return np.exp(-q * np.asarray(d, dtype=np.float64))


def render_glow_field(size, sources, q, config):
    """Render isotropic streak layers and the binary glow-region mask.

    size is (height, width).  Each source contributes
    peak_color * attenuation(q, ||x - pos|| / radius); the mask is 1 wherever
    the summed streak intensity (mean over RGB) exceeds the threshold.
    """
    h, w = size
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    streaks = []
    for src in sources:
        r, c = src.position
        if not (0 <= r < h and 0 <= c < w):
            raise ParameterError(f"glow source at {src.position} outside {h}x{w} image")
        d = np.hypot(ys - r, xs - c) / src.radius
        atten = glow_attenuation(q, d, config.use_taylor_glow)
        color = np.asarray(src.peak_color, dtype=np.float64).reshape(1, 1, 3)
        streaks.append(atten[:, :, None] * color)
    if streaks:
        total_intensity = np.sum(streaks, axis=0).mean(axis=2)
        mask = (total_intensity > GLOW_MASK_THRESHOLD).astype(np.float64)
    else:
        mask = np.zeros((h, w))
    return GlowField(streaks=streaks, mask=mask)


def sample_glow_sources(rng, size, q, config):
    """Place a random number of warm-biased light sources inside the image.

    The placement does not depend on q, which render_glow_field applies; the
    argument stays so existing callers keep their signature.
    """
    h, w = size
    lo, hi = config.sources_per_image_range
    n = int(rng.integers(lo, hi + 1))
    sources = []
    for _ in range(n):
        r = int(rng.integers(0, h))
        c = int(rng.integers(0, w))
        brightness = rng.uniform(0.6, 1.0)
        # warm/white bias: green and blue attenuated relative to red
        color = (
            brightness,
            brightness * rng.uniform(0.7, 1.0),
            brightness * rng.uniform(0.4, 1.0),
        )
        radius = rng.uniform(*config.glow_radius_range)
        sources.append(GlowSource(position=(r, c), peak_color=color, radius=radius))
    return sources


def synthesize_example(clean, depth, beta, q, light, sources, config):
    """Compose one training tuple (I, J, t, glow) from a clean/depth pair."""
    clean = np.asarray(clean, dtype=np.float64)
    depth = np.asarray(depth, dtype=np.float64)
    if clean.shape[:2] != depth.shape:
        raise DataError(f"clean {clean.shape[:2]} and depth {depth.shape} sizes differ")
    t = transmission_from_depth(depth, beta)
    haze = compose_haze(clean, t, light)
    glow = render_glow_field(depth.shape, sources, q, config)
    observed = compose_glow(haze, glow)
    return observed, haze, t, glow


def procedural_scene(rng, size):
    """Desk-scale stand-in for a captured clean/depth pair.

    Clean image: a few random low-frequency cosine color waves.
    Depth: a planar ramp plus random ellipsoid bumps, normalized to [0, 1].
    size is (height, width).
    """
    h, w = size
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    yn, xn = ys / h, xs / w
    clean = np.zeros((h, w, 3))
    for ch in range(3):
        img = rng.uniform(0.3, 0.7)
        for _ in range(3):
            fy, fx = rng.uniform(0.5, 4.0, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            amp = rng.uniform(0.05, 0.2)
            img = img + amp * np.cos(2 * np.pi * (fy * yn + fx * xn) + phase)
        clean[:, :, ch] = img
    clean = np.clip(clean, 0.0, 1.0)

    gx, gy = rng.uniform(-1.0, 1.0, size=2)
    depth = 0.5 + gx * (xn - 0.5) + gy * (yn - 0.5)
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        ry, rx = rng.uniform(0.05, 0.3, size=2)
        bump = 1.0 - ((yn - cy) / ry) ** 2 - ((xn - cx) / rx) ** 2
        depth = depth - rng.uniform(0.1, 0.4) * np.sqrt(np.maximum(bump, 0.0))
    lo, hi = depth.min(), depth.max()
    depth = (depth - lo) / max(hi - lo, 1e-9)
    return clean, depth


def build_dataset(clean_depth_pairs, config, out_dir):
    """Build (pairs x beta_samples x q_samples) records and a manifest.

    Returns (records, manifest_path).  Each record draws from its own RNG
    stream seeded by (rng_seed, record_index), so the build is byte-identical
    for a fixed seed regardless of evaluation order.
    """
    pairs = list(clean_depth_pairs)
    if not pairs:
        raise ParameterError("need at least one clean/depth pair")
    os.makedirs(out_dir, exist_ok=True)
    width, height = config.target_size
    records = []
    rec_index = 0
    for pair_idx, (clean, depth) in enumerate(pairs):
        clean = np.asarray(clean, dtype=np.float64)
        depth = np.asarray(depth, dtype=np.float64)
        if not (np.all(np.isfinite(clean)) and np.all(np.isfinite(depth))):
            raise DataError(f"pair {pair_idx}: non-finite input data")
        clean = np.clip(bilinear_resize(clean, height, width), 0.0, 1.0)
        depth = np.clip(bilinear_resize(depth, height, width), 0.0, 1.0)
        for _ in range(config.beta_samples_per_image):
            for _ in range(config.q_samples_per_image):
                rng = np.random.default_rng((config.rng_seed, rec_index))
                beta, q, light = sample_scene_params(rng, config)
                sources = sample_glow_sources(rng, (height, width), q, config)
                observed, haze, t, glow = synthesize_example(
                    clean, depth, beta, q, light, sources, config
                )
                rec_id = f"rec_{rec_index:06d}"
                paths = {
                    "observed": f"{rec_id}.observed.ppm",
                    "haze": f"{rec_id}.haze.ppm",
                    "transmission": f"{rec_id}.trans.pgm",
                    "glow_mask": f"{rec_id}.mask.pgm",
                    "streak_sum": f"{rec_id}.streak.ppm",
                }
                write_ppm(os.path.join(out_dir, paths["observed"]), observed)
                write_ppm(os.path.join(out_dir, paths["haze"]), haze)
                write_pgm(os.path.join(out_dir, paths["transmission"]), t)
                write_pgm(os.path.join(out_dir, paths["glow_mask"]), glow.mask)
                write_ppm(
                    os.path.join(out_dir, paths["streak_sum"]),
                    np.clip(glow.streak_sum(), 0.0, 1.0),
                )
                records.append(
                    DatasetRecord(
                        id=rec_id,
                        paths=paths,
                        beta=beta,
                        q=q,
                        light=tuple(light),
                        source_positions=[s.position for s in sources],
                    )
                )
                rec_index += 1
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(format_manifest_line(rec) + "\n")
    return records, manifest_path


def format_manifest_line(rec):
    """One record as flat key=value fields on a single line."""
    fields = [f"id={rec.id}"]
    for key in LAYER_KEYS:
        fields.append(f"{key}={rec.paths[key]}")
    fields.append(f"beta={rec.beta:.17g}")
    fields.append(f"q={rec.q:.17g}")
    fields.append("light=" + ",".join(f"{v:.17g}" for v in rec.light))
    fields.append(
        "sources=" + ";".join(f"{r},{c}" for r, c in rec.source_positions)
    )
    return " ".join(fields)


def parse_manifest(path):
    """Read a manifest back into DatasetRecord objects (paths stay relative).

    Text that is not UTF-8 raises DataError naming the manifest, and a
    malformed line one naming the manifest and line number."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e
    records = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        where = f"{path} line {number}"
        if "\0" in line:
            raise DataError(f"{where}: holds a NUL character")
        tokens = line.split(" ")
        bad = next((token for token in tokens if "=" not in token), None)
        if bad is not None:
            raise DataError(f"{where}: expected key=value, got {bad!r}")
        kv = dict(token.split("=", 1) for token in tokens)
        for key in ("id", *LAYER_KEYS, "beta", "q", "light"):
            if key not in kv:
                raise DataError(f"{where}: missing key '{key}'")
        try:
            positions = []
            if kv.get("sources"):
                for part in kv["sources"].split(";"):
                    r, c = part.split(",")
                    positions.append((int(r), int(c)))
            record = DatasetRecord(
                id=kv["id"],
                paths={k: kv[k] for k in LAYER_KEYS},
                beta=float(kv["beta"]),
                q=float(kv["q"]),
                light=tuple(float(v) for v in kv["light"].split(",")),
                source_positions=positions,
            )
        except ValueError as e:
            raise DataError(f"{where}: {e}") from e
        records.append(record)
    return records
