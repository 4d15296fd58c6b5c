"""Binary PPM (P6) / PGM (P5) read and write.

Color layers are stored as 8-bit P6, single-channel layers (transmission,
depth, masks) as 16-bit P5 so that quantization stays below 2e-5.
All arrays are float in [0, 1]; H x W x 3 for color, H x W for gray.
"""

import numpy as np

from .errors import DataError, DimensionError


def write_ppm(path, image):
    """Write an H x W x 3 float image in [0,1] as binary P6, maxval 255."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DimensionError(f"expected H x W x 3 image, got shape {image.shape}")
    data = np.rint(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(data.tobytes())


def read_ppm(path):
    """Read a binary P6 file into an H x W x 3 float array in [0,1]."""
    w, h, _, raw = _read_pnm(path, b"P6", (255,), channels=3)
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3)
    return data.reshape(h, w, 3).astype(np.float64) / 255.0


def write_pgm(path, image):
    """Write an H x W float image in [0,1] as binary P5, maxval 65535."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise DimensionError(f"expected H x W image, got shape {image.shape}")
    data = np.rint(np.clip(image, 0.0, 1.0) * 65535.0).astype(">u2")
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n65535\n" % (w, h))
        f.write(data.tobytes())


def read_pgm(path):
    """Read a binary P5 file (maxval 255 or 65535) into an H x W float array in [0,1]."""
    w, h, maxval, raw = _read_pnm(path, b"P5", (255, 65535), channels=1)
    dtype = ">u2" if maxval == 65535 else np.uint8
    data = np.frombuffer(raw, dtype=dtype, count=w * h).astype(np.float64)
    return data.reshape(h, w) / maxval


def _read_pnm(path, magic, maxvals, channels):
    """Parse and check a binary PNM header; returns (w, h, maxval, body)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] != magic:
        found = blob[:2].decode("latin-1")
        raise DataError(f"{path}: expected {magic.decode()}, found {found!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        # skip whitespace and '#' comments between header tokens
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated header")
        token = blob[start:pos]
        if not token.isdigit() or len(token) > 9:
            value = token.decode("latin-1")
            raise DataError(f"{path}: header value {value!r} is not an integer in 0..999999999")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if maxval not in maxvals:
        raise DataError(f"{path}: unsupported maxval {maxval} for {magic.decode()}")
    body = w * h * channels * (2 if maxval > 255 else 1)
    if len(blob) - pos < body:
        have = max(len(blob) - pos, 0)
        raise DataError(f"{path}: truncated body, {have} of {body} bytes")
    return w, h, maxval, blob[pos:]


def bilinear_resize(image, height, width):
    """Bilinear resample to (height, width); works for H x W and H x W x C."""
    image = np.asarray(image, dtype=np.float64)
    h, w = image.shape[:2]
    if (h, w) == (height, width):
        return image.copy()
    # align pixel centers
    ys = (np.arange(height) + 0.5) * h / height - 0.5
    xs = (np.arange(width) + 0.5) * w / width - 0.5
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)
    fx = np.clip(xs - x0, 0.0, 1.0)
    if image.ndim == 3:
        fy = fy[:, None, None]
        fx = fx[None, :, None]
    else:
        fy = fy[:, None]
        fx = fx[None, :]
    top = image[y0][:, x0] * (1 - fx) + image[y0][:, x1] * fx
    bot = image[y1][:, x0] * (1 - fx) + image[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy
