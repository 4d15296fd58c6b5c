"""Binary checkpoint format.

Layout (all integers little-endian uint32):
    magic "NCKP" | version | param count |
    repeated: name length, name bytes (utf-8), rank, dims..., raw float32 data

Parameters are written in sorted-name order so identical parameter dicts
serialize to identical bytes.
"""

import struct

import numpy as np

from ..errors import CheckpointError

MAGIC = b"NCKP"
VERSION = 1


def save_checkpoint(path, params):
    """Write a dict of name -> float array as float32, bit-exact round trip."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", VERSION, len(params)))
        for name in sorted(params):
            data = np.ascontiguousarray(params[name], dtype=np.float32)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.astype("<f4").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back into a dict of name -> float32 array."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except (OSError, ValueError) as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    pos = 4
    try:
        version, count = struct.unpack_from("<II", blob, pos)
        pos += 8
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            n = int(np.prod(shape)) if rank else 1
            data = np.frombuffer(blob, dtype="<f4", count=n, offset=pos).reshape(shape)
            pos += 4 * n
            params[name] = data.astype(np.float32)
        if pos != len(blob):
            raise CheckpointError(f"{path}: trailing bytes after last record")
        return params
    except (struct.error, ValueError) as e:
        raise CheckpointError(f"{path}: truncated checkpoint: {e}") from e
