"""Binary container format shared by model files and the feature cache.

Layout (all integers little-endian):

    magic   4 bytes  b"EMVX"
    version u32      format revision (currently 1)
    kind    u32 len + utf-8 bytes      ("tv", "xvector", "svm", "feature")
    meta    u32 len + utf-8 JSON object (strings / numbers / bools / lists)
    count   u32      number of array sections
    per section:
        name  u32 len + utf-8 bytes
        ndim  u32
        shape u64 * ndim
        data  float64 little-endian, C order

Every array round-trips bit-exactly.  Writes go to a temp file in the target
directory followed by os.replace, so readers never observe partial files.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelFormatError
from .svm import BinarySvm, MulticlassSvm, Standardizer

if TYPE_CHECKING:
    from .embeddings import TotalVariabilityModel, XVectorWeights

MAGIC = b"EMVX"
FORMAT_VERSION = 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _U32.pack(len(raw)) + raw


class _Reader:
    """Sequential reads from an open container file.

    Each array section is read straight into its own float64 array, so the
    file's bytes are held once and every array is aligned; a section to be
    held as float32 is rounded before the next one is read.  Every byte read
    is also fed to ``digest`` (a ``hashlib`` object) when one is given.
    """

    def __init__(self, fh, path, digest):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.path = path
        self.digest = digest

    def _consume(self, n: int, got: int) -> None:
        if got != n:   # the file shrank while it was read
            raise ModelFormatError(f"{self.path}: truncated container")
        self.left -= n

    def _check(self, n: int) -> None:
        if n > self.left:
            raise ModelFormatError(f"{self.path}: truncated container")

    def take(self, n: int) -> bytes:
        self._check(n)
        out = self.fh.read(n)
        self._consume(n, len(out))
        if self.digest is not None:
            self.digest.update(out)
        return out

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def string(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{self.path}: undecodable string ({exc})")

    def array(self, name: str, float32: bool) -> np.ndarray:
        """The next section as a read-only array that owns its data: float32
        if ``float32``, where a finite value beyond its range is a
        ``ModelFormatError``, else float64."""
        ndim = self.u32()
        if ndim > 8:
            raise ModelFormatError(f"{self.path}: implausible array rank {ndim}")
        shape = tuple(self.u64() for _ in range(ndim))
        n = math.prod(shape) * 8
        self._check(n)
        try:
            out = np.empty(shape, dtype="<f8")
        except (ValueError, OverflowError) as exc:
            raise ModelFormatError(f"{self.path}: array shape {shape} ({exc})")
        self._consume(n, self.fh.readinto(out))
        if self.digest is not None:
            self.digest.update(out)
        if float32:
            with np.errstate(over="ignore"):
                rounded = out.astype("<f4")
            if np.any(np.isinf(rounded) & np.isfinite(out)):
                raise ModelFormatError(f"{self.path}: section {name!r} has values "
                                       "beyond the float32 range")
            out = rounded
        out.setflags(write=False)
        return out


def write_container(path, kind: str, arrays: dict, meta: dict | None = None) -> None:
    """Serialize named float64 arrays plus JSON metadata, atomically.

    The header and then each section go straight to a temp file, so at most
    one section is converted to float64 at a time and the file's bytes are
    never joined in memory.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".emvx-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC + _U32.pack(FORMAT_VERSION) + _pack_str(kind)
                     + _pack_str(json.dumps(meta or {}, sort_keys=True))
                     + _U32.pack(len(arrays)))
            for name, arr in arrays.items():
                a = np.ascontiguousarray(arr, dtype="<f8")
                fh.write(_pack_str(name) + _U32.pack(a.ndim)
                         + b"".join(_U64.pack(d) for d in a.shape))
                fh.write(a)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_container(path, expected_kind: str | None = None, digest=None,
                   float32=frozenset()):
    """Return (kind, arrays dict, meta dict); validates magic/version/kind.

    The file is opened and read once.  Arrays are read-only and hold the
    file's section bytes without a second copy; each section named in
    ``float32`` is rounded to float32 as it is read, so at most one of them
    is held in float64.  ``digest``, a ``hashlib`` object, is fed
    every byte read, so it names exactly the bytes that were parsed even if
    the file is replaced right after.
    """
    try:
        with open(path, "rb") as fh:
            return _parse(_Reader(fh, path, digest), path, expected_kind, float32)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ModelFormatError(f"{path}: {exc}")


def _parse(r: _Reader, path, expected_kind, float32):
    if r.take(4) != MAGIC:
        raise ModelFormatError(f"{path}: not an EMVX container")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unsupported format version {version}")
    kind = r.string()
    if expected_kind is not None and kind != expected_kind:
        raise ModelFormatError(
            f"{path}: expected a {expected_kind!r} file, found {kind!r}")
    try:
        meta = json.loads(r.string())
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad metadata block ({exc})")
    if not isinstance(meta, dict):
        raise ModelFormatError(f"{path}: metadata is not a JSON object")
    arrays = {}
    for _ in range(r.u32()):
        name = r.string()
        arrays[name] = r.array(name, name in float32)
    if r.left:
        raise ModelFormatError(f"{path}: trailing bytes after last section")
    return kind, arrays, meta


# ---------------------------------------------------------------------------
# model-specific wrappers
# ---------------------------------------------------------------------------


def save_tv(path, tv: TotalVariabilityModel) -> None:
    write_container(path, "tv", {
        "t_matrix": tv.t_matrix,
        "objectives": np.asarray(tv.objectives, dtype=np.float64),
        "ubm.weights": tv.ubm.weights,
        "ubm.means": tv.ubm.means,
        "ubm.variances": tv.ubm.variances,
    }, meta={"rank": tv.rank})


def load_tv(path, digest=None) -> TotalVariabilityModel:
    """The model in a "tv" file; ``digest`` is fed its bytes (``read_container``)."""
    from .embeddings import GmmUbm, TotalVariabilityModel

    _, arrays, meta = read_container(path, "tv", digest)
    try:
        ubm = GmmUbm(arrays["ubm.weights"], arrays["ubm.means"],
                     arrays["ubm.variances"])
        return TotalVariabilityModel(
            arrays["t_matrix"], ubm, int(meta["rank"]),
            tuple(arrays.get("objectives", np.zeros(0)).tolist()))
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing section {exc}")
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: {exc}")


def save_xvector(path, weights: XVectorWeights) -> None:
    """Write every layer as float64; the frame layers hold float32 values
    (``XVectorWeights``), so a re-saved float64 file can change bytes."""
    arrays = {}
    for name, (w, b) in weights.layers.items():
        arrays[name + ".w"] = w
        arrays[name + ".b"] = b
    write_container(path, "xvector", arrays)


def load_xvector(path, digest=None) -> XVectorWeights:
    """The weights in an "xvector" file; ``digest`` is fed its bytes
    (``read_container``).  The frame layers are rounded to float32 as they
    are read, and the weights keep the read-only arrays read."""
    from .embeddings.xvector import _FRAME_LAYERS, XVectorWeights

    frame_sections = {name + part for name in _FRAME_LAYERS for part in (".w", ".b")}
    _, arrays, _ = read_container(path, "xvector", digest, frame_sections)
    layers = {}
    for key, arr in arrays.items():
        if key.endswith(".w"):
            name = key[:-2]
            if name + ".b" not in arrays:
                raise ModelFormatError(f"{path}: layer {name!r} missing bias")
            layers[name] = (arr, arrays[name + ".b"])
    try:
        return XVectorWeights(layers)
    except (ValueError, ModelFormatError) as exc:
        raise ModelFormatError(f"{path}: {exc}")


def save_svm(path, model: MulticlassSvm, scheme: str = "",
             feature_dim: int | None = None) -> None:
    machine_meta = []
    arrays = {
        "standardizer.mean": model.standardizer.mean,
        "standardizer.std": model.standardizer.std,
    }
    for i, ((a, b), svm) in enumerate(sorted(model.machines.items())):
        machine_meta.append({"a": a, "b": b, "bias": svm.bias,
                             "converged": bool(svm.converged)})
        arrays[f"machine{i}.support_vectors"] = svm.support_vectors
        arrays[f"machine{i}.dual_coef"] = svm.dual_coef
        if svm.alphas is not None:
            arrays[f"machine{i}.alphas"] = svm.alphas
    meta = {
        "classes": list(model.classes),
        "c": model.c,
        "gamma": model.gamma,
        "scheme": scheme,
        "feature_dim": feature_dim if feature_dim is not None
        else int(model.standardizer.mean.size),
        "machines": machine_meta,
    }
    write_container(path, "svm", arrays, meta)


def load_svm(path):
    """Return (MulticlassSvm, meta dict with scheme / feature_dim)."""
    _, arrays, meta = read_container(path, "svm")
    try:
        standardizer = Standardizer(arrays["standardizer.mean"],
                                    arrays["standardizer.std"])
        machines = {}
        for i, m in enumerate(meta["machines"]):
            alphas = arrays.get(f"machine{i}.alphas")
            machines[(str(m["a"]), str(m["b"]))] = BinarySvm(
                arrays[f"machine{i}.support_vectors"],
                arrays[f"machine{i}.dual_coef"],
                float(m["bias"]), float(meta["c"]), float(meta["gamma"]),
                converged=bool(m["converged"]), alphas=alphas)
        model = MulticlassSvm(
            tuple(str(c) for c in meta["classes"]), machines, standardizer,
            float(meta["c"]), float(meta["gamma"]))
        if meta["feature_dim"] != standardizer.mean.size:
            raise ValueError("feature_dim %r does not match the standardizer width %d"
                             % (meta["feature_dim"], standardizer.mean.size))
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing section {exc}")
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: {exc}")
    return model, meta
