"""Small shared helpers: config hashing, the config codec, key=value files
and the tensor file envelope."""

from __future__ import annotations

import difflib
import functools
import hashlib
import json
import os
import struct
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

__all__ = ["config_hash", "to_kv", "from_kv", "write_kv", "read_kv",
           "write_tensor_file", "read_tensor_file"]

_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def config_hash(mapping: dict) -> str:
    """Stable 16-hex-digit digest over a flat mapping."""
    lines = [f"{k}={mapping[k]}" for k in sorted(mapping)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


# get_type_hints evaluates the string annotations on every call; the config
# classes are few, so resolve each once
_type_hints = functools.cache(get_type_hints)


def _prefix(f) -> str:
    return f.metadata.get("prefix", f"{f.name}_")


def _leaves(cfg, prefix: str = ""):
    """Yield ``(key, value, type)`` for every scalar field of a config dataclass.

    A nested dataclass field contributes its own fields under the prefix in
    its ``metadata["prefix"]``, by default the field name plus ``_``.
    """
    hints = _type_hints(type(cfg))
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from _leaves(value, prefix + _prefix(f))
        else:
            yield prefix + f.name, value, hints[f.name]


def to_kv(cfg) -> dict:
    """Flatten a config dataclass into ``{key: value}`` in field order."""
    return {key: value for key, value, _ in _leaves(cfg)}


def _parse(key: str, text, hint):
    text = str(text).strip()
    args = get_args(hint)
    if type(None) in args:  # an optional field: ``none`` or empty is None
        if text.lower() in ("none", ""):
            return None
        (hint,) = [a for a in args if a is not type(None)]
    if hint is bool:
        if text.lower() not in _BOOLS:
            raise ValueError(f"config key {key!r}: expected one of "
                             f"{'/'.join(_BOOLS)}, got {text!r}")
        return _BOOLS[text.lower()]
    try:
        return hint(text)
    except ValueError:
        raise ValueError(f"config key {key!r}: expected {hint.__name__}, "
                         f"got {text!r}") from None


def _rebuild(cfg, values: dict, prefix: str = ""):
    changes, given = {}, []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            changes[f.name] = _rebuild(value, values, prefix + _prefix(f))
        elif prefix + f.name in values:
            changes[f.name] = values[prefix + f.name]
            given.append(prefix + f.name)
    try:
        return replace(cfg, **changes)
    except ValueError as exc:  # the config's own validation
        raise ValueError(
            f"config key {', '.join(map(repr, given))}: {exc}") from None


def from_kv(base, kv: dict):
    """Return ``base`` with the ``key = value`` strings of ``kv`` applied.

    Raises ValueError naming the key for an unknown key (with the closest
    valid key), an unparsable value or a value the config rejects.
    """
    types = {key: hint for key, _, hint in _leaves(base)}
    for key in kv:
        if key not in types:
            close = difflib.get_close_matches(key, types, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(f"unknown config key {key!r}{hint}")
    return _rebuild(base, {k: _parse(k, v, types[k]) for k, v in kv.items()})


def write_kv(path, mapping: dict) -> None:
    """Write a mapping as ``key = value`` lines."""
    text = "".join(f"{k} = {mapping[k]}\n" for k in mapping)
    Path(path).write_text(text, encoding="utf-8")


def read_kv(path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored,
    and a key set on two lines is an error that names both."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if first_line.setdefault(key, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on line "
                             f"{first_line[key]}")
        out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# tensor files: magic, uint32 header length, JSON header, float32 payload


def write_tensor_file(path, magic: bytes, header: dict,
                      tensors: dict[str, np.ndarray]) -> None:
    """Write ``magic``, the sorted-key JSON ``header`` and ``tensors`` as
    little-endian float32.

    The header gains a ``"tensors"`` table, ``{name: {"shape", "offset",
    "count"}}`` with offsets counted in floats from the start of the
    payload. The bytes go to a temp file next to ``path`` that then replaces
    it, so a failed write leaves the previous file as it was.
    """
    path = Path(path)
    arrays = {name: np.asarray(arr, dtype=np.float32)
              for name, arr in tensors.items()}
    table, offset = {}, 0
    for name, arr in arrays.items():
        table[name] = {"shape": list(arr.shape), "offset": offset,
                       "count": int(arr.size)}
        offset += arr.size
    head = json.dumps({**header, "tensors": table}, sort_keys=True).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", len(head)))
            fh.write(head)
            for arr in arrays.values():
                fh.write(arr.astype("<f4", copy=False).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_tensor_file(path, magic: bytes, what: str, error: type[Exception]
                     ) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by ``write_tensor_file``: (header, name -> array).

    The returned header no longer holds the ``"tensors"`` table. The payload
    is read once into one aligned, writable float32 array, and each tensor
    is a view of its own range of it, so no two tensors share memory. Raises
    ``error`` naming ``path`` when the magic is not ``magic`` (the file is
    not a ``what``, or an older layout of one), when the header is cut short,
    unreadable or not a JSON object with a tensor table, when a table entry
    is malformed, when the payload ends before a tensor does, or when two
    tensors' ranges overlap.
    """
    with Path(path).open("rb") as fh:
        head = fh.read(len(magic) + 4)
        if head[:len(magic)] != magic:
            raise error(f"{path}: not a {what} (starts with {head[:len(magic)]!r}, "
                        f"expected {magic!r})")
        if len(head) < len(magic) + 4:
            raise error(f"{path}: truncated header")
        (mlen,) = struct.unpack_from("<I", head, len(magic))
        raw = fh.read(mlen)
        if len(raw) < mlen:
            raise error(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise error(f"{path}: unreadable header ({exc})") from None
        table = header.pop("tensors", None) if isinstance(header, dict) else None
        if not isinstance(table, dict):
            raise error(f"{path}: header is not a JSON object with a tensor table")
        # the payload starts at len(magic) + 4 + mlen, rarely a multiple of 4:
        # reading it into a fresh array keeps the floats aligned
        payload = np.empty((os.fstat(fh.fileno()).st_size - fh.tell()) // 4,
                           dtype="<f4")
        payload = payload[:fh.readinto(payload) // 4]
    tensors = {}
    for name, entry in table.items():
        try:
            begin, count, shape = entry["offset"], entry["count"], entry["shape"]
            if min(begin, count) < 0:  # a negative offset reads from the end
                raise ValueError("negative offset or count")
            if begin + count <= payload.size:
                tensors[name] = payload[begin:begin + count].reshape(shape)
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"{path}: malformed header entry for {name!r} "
                        f"({type(exc).__name__}: {exc})") from None
        if name not in tensors:
            raise error(f"{path}: truncated payload for {name!r}")
    spans = sorted((e["offset"], e["offset"] + e["count"], name)
                   for name, e in table.items())
    for (_, end, name), (begin, _, other) in zip(spans, spans[1:]):
        if begin < end:
            raise error(f"{path}: ranges of {name!r} and {other!r} overlap")
    return header, tensors
