"""Run (de)serialisation: persist runs and checkpoint payloads.

* **History JSON** — the run cache and downstream notebooks use this to
  keep raw run records next to rendered tables;
* **payloads** — :func:`encode_payload` / :func:`decode_payload`, a
  lossless JSON-safe encoding of nested arrays, tuples and dicts, which
  checkpoints store algorithm state in.  Arrays are encoded as base64 raw
  bytes with dtype and shape, so decoding is bit-exact.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .history import History, RoundRecord

__all__ = ["history_to_dict", "history_from_dict", "save_history",
           "load_history", "encode_payload", "decode_payload",
           "atomic_write_text"]


#: extras keys that carry measured wall-clock (nondeterministic) values —
#: ``client_timings`` comes from :mod:`repro.fl.executor` timing — and are
#: therefore stripped at serialisation time.  Keeping them out of the JSON
#: form is what makes ``History.to_json()`` byte-identical across executors,
#: worker counts and telemetry on/off (the determinism contract pinned by
#: ``tests/test_parallel_exec.py`` and ``tests/test_telemetry.py``).
VOLATILE_EXTRA_KEYS = frozenset({"client_timings"})

#: dataclass *fields* (as opposed to extras keys) that are deliberately
#: dropped from the serialised form, keyed by payload class name.  Empty
#: today: every field of RoundRecord/History round-trips.
#: ``tests/test_contracts.py`` round-trips every other field, so a field
#: can only be dropped by naming it here — never by accident.
VOLATILE_FIELDS: dict[str, frozenset] = {}


def _serialisable_extras(extras: dict) -> dict:
    if VOLATILE_EXTRA_KEYS.isdisjoint(extras):
        return extras
    return {k: v for k, v in extras.items() if k not in VOLATILE_EXTRA_KEYS}


def history_to_dict(history: History) -> dict:
    return {
        "algorithm": history.algorithm,
        "dataset": history.dataset,
        "final_device_accuracies": list(history.final_device_accuracies),
        "records": [
            {"round_index": r.round_index, "sim_time_s": r.sim_time_s,
             "round_time_s": r.round_time_s, "train_loss": r.train_loss,
             "global_accuracy": r.global_accuracy,
             "extras": _serialisable_extras(r.extras),
             "events": r.events}
            for r in history.records
        ],
    }


def history_from_dict(payload: dict) -> History:
    history = History(algorithm=payload["algorithm"],
                      dataset=payload["dataset"])
    for record in payload["records"]:
        history.append(RoundRecord(
            round_index=record["round_index"],
            sim_time_s=record["sim_time_s"],
            round_time_s=record["round_time_s"],
            train_loss=record["train_loss"],
            global_accuracy=record["global_accuracy"],
            extras=dict(record.get("extras", {})),
            events=list(record.get("events", []))))
    history.final_device_accuracies = list(
        payload.get("final_device_accuracies", []))
    return history


# ----------------------------------------------------------------------
# Client payload round-trips
# ----------------------------------------------------------------------

def _encode_array(array: np.ndarray) -> dict:
    # ``tobytes`` copies any layout out in C order; ``np.ascontiguousarray``
    # first would turn a 0-d array into shape (1,).
    return {"__ndarray__": {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }}


def _decode_array(payload: dict) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(payload["shape"]).copy()


def encode_payload(value):
    """Recursively encode an algorithm payload into JSON-safe form.

    Handles the structures every registered algorithm's uplink uses:
    numpy arrays (tagged, bit-exact), dicts of them (state dicts), tuples
    (tagged so they survive the round trip distinct from lists —
    ``ClientResult.payload`` for parameter averaging is a ``(values, key)``
    tuple whose key nests tuples), lists, scalars and ``None``.
    """
    if isinstance(value, np.ndarray):
        return _encode_array(value)
    if isinstance(value, tuple):
        return {"__tuple__": [encode_payload(v) for v in value]}
    if isinstance(value, dict):
        return {str(k): encode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [encode_payload(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode payload element of type {type(value)!r}")


def decode_payload(value):
    """Inverse of :func:`encode_payload`."""
    if isinstance(value, dict):
        if "__ndarray__" in value and len(value) == 1:
            return _decode_array(value["__ndarray__"])
        if "__tuple__" in value and len(value) == 1:
            return tuple(decode_payload(v) for v in value["__tuple__"])
        return {k: decode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_payload(v) for v in value]
    return value


def atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via a unique temp file + atomic rename.

    A crash mid-write leaves the previous file or the new one, never a torn
    one, and concurrent writers sharing a directory (parallel sweep cells,
    one run cache) never interleave bytes: each publishes a complete file
    and the last rename wins.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}-",
                                    suffix=".tmp")
    try:
        # mkstemp creates 0600; published files should get the usual
        # umask-governed mode so shared cache dirs stay shareable.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def save_history(history: History, path: str | Path) -> None:
    atomic_write_text(Path(path), json.dumps(history_to_dict(history),
                                             indent=1))


def load_history(path: str | Path) -> History:
    return history_from_dict(json.loads(Path(path).read_text()))
