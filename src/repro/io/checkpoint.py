"""Checkpointing for dynamically reconfigured models.

A PruneTrain checkpoint is not just weights: the architecture itself changes
during training (channels removed, residual paths deactivated), so loading
requires replaying the recorded *structure* onto a freshly built model
before the weights fit.

Format version 2 additionally captures the **full training-run state** so a
killed run can resume *bit-exactly*: model architecture and optimizer state
co-evolve under PruneTrain (momentum is sliced in lock-step with channel
surgery, λ and the pruning threshold are derived at step 1, and the
mini-batch grows as pruning frees memory), so a lossy checkpoint cannot
reproduce an uninterrupted run's dynamics.  A v2 checkpoint stores:

- every parameter and buffer (the model's ``state_dict``),
- the per-space channel counts and the set of removed residual paths,
- optionally the optimizer's momentum buffers (keyed by parameter name)
  plus its hyperparameters,
- optionally a ``train_state`` dict (JSON-serializable) produced by the
  trainer: loader RNG stream + batch size, LR-schedule position (epoch
  counter), ``lr_scale``, derived λ / pruning threshold, cumulative FLOPs,
  the :class:`~repro.train.metrics.RunLog` so far, prune reports, ...
- optionally extra named arrays (``arrays``) for state that is naturally an
  ndarray (e.g. :class:`~repro.prune.tracker.ChannelTracker` history),
- a free-form ``extra`` dict.

Writes are **atomic**: the archive is written to a temporary sibling file
and moved into place with :func:`os.replace`, so a crash mid-write never
corrupts the previous checkpoint (at worst it leaves a ``*.tmp.npz`` file
behind, which loading and :func:`latest_checkpoint` ignore).

Version 1 checkpoints (weights + structure + momentum only) still load;
they simply carry no ``train_state``.

Loading builds the model with the caller's factory (original dense
architecture), deactivates recorded paths, slices every space down to the
recorded size, and then loads the arrays.  Channel identity inside a space
is irrelevant at that point — the weights come from the checkpoint.
"""

from __future__ import annotations

import io
import json
import os
import re
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn.graph import ModelGraph
from ..nn.layers import BatchNorm2d
from ..nn.module import Module
from ..optim.sgd import SGD
from ..prune.reconfigure import apply_space_masks

FORMAT_VERSION = 2
#: versions :func:`load_checkpoint` / :func:`restore_checkpoint` accept
SUPPORTED_VERSIONS = (1, 2)

#: filename pattern of periodic run checkpoints (see ``periodic_checkpoints``)
_CKPT_RE = re.compile(r"^ckpt-ep(\d+)\.npz$")


def _normalize(path: str) -> str:
    return path if path.endswith(".npz") else path + ".npz"


def _atomic_savez(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` atomically: temp sibling file + ``os.replace``."""
    path = _normalize(path)
    tmp = path + ".tmp.npz"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def _pack_blobs(model: Module, optimizer: Optional[SGD] = None,
                extra: Optional[Dict] = None,
                train_state: Optional[Dict] = None,
                arrays: Optional[Dict[str, np.ndarray]] = None
                ) -> Dict[str, np.ndarray]:
    """Build the checkpoint's named-array dict (shared by file and bytes
    serialization — one packing routine, two transports).

    Refuses a model with a folded batch-norm: its conv weights already carry
    the BN statistics, so the archive would not load back into the model it
    names."""
    for name, m in model.named_modules():
        if isinstance(m, BatchNorm2d) and m.folded:
            raise ValueError(
                f"cannot checkpoint a model whose batch-norm {name!r} is "
                f"folded into its conv; save the model before serving it")
    graph: ModelGraph = model.graph
    blobs: Dict[str, np.ndarray] = {}
    for name, arr in model.state_dict().items():
        blobs[f"state/{name}"] = arr
    if optimizer is not None:
        for name, p in model.named_parameters():
            buf = optimizer.state_for(p)
            if buf is not None:
                blobs[f"momentum/{name}"] = buf
    meta = {
        "format_version": FORMAT_VERSION,
        "space_sizes": {str(sid): sp.size
                        for sid, sp in graph.spaces.items()},
        "inactive_paths": [p.name for p in graph.paths.values()
                           if not getattr(p.block, "active", True)],
        "extra": extra or {},
    }
    if optimizer is not None:
        meta["optimizer"] = {"lr": optimizer.lr,
                             "momentum": optimizer.momentum,
                             "weight_decay": optimizer.weight_decay}
    if train_state is not None:
        meta["train_state"] = train_state
    blobs["meta.json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8)
    for key, arr in (arrays or {}).items():
        if key.startswith(("state/", "momentum/")) or key == "meta.json":
            raise ValueError(f"reserved checkpoint key {key!r}")
        blobs[key] = np.asarray(arr)
    return blobs


def save_checkpoint(path: str, model: Module,
                    optimizer: Optional[SGD] = None,
                    extra: Optional[Dict] = None,
                    train_state: Optional[Dict] = None,
                    arrays: Optional[Dict[str, np.ndarray]] = None) -> None:
    """Serialize model (+optimizer, +run state) to a single ``.npz`` file,
    atomically.

    ``train_state`` must be JSON-serializable (the trainers build it via
    :meth:`repro.train.Trainer.save_run_checkpoint`); ``arrays`` holds
    additional named ndarrays (keys must not collide with the reserved
    ``state/``, ``momentum/``, ``meta.json`` namespaces).
    """
    blobs = _pack_blobs(model, optimizer, extra, train_state, arrays)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    _atomic_savez(path, blobs)


def dumps_state(model: Module, optimizer: Optional[SGD] = None) -> bytes:
    """Serialize a checkpoint to bytes (same format as :func:`save_checkpoint`).

    This is the transport the elastic data-parallel engine uses to resync
    worker replicas after a pruning reconfiguration: the coordinator ships
    exactly a checkpoint — recorded structure plus every array — so a
    replica resync is bit-equivalent to a checkpoint round-trip.
    """
    buf = io.BytesIO()
    np.savez(buf, **_pack_blobs(model, optimizer))
    return buf.getvalue()


# -- loading ----------------------------------------------------------------

def _parse(data):
    meta = json.loads(bytes(data["meta.json"]).decode())
    if meta["format_version"] not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported checkpoint version "
                         f"{meta['format_version']}")
    return data, meta


def _read(path: str):
    return _parse(np.load(_normalize(path)))


def _replay_structure(model: Module, meta: Dict) -> None:
    """Replay recorded layer removal + channel pruning onto a dense model."""
    graph: ModelGraph = model.graph

    # 1. layer removal
    inactive = set(meta["inactive_paths"])
    for p in graph.paths.values():
        if p.name in inactive:
            p.remove()

    # 2. channel pruning (first-k masks; identity is arbitrary because the
    #    checkpoint supplies the weights)
    masks = {}
    for sid, sp in graph.spaces.items():
        size = int(meta["space_sizes"][str(sid)])
        keep = np.zeros(sp.size, dtype=bool)
        keep[:size] = True
        masks[sid] = keep
    apply_space_masks(model, masks)
    graph.validate()


def _load_model_arrays(model: Module, data) -> None:
    state = {key[len("state/"):]: data[key]
             for key in data.files if key.startswith("state/")}
    model.load_state_dict(state)


def _load_momentum(optimizer: SGD, model: Module, data) -> None:
    params = dict(model.named_parameters())
    for key in data.files:
        if key.startswith("momentum/"):
            name = key[len("momentum/"):]
            if name in params:
                optimizer.set_state_for(params[name], data[key])


def load_checkpoint(path: str, model_factory: Callable[[], Module],
                    with_optimizer: bool = False
                    ) -> Tuple[Module, Optional[SGD], Dict]:
    """Rebuild a (possibly pruned) model from a checkpoint.

    ``model_factory`` must construct the *original* architecture (same
    factory and arguments used before training).  Returns
    ``(model, optimizer_or_None, extra)``.  Accepts format versions 1 and 2.
    """
    data, meta = _read(path)
    model = model_factory()
    _replay_structure(model, meta)
    _load_model_arrays(model, data)

    optimizer = None
    if with_optimizer:
        if "optimizer" not in meta:
            raise ValueError("checkpoint has no optimizer state")
        cfg = meta["optimizer"]
        optimizer = SGD(model.parameters(), lr=cfg["lr"],
                        momentum=cfg["momentum"],
                        weight_decay=cfg["weight_decay"])
        _load_momentum(optimizer, model, data)
    return model, optimizer, meta["extra"]


def restore_checkpoint(path: str, model: Module,
                       optimizer: Optional[SGD] = None
                       ) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Restore a checkpoint **in place** into an existing model (+optimizer).

    This is the resume path: the trainer already owns a freshly built model
    (original dense architecture) and an optimizer attached to its
    parameters.  The recorded structure is replayed onto ``model`` (the
    parameter *objects* survive surgery, so the optimizer stays attached),
    the arrays are loaded, and the optimizer's hyperparameters + momentum
    buffers are restored with stale per-parameter state purged.

    Returns ``(meta, arrays)`` where ``meta`` is the full metadata dict
    (including ``"train_state"`` when present, i.e. format >= 2) and
    ``arrays`` maps every non-reserved array key (e.g. ``tracker/...``) to
    its ndarray.
    """
    return _restore_into(*_read(path), model, optimizer)


def loads_state(blob: bytes, model: Module,
                optimizer: Optional[SGD] = None
                ) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """In-place restore from bytes produced by :func:`dumps_state`.

    Identical semantics to :func:`restore_checkpoint`, minus the file.
    Structure replay is *monotone* (spaces only shrink, paths only
    deactivate under PruneTrain), so the target model may be either the
    original dense architecture or any earlier point of the same pruning
    trajectory — which is exactly the state of an elastic worker's replica
    at resync time.
    """
    return _restore_into(*_parse(np.load(io.BytesIO(blob))), model,
                         optimizer)


def _restore_into(data, meta: Dict, model: Module,
                  optimizer: Optional[SGD] = None
                  ) -> Tuple[Dict, Dict[str, np.ndarray]]:
    _replay_structure(model, meta)
    _load_model_arrays(model, data)
    if optimizer is not None:
        optimizer.sync_params(model.parameters())
        if "optimizer" in meta:
            cfg = meta["optimizer"]
            optimizer.lr = float(cfg["lr"])
            optimizer.momentum = float(cfg["momentum"])
            optimizer.weight_decay = float(cfg["weight_decay"])
        _load_momentum(optimizer, model, data)
    arrays = {key: data[key] for key in data.files
              if not key.startswith(("state/", "momentum/"))
              and key != "meta.json"}
    return meta, arrays


def read_meta(path: str) -> Dict:
    """Read a checkpoint's metadata dict without touching any model.

    The auto-resume pre-flight: every array is read too, so a file that
    does not parse or has a truncated member raises here, before a live
    trainer is mutated.
    """
    data, meta = _read(path)
    for key in data.files:
        data[key]
    return meta


def periodic_checkpoints(directory: str) -> List[str]:
    """Paths of the periodic checkpoints in ``directory``, newest first.

    Recognizes the trainers' ``ckpt-ep<NNNNN>.npz`` naming and orders by
    epoch.  Partial ``*.tmp.npz`` files from an interrupted write are
    ignored; a missing directory holds none.
    """
    if not os.path.isdir(directory):
        return []
    found = sorted(((int(m.group(1)), fname)
                    for fname in os.listdir(directory)
                    if (m := _CKPT_RE.match(fname))), reverse=True)
    return [os.path.join(directory, fname) for _, fname in found]


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the newest periodic checkpoint in ``directory`` (or None)."""
    found = periodic_checkpoints(directory)
    return found[0] if found else None


def checkpoint_path(directory: str, epoch: int) -> str:
    """Canonical periodic-checkpoint path for ``epoch`` (0-based, completed)."""
    return os.path.join(directory, f"ckpt-ep{epoch:05d}.npz")


def prune_old_checkpoints(directory: str, keep: int) -> int:
    """Delete all but the newest ``keep`` periodic checkpoints; returns the
    number removed.  ``keep <= 0`` disables retention (keep everything)."""
    if keep <= 0:
        return 0
    removed = 0
    for fpath in periodic_checkpoints(directory)[keep:]:
        try:
            os.remove(fpath)
            removed += 1
        except OSError:  # pragma: no cover - racing cleanup is best-effort
            pass
    return removed
