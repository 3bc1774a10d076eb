"""Training data substrate: synthetic images, an LMDB-like store, prefetch.

The paper trains on ILSVRC-2012 converted to LMDB and prefetches ten
minibatches ahead of the GPU.  Without the 240 GB dataset we substitute a
deterministic synthetic image task whose difficulty is controlled by a noise
parameter: each class has a random spatial prototype and samples are noisy
prototypes.  This keeps the convergence dynamics (and the async-degradation
effects the paper studies) while fitting in laptop memory.

Three pieces mirror the paper's data path:

* :class:`SyntheticImageDataset` — the dataset itself, with disjoint
  train/test splits and worker sharding ("deep learning data is assigned to
  all workers without duplication", Sec. III-C);
* :class:`LmdbStore` / :func:`encode_datum` — a keyed record store with the
  serialised-datum format Caffe uses for LMDB ingestion;
* :class:`Prefetcher` — a background thread keeping a bounded queue of
  ready minibatches (depth 10, like ShmCaffe's prefetch).
"""

from __future__ import annotations

import queue
import struct
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np


@dataclass
class Minibatch:
    """One training batch as fed to ``Net.forward``."""

    images: np.ndarray  # (N, C, H, W) float32
    labels: np.ndarray  # (N,) int64

    @property
    def size(self) -> int:
        return int(self.images.shape[0])

    def as_inputs(
        self, image_blob: str = "data", label_blob: str = "label"
    ) -> Dict[str, np.ndarray]:
        """Map onto the net's input blob names."""
        return {image_blob: self.images, label_blob: self.labels}


class SyntheticImageDataset:
    """Deterministic multi-class image task.

    Class ``k`` has a fixed random prototype image; a sample is
    ``prototype + noise * N(0, 1)``.  With moderate noise a small CNN
    separates the classes in a few hundred iterations, slowly enough that
    optimiser differences (SSGD vs SEASGD vs stale variants) are visible in
    the accuracy curves.

    Args:
        num_classes: Number of classes.
        image_size: Square image side.
        channels: Image channels.
        train_per_class: Training samples per class.
        test_per_class: Held-out samples per class.
        noise: Standard deviation of the additive noise.
        seed: Generator seed; the whole dataset is a pure function of it.
    """

    def __init__(
        self,
        num_classes: int = 10,
        image_size: int = 16,
        channels: int = 3,
        train_per_class: int = 100,
        test_per_class: int = 20,
        noise: float = 1.0,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError(f"need >=2 classes, got {num_classes}")
        self.num_classes = num_classes
        self.image_size = image_size
        self.channels = channels
        self.noise = noise
        rng = np.random.default_rng(seed)
        shape = (num_classes, channels, image_size, image_size)
        self.prototypes = rng.standard_normal(shape).astype(np.float32)

        def make_split(per_class: int, split_rng: np.random.Generator):
            images = np.empty(
                (num_classes * per_class, channels, image_size, image_size),
                dtype=np.float32,
            )
            labels = np.empty(num_classes * per_class, dtype=np.int64)
            for k in range(num_classes):
                lo = k * per_class
                hi = lo + per_class
                images[lo:hi] = self.prototypes[k] + noise * split_rng.standard_normal(
                    (per_class, channels, image_size, image_size)
                ).astype(np.float32)
                labels[lo:hi] = k
            order = split_rng.permutation(len(labels))
            return images[order], labels[order]

        self.train_images, self.train_labels = make_split(
            train_per_class, np.random.default_rng(seed + 1)
        )
        self.test_images, self.test_labels = make_split(
            test_per_class, np.random.default_rng(seed + 2)
        )

    @property
    def train_size(self) -> int:
        return len(self.train_labels)

    @property
    def test_size(self) -> int:
        return len(self.test_labels)

    def shard(self, rank: int, num_shards: int) -> Tuple[np.ndarray, np.ndarray]:
        """Worker ``rank``'s slice of the training set, without duplication.

        Round-robin sharding so every shard sees every class even when the
        shard count does not divide the dataset size.
        """
        if not 0 <= rank < num_shards:
            raise ValueError(f"rank {rank} out of range for {num_shards} shards")
        indices = np.arange(rank, self.train_size, num_shards)
        return self.train_images[indices], self.train_labels[indices]

    def minibatches(
        self,
        batch_size: int,
        seed: int = 0,
        rank: int = 0,
        num_shards: int = 1,
        skip: int = 0,
    ) -> Iterator[Minibatch]:
        """Endless stream of shuffled minibatches from this worker's shard.

        The stream is a pure function of ``(seed, rank, num_shards)``, so
        ``skip=N`` fast-forwards past the first ``N`` batches — this is
        the *dataset cursor* a resumed training leg uses to continue the
        exact batch sequence an interrupted run was consuming.  Skipping
        only advances the shuffle RNG (no batch materialisation), so a
        large cursor is cheap.
        """
        if skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        images, labels = self.shard(rank, num_shards)
        if batch_size > len(labels):
            raise ValueError(
                f"batch {batch_size} exceeds shard size {len(labels)}"
            )
        rng = np.random.default_rng(seed)
        per_epoch = (len(labels) - batch_size) // batch_size + 1
        # Fast-forward whole epochs by burning one permutation each.
        for _ in range(skip // per_epoch):
            rng.permutation(len(labels))
        skip %= per_epoch
        while True:
            order = rng.permutation(len(labels))
            for start in range(0, len(order) - batch_size + 1, batch_size):
                if skip:
                    skip -= 1
                    continue
                chosen = order[start:start + batch_size]
                yield Minibatch(images[chosen], labels[chosen])

    def test_batches(self, batch_size: int) -> List[Minibatch]:
        """The full test split as a batch list (last batch may be short)."""
        batches = []
        for start in range(0, self.test_size, batch_size):
            stop = min(start + batch_size, self.test_size)
            batches.append(
                Minibatch(
                    self.test_images[start:stop], self.test_labels[start:stop]
                )
            )
        return batches


# ---------------------------------------------------------------------------
# LMDB-like record store
# ---------------------------------------------------------------------------

_DATUM_HEADER = "!IIIq"  # channels, height, width, label


def encode_datum(image: np.ndarray, label: int) -> bytes:
    """Serialise one sample the way Caffe packs a Datum into LMDB."""
    if image.ndim != 3:
        raise ValueError(f"expected (C,H,W) image, got shape {image.shape}")
    c, h, w = image.shape
    header = struct.pack(_DATUM_HEADER, c, h, w, label)
    return header + np.ascontiguousarray(image, dtype=np.float32).tobytes()


def decode_datum(blob: bytes) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`encode_datum`."""
    header_size = struct.calcsize(_DATUM_HEADER)
    c, h, w, label = struct.unpack(_DATUM_HEADER, blob[:header_size])
    image = np.frombuffer(blob[header_size:], dtype=np.float32).reshape(
        c, h, w
    )
    return image.copy(), int(label)


class LmdbStore:
    """A keyed record store mimicking Caffe's LMDB usage.

    Supports ``put``/``get`` plus ordered cursor iteration, which is how the
    data layer streams a training epoch.  Thread-safe.
    """

    def __init__(self) -> None:
        self._records: Dict[bytes, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._records[key] = value

    def get(self, key: bytes) -> bytes:
        with self._lock:
            try:
                return self._records[key]
            except KeyError:
                raise KeyError(f"no record for key {key!r}") from None

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def cursor(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate records in key order (LMDB cursors are sorted)."""
        with self._lock:
            items = sorted(self._records.items())
        yield from items

    @classmethod
    def from_dataset(
        cls, dataset: SyntheticImageDataset, split: str = "train"
    ) -> "LmdbStore":
        """Ingest one split, one datum per record, zero-padded keys."""
        if split == "train":
            images, labels = dataset.train_images, dataset.train_labels
        elif split == "test":
            images, labels = dataset.test_images, dataset.test_labels
        else:
            raise ValueError(f"unknown split {split!r}")
        store = cls()
        for index, (image, label) in enumerate(zip(images, labels)):
            key = f"{index:08d}".encode()
            store.put(key, encode_datum(image, int(label)))
        return store

    def stream_batches(self, batch_size: int) -> Iterator[Minibatch]:
        """One pass over the store in key order, batched."""
        images: List[np.ndarray] = []
        labels: List[int] = []
        for _, value in self.cursor():
            image, label = decode_datum(value)
            images.append(image)
            labels.append(label)
            if len(images) == batch_size:
                yield Minibatch(
                    np.stack(images), np.asarray(labels, dtype=np.int64)
                )
                images, labels = [], []
        if images:
            yield Minibatch(
                np.stack(images), np.asarray(labels, dtype=np.int64)
            )


class Prefetcher:
    """Background minibatch prefetch with a bounded queue.

    ShmCaffe "prefetches 10 sets of minibatch training data" so data I/O
    never stalls the GPU; ``depth=10`` is therefore the default.
    """

    _SENTINEL = None

    def __init__(self, batches: Iterator[Minibatch], depth: int = 10) -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self._queue: "queue.Queue" = queue.Queue(maxsize=depth)
        self._source = batches
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._fill, name="prefetcher", daemon=True
        )
        self._thread.start()

    def _fill(self) -> None:
        try:
            for batch in self._source:
                if self._stop.is_set():
                    return
                while not self._stop.is_set():
                    try:
                        self._queue.put(batch, timeout=0.1)
                        break
                    except queue.Full:
                        continue
        finally:
            if not self._stop.is_set():
                try:
                    self._queue.put(self._SENTINEL, timeout=1.0)
                except queue.Full:
                    pass

    def next_batch(self, timeout: float = 30.0) -> Optional[Minibatch]:
        """Next prefetched batch, or ``None`` when the source is exhausted."""
        item = self._queue.get(timeout=timeout)
        return item

    def stop(self) -> None:
        """Stop the background thread and drain the queue."""
        self._stop.set()
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join(timeout=5.0)

    def __iter__(self) -> "Prefetcher":
        return self

    def __next__(self) -> Minibatch:
        batch = self.next_batch()
        if batch is None:
            raise StopIteration
        return batch

    def __enter__(self) -> "Prefetcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
