"""Feature transforms shared by the software models and the MCM
protocol converter (which must produce bit-identical inputs for the
GPU deployment)."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def histogram_features(windows: np.ndarray, vocabulary_size: int) -> np.ndarray:
    """Count vectors over the vocabulary for each ID window.

    ``windows`` has shape (N, W) of integer IDs in
    ``[0, vocabulary_size)``; returns float32 (N, vocabulary_size).
    This mirrors the IGM vector encoder's HISTOGRAM mode.
    """
    windows = np.asarray(windows)
    if windows.ndim == 1:
        windows = windows[None, :]
    if windows.size and (
        windows.min() < 0 or windows.max() >= vocabulary_size
    ):
        raise ModelError("window IDs outside the vocabulary")
    n, _ = windows.shape
    out = np.zeros((n, vocabulary_size), dtype=np.float32)
    for row in range(n):
        counts = np.bincount(windows[row], minlength=vocabulary_size)
        out[row] = counts[:vocabulary_size]
    return out


def normalize_histogram(histograms: np.ndarray) -> np.ndarray:
    """Scale count vectors to frequencies (rows sum to 1)."""
    histograms = np.asarray(histograms, dtype=np.float32)
    sums = histograms.sum(axis=-1, keepdims=True)
    sums[sums == 0] = 1.0
    return histograms / sums


def one_hot(ids: np.ndarray, vocabulary_size: int) -> np.ndarray:
    """One-hot encode an ID array; appends a trailing vocab axis."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= vocabulary_size):
        raise ModelError("IDs outside the vocabulary")
    out = np.zeros(ids.shape + (vocabulary_size,), dtype=np.float32)
    np.put_along_axis(
        out, ids[..., None].astype(np.int64), 1.0, axis=-1
    )
    return out


class PatternDictionary:
    """Semantic n-gram pattern dictionary (after Creech & Hu [2]).

    Training memorizes the ``capacity`` most frequent n-grams of the
    normal windows; a window is then described by the counts of each
    dictionary pattern plus one out-of-dictionary count (index
    ``size - 1``).  Out-of-context branch insertions produce n-grams
    the program never emits, so their windows pile mass onto the
    out-of-dictionary bin and deviate from every in-dictionary count —
    the order-sensitive signal a plain histogram misses.

    The same mapping runs inside the MCM protocol converter at
    inference time, so this class is shared by training and deployment.

    ``unseen_gain`` weights the out-of-dictionary bin: each unseen
    n-gram counts ``gain`` times.  Phase changes in normal execution
    produce a *few* unseen patterns per window while injected gadgets
    produce many, so amplifying the unseen count separates the two
    populations.  In hardware the converter simply emits the unseen
    index ``gain`` times — no datapath change.
    """

    def __init__(
        self, n: int = 3, capacity: int = 255, unseen_gain: int = 1
    ) -> None:
        if n < 1:
            raise ModelError("pattern length must be >= 1")
        if capacity < 1:
            raise ModelError("capacity must be >= 1")
        if unseen_gain < 1:
            raise ModelError("unseen_gain must be >= 1")
        self.n = n
        self.capacity = capacity
        self.unseen_gain = unseen_gain
        self._index: dict = {}

    def fit(self, windows: np.ndarray) -> "PatternDictionary":
        from collections import Counter

        windows = np.atleast_2d(np.asarray(windows, dtype=np.int64))
        if windows.shape[1] < self.n:
            raise ModelError("windows shorter than pattern length")
        counts: Counter = Counter()
        for row in windows:
            for start in range(len(row) - self.n + 1):
                counts[tuple(int(v) for v in row[start:start + self.n])] += 1
        self._index = {
            gram: position
            for position, (gram, _) in enumerate(
                counts.most_common(self.capacity)
            )
        }
        return self

    @property
    def fitted(self) -> bool:
        return bool(self._index)

    @property
    def size(self) -> int:
        """Feature dimensionality: dictionary slots + the unseen bin."""
        return len(self._index) + 1

    @property
    def unseen_index(self) -> int:
        return len(self._index)

    def indices(self, window: np.ndarray) -> np.ndarray:
        """Pattern index per n-gram position (the sparse encoding the
        protocol converter hands the GPU).  Unseen positions repeat
        the unseen index ``unseen_gain`` times, so the output length
        varies between ``positions`` and ``positions * unseen_gain``.
        """
        if not self.fitted:
            raise ModelError("pattern dictionary used before fit()")
        window = np.asarray(window, dtype=np.int64)
        if len(window) < self.n:
            raise ModelError("window shorter than pattern length")
        out = []
        for start in range(len(window) - self.n + 1):
            gram = tuple(int(v) for v in window[start:start + self.n])
            index = self._index.get(gram)
            if index is None:
                out.extend([self.unseen_index] * self.unseen_gain)
            else:
                out.append(index)
        return np.array(out, dtype=np.int64)

    def max_indices(self, window: int) -> int:
        return (window - self.n + 1) * self.unseen_gain

    def features(self, windows: np.ndarray) -> np.ndarray:
        """Dense normalized count features (the software-model input).

        Matches :meth:`indices` exactly: unseen n-grams contribute
        ``unseen_gain`` counts; normalization is by the position count
        (not the gained total), mirroring the kernel's fixed 1/M scale.
        """
        windows = np.atleast_2d(np.asarray(windows, dtype=np.int64))
        positions = windows.shape[1] - self.n + 1
        out = np.zeros((len(windows), self.size), dtype=np.float32)
        for row_index, row in enumerate(windows):
            for index in self.indices(row):
                out[row_index, index] += 1
        return out / positions


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
