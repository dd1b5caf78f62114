"""Representative-window selection (SimPoint analog).

The paper uses the SimPoint toolset to pick 10-million-instruction windows
that are representative of whole SPEC2000 runs.  This module provides the
same capability for bus traces: it splits a long trace into fixed-length
windows, summarises each window by an activity signature (per-bit toggle
rates plus an adjacent-opposite-toggle rate, the bus-level analog of a basic
block vector), clusters the signatures with k-means, and returns one
representative window per cluster together with its weight (the fraction of
execution time its cluster covers).

Downstream consumers can either simulate only the representative windows and
combine results with the weights, or use the selection simply to verify that
a shortened trace covers all the program's phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.trace import BusTrace, unpack_values
from repro.utils.rng import SeedLike, make_rng


@dataclass(frozen=True)
class SimPointSelection:
    """Result of representative-window selection.

    Attributes
    ----------
    window_length:
        Number of cycles per window.
    representative_windows:
        Index of the chosen window for each cluster.
    weights:
        Fraction of all windows belonging to each cluster (sums to 1).
    labels:
        Cluster label of every window.  Labels always index
        ``representative_windows`` / ``weights`` -- clusters that end up
        empty during clustering are dropped and the labels remapped onto
        the survivors.
    """

    window_length: int
    representative_windows: tuple[int, ...]
    weights: tuple[float, ...]
    labels: np.ndarray

    @property
    def n_clusters(self) -> int:
        """Number of clusters / representative windows."""
        return len(self.representative_windows)

    def extract(self, trace: BusTrace) -> list[BusTrace]:
        """The representative windows as sub-traces, in cluster order."""
        return [
            trace.window(index * self.window_length, self.window_length, name=f"{trace.name}.sp{i}")
            for i, index in enumerate(self.representative_windows)
        ]

    def weighted_estimate(self, per_window_values: np.ndarray) -> float:
        """Weighted combination of a metric measured on the representative windows."""
        values = np.asarray(per_window_values, dtype=float)
        if values.shape != (self.n_clusters,):
            raise ValueError(
                f"expected {self.n_clusters} per-window values, got shape {values.shape}"
            )
        return float(np.dot(values, np.asarray(self.weights)))


def transition_signatures(per_window: np.ndarray) -> np.ndarray:
    """Signatures of windows given as a ``(n_windows, length, n_bits)`` array
    of signed transitions (``diff`` of the 0/1 words).

    The signature of a window is the per-bit toggle rate (``n_bits`` features)
    concatenated with the rate of adjacent bit pairs toggling in opposite
    directions (one feature), which correlates with worst-case coupling
    events.  This is the single signature definition.
    """
    toggle_rates = np.mean(per_window != 0, axis=1)
    opposite = per_window[:, :, :-1] * per_window[:, :, 1:] < 0
    opposite_rate = np.mean(np.any(opposite, axis=2), axis=1, keepdims=True)
    return np.concatenate([toggle_rates, opposite_rate], axis=1)


def window_signatures(trace: BusTrace, window_length: int) -> np.ndarray:
    """Activity signature of every complete window of the trace.

    See :func:`transition_signatures` for the signature definition.  The
    packed trace is unpacked one window (``window_length + 1`` words) at a
    time, so the unpacked working set stays O(window) however long the
    trace is.
    """
    if window_length <= 0:
        raise ValueError(f"window_length must be positive, got {window_length}")
    n_windows = trace.n_cycles // window_length
    if n_windows == 0:
        raise ValueError(
            f"trace has {trace.n_cycles} cycles, shorter than one window ({window_length})"
        )
    packed = trace.packed_values
    signatures = np.empty((n_windows, trace.n_bits + 1))
    for index in range(n_windows):
        start = index * window_length
        words = unpack_values(packed[start : start + window_length + 1], trace.n_bits)
        transitions = np.diff(words.astype(np.int8), axis=0)
        signatures[index] = transition_signatures(transitions[None, :, :])[0]
    return signatures


def _kmeans(
    signatures: np.ndarray, n_clusters: int, rng: np.random.Generator, n_iterations: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Plain k-means (numpy implementation, k-means++ style seeding)."""
    n_points = signatures.shape[0]
    centroids = signatures[rng.choice(n_points, size=1)]
    while centroids.shape[0] < n_clusters:
        distances = np.min(
            np.linalg.norm(signatures[:, None, :] - centroids[None, :, :], axis=2) ** 2, axis=1
        )
        total = distances.sum()
        if total <= 0:
            # All remaining points coincide with existing centroids.
            extra = signatures[rng.choice(n_points, size=n_clusters - centroids.shape[0])]
            centroids = np.concatenate([centroids, extra], axis=0)
            break
        probabilities = distances / total
        next_index = rng.choice(n_points, p=probabilities)
        centroids = np.concatenate([centroids, signatures[next_index : next_index + 1]], axis=0)

    labels = np.zeros(n_points, dtype=int)
    for iteration in range(n_iterations):
        distances = np.linalg.norm(signatures[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = np.argmin(distances, axis=1)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        occupied = np.unique(labels)
        if occupied.size < centroids.shape[0]:
            # A cluster emptied mid-iteration (possible when the k-means++
            # seeding placed duplicate centroids on coinciding signatures).
            # Keeping its stale centroid around would let it re-capture
            # points later, so drop it and remap the labels onto the
            # survivors -- every returned label always indexes a live
            # centroid.
            lookup = np.full(centroids.shape[0], -1, dtype=int)
            lookup[occupied] = np.arange(occupied.size)
            centroids = centroids[occupied]
            labels = lookup[labels]
        for cluster in range(centroids.shape[0]):
            centroids[cluster] = signatures[labels == cluster].mean(axis=0)
    return labels, centroids


def select_simpoints(
    trace: BusTrace,
    window_length: int,
    n_clusters: int = 4,
    seed: SeedLike = None,
) -> SimPointSelection:
    """Select representative windows of a trace by clustering activity signatures.

    Parameters
    ----------
    trace:
        The full trace to summarise.
    window_length:
        Window size in cycles (the paper's SimPoint windows are 10 M
        instructions; bus-level studies typically use 10k-1M cycles).
    n_clusters:
        Number of phases / representative windows to select.  It is clamped
        to the number of available windows.
    seed:
        Seed for the k-means initialisation.
    """
    signatures = window_signatures(trace, window_length)
    rng = make_rng(seed)
    n_windows = signatures.shape[0]
    n_clusters = min(n_clusters, n_windows)

    labels, centroids = _kmeans(signatures, n_clusters, rng)

    representatives: list[int] = []
    weights: list[float] = []
    survivors: list[int] = []
    for cluster in range(centroids.shape[0]):
        member_indices = np.nonzero(labels == cluster)[0]
        if member_indices.size == 0:
            # _kmeans drops emptied clusters itself; this is a belt-and-braces
            # guard so labels can never outrun the representative list.
            continue
        survivors.append(cluster)
        member_signatures = signatures[member_indices]
        distances = np.linalg.norm(member_signatures - centroids[cluster], axis=1)
        representatives.append(int(member_indices[int(np.argmin(distances))]))
        weights.append(member_indices.size / n_windows)
    if len(survivors) < centroids.shape[0]:
        # Remap labels onto the surviving clusters so every label indexes
        # representative_windows / weights.
        lookup = np.full(centroids.shape[0], -1, dtype=int)
        lookup[survivors] = np.arange(len(survivors))
        labels = lookup[labels]

    return SimPointSelection(
        window_length=window_length,
        representative_windows=tuple(representatives),
        weights=tuple(weights),
        labels=labels,
    )
