"""Word2Vec (Skip-gram and CBOW) with negative sampling, on numpy.

This is the embedding generator of Algorithm 4: the random-walk sentences
are fed to Word2Vec and the resulting vectors for metadata-node labels are
the document representations used for matching.  The paper uses Skip-gram
with window 3 for text-to-data tasks and CBOW with window 15 for text-only
tasks; both variants are implemented.

Two trainers share the model, initialisation, and update mathematics and
are selected by ``Word2VecConfig.trainer``:

``"vectorized"`` (default)
    Pair extraction is fully numpy: sentences are flattened into one id
    array with per-sentence offsets, the per-position reduced windows of a
    whole epoch come from a single ``rng.integers`` draw, and the (center,
    context) pairs fall out of vectorised offset arithmetic.  Windows are
    resampled every epoch, matching the reference word2vec implementation.
    Negatives come from a precomputed alias table
    (:class:`~repro.embeddings.sampling.AliasSampler`) — one O(1)-per-draw
    call per epoch instead of per-batch ``rng.choice(p=...)`` with its
    O(vocab) cumulative-distribution rebuild — and are *shared across each
    mini-batch* (drawn per batch, not per pair), which turns the whole
    negative side of the update into three small dense matmuls with no
    scatter at all.  The remaining (center and positive-context) gradients
    are accumulated through sorted-index segment sums
    (:func:`segment_scatter_add`, scipy's compiled ``csr_matvecs`` kernel
    called directly) instead of the slow buffered ``np.add.at``, and the
    model trains in float32 (as gensim does), halving memory traffic.

``"reference"``
    The original token-by-token Python loop, kept for parity testing: pairs
    are extracted once (windows frozen across epochs), negatives are drawn
    per pair with ``rng.choice(..., p=neg_dist)``, updates scatter through
    ``np.add.at``, and the model trains in float64.

Both trainers run mini-batch SGD over (center, context) pairs with repeated
indices within a batch accumulated (not overwritten).  They consume
randomness differently, so the same seed yields different (identically
distributed) models; pair multisets per (sentence, window-seed) are
identical when subsampling is off — see ``tests/test_word2vec_trainers.py``.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.embeddings.sampling import AliasSampler
from repro.embeddings.vocab import Vocabulary
from repro.utils.logging import get_logger
from repro.utils.rng import ensure_rng

try:
    # The C++ kernel behind ``csr_matrix @ dense``.  ``_sparsetools`` is
    # private scipy, so if it moves, segment_scatter_add falls back to the
    # public csr_matrix product, which ends in this same kernel.
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - depends on the scipy release
    _csr_matvecs = None

logger = get_logger(__name__)

TRAINERS = ("vectorized", "reference")

#: Minimum negative-sample draws per epoch in the vectorized trainer.  Its
#: negatives are shared across a mini-batch, so with few batches per epoch
#: the model would train against almost no distinct negatives; the
#: effective batch is capped at ``ceil(n_pairs / MIN_NEGATIVE_REFRESHES)``.
#: The cap engages on any epoch with fewer than ``batch_size × 64`` pairs
#: (~33k at the default batch size) and is a no-op above that.
MIN_NEGATIVE_REFRESHES = 64


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -20.0, 20.0)))


def segment_scatter_add(matrix: np.ndarray, indices: np.ndarray, updates: np.ndarray) -> None:
    """``matrix[indices] += updates`` with repeated indices accumulated.

    Sorts the indices once (stable), then sums each run of equal indices
    with scipy's ``csr_matvecs`` kernel: the sort order is the column index
    array of a one-hot (runs × batch) CSR matrix, so the kernel adds each
    run's update rows in one compiled pass.  One plain fancy-index add per
    unique index then writes the sums back.  Calling the kernel directly
    skips the ``csr_matrix`` constructor, whose index and format checks
    cost several times the product at Word2Vec's (batch, dim) block
    shapes.  Without the private kernel the same product runs through
    ``csr_matrix @ updates``; both paths give bit-identical output.
    """
    if indices.size == 0:
        return
    if updates.shape[0] != indices.size:  # the kernel does not bounds-check
        raise ValueError(f"{updates.shape[0]} update rows for {indices.size} indices")
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    boundary = np.empty(sorted_idx.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
    seg_starts = np.flatnonzero(boundary)
    indptr = np.concatenate((seg_starts, [sorted_idx.size]))
    n_seg, n = seg_starts.size, sorted_idx.size
    ones = np.ones(n, dtype=updates.dtype)
    if _csr_matvecs is None:
        sums = sparse.csr_matrix((ones, order, indptr), shape=(n_seg, n)) @ updates
    else:
        sums = np.zeros((n_seg, updates.shape[1]), dtype=updates.dtype)
        _csr_matvecs(n_seg, n, updates.shape[1], indptr, order, ones, updates.ravel(), sums.ravel())
    matrix[sorted_idx[seg_starts]] += sums


def pair_update(
    w_in: np.ndarray,
    w_out: np.ndarray,
    in_ids: np.ndarray,
    out_ids: np.ndarray,
    negatives: np.ndarray,
    lr: float,
) -> None:
    """One mini-batch SGD step: ``in`` tokens predict ``out`` tokens.

    Skip-gram passes (centers, contexts); pairwise CBOW passes (contexts,
    centers).  ``negatives`` holds the batch's shared negative ids (shape
    ``(K,)``): every pair of the batch is trained against the same K
    alias-sampled negatives, so the negative side reduces to three dense
    matmuls — score ``in_vecs @ neg_vecs.T``, input gradient
    ``g_neg @ neg_vecs``, output gradient ``g_neg.T @ in_vecs`` — with no
    per-pair scatter.  Positive-side mathematics match the reference update
    exactly; its gradients accumulate through :func:`segment_scatter_add`.

    A module-level function (not a method) so the parallel trainer's worker
    processes run the exact same update against local matrix copies — see
    :mod:`repro.parallel.trainer`.
    """
    in_vecs = w_in[in_ids]                          # (B, D)
    pos_vecs = w_out[out_ids]                       # (B, D)
    neg_vecs = w_out[negatives]                     # (K, D)

    pos_scores = _sigmoid(np.einsum("bd,bd->b", in_vecs, pos_vecs))
    neg_scores = _sigmoid(in_vecs @ neg_vecs.T)     # (B, K)

    # Fold the step size into the (small) coefficient arrays so the
    # (rows, D) gradient blocks are built already scaled.
    g_pos = (pos_scores - 1.0) * (-lr)              # (B,)
    g_neg = neg_scores * (-lr)                      # (B, K)

    grad_in = g_pos[:, None] * pos_vecs
    grad_in += g_neg @ neg_vecs                     # (B, K) @ (K, D)
    segment_scatter_add(w_in, in_ids, grad_in)
    segment_scatter_add(w_out, out_ids, g_pos[:, None] * in_vecs)
    # K rows only; np.add.at keeps duplicate negative draws accumulated.
    np.add.at(w_out, negatives, g_neg.T @ in_vecs)


def run_pair_batches(
    w_in: np.ndarray,
    w_out: np.ndarray,
    in_ids: np.ndarray,
    out_ids: np.ndarray,
    negatives: np.ndarray,
    batch_size: int,
    step: int,
    total_steps: int,
    learning_rate: float,
    min_learning_rate: float,
) -> int:
    """Run consecutive mini-batches over a pair slice; returns the new step.

    ``negatives`` holds one row per batch of the slice; the learning rate
    decays on the *global* step, so a shard starting at pair offset ``p``
    passes ``step = epoch_start + p`` and reproduces exactly the rates the
    serial loop would use for those batches.
    """
    n_pairs = int(in_ids.shape[0])
    for i, start in enumerate(range(0, n_pairs, batch_size)):
        stop = min(start + batch_size, n_pairs)
        progress = min(1.0, step / max(total_steps, 1))
        lr = max(min_learning_rate, learning_rate * (1.0 - progress))
        pair_update(w_in, w_out, in_ids[start:stop], out_ids[start:stop], negatives[i], lr)
        step += stop - start
    return step


@dataclass
class TrainingStats:
    """Throughput record of one :meth:`Word2Vec.train` call."""

    trainer: str
    pairs: int
    epochs: int
    seconds: float

    @property
    def pairs_per_sec(self) -> float:
        return self.pairs / self.seconds if self.seconds > 0 else 0.0


@dataclass
class Word2VecConfig:
    """Hyper-parameters of the Word2Vec model.

    Parameters
    ----------
    vector_size:
        Embedding dimensionality (the paper uses 300 with gensim; the
        reproduction defaults to 96 which is sufficient at our corpus sizes
        and keeps training fast on a laptop-class CPU).
    window:
        Maximum context window; the effective window of each position is
        sampled uniformly in [1, window] as in the reference implementation.
    negative:
        Number of negative samples per positive pair.
    epochs:
        Training epochs over the pair set.
    learning_rate / min_learning_rate:
        Linearly decayed SGD step size.
    sg:
        True for Skip-gram, False for CBOW.
    min_count:
        Minimum corpus frequency for a token to enter the vocabulary.
    subsample:
        Frequent-token subsampling threshold (0 disables it).
    batch_size:
        Mini-batch size for the vectorised update.  Batches accumulate raw
        per-pair gradients (word2vec semantics); keeping them moderate avoids
        over-shooting on small vocabularies where the same token repeats many
        times within a batch.  The vectorized trainer shares negatives per
        batch and therefore caps the effective batch at
        ``ceil(n_pairs / MIN_NEGATIVE_REFRESHES)`` on small corpora (below
        ``batch_size × 64`` pairs per epoch) to keep the draws diverse.
    trainer:
        "vectorized" (numpy pair extraction, alias-sampled negatives,
        segment-sum scatter; per-epoch window resampling) or "reference"
        (the original Python pair loop with frozen windows, kept for parity
        testing).
    """

    vector_size: int = 96
    window: int = 3
    negative: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    min_learning_rate: float = 0.0001
    sg: bool = True
    min_count: int = 1
    subsample: float = 0.0
    batch_size: int = 512
    trainer: str = "vectorized"

    def __post_init__(self) -> None:
        if self.vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negative < 1:
            raise ValueError("negative must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate:
            raise ValueError("learning_rate must be positive")
        if self.min_learning_rate < 0:
            raise ValueError("min_learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.trainer not in TRAINERS:
            raise ValueError(f"unknown trainer {self.trainer!r}; valid: {sorted(TRAINERS)}")


class Word2Vec:
    """Skip-gram / CBOW with negative sampling."""

    def __init__(self, config: Optional[Word2VecConfig] = None, seed=None, parallel=None):
        self.config = config or Word2VecConfig()
        # A repro.parallel.ParallelConfig (or None): when it is enabled
        # with a multi-shard plan, the vectorized trainer
        # shards each epoch across workers (see repro.parallel.trainer).
        self.parallel = parallel
        self._rng = ensure_rng(seed)
        self.vocab: Optional[Vocabulary] = None
        self.stats: Optional[TrainingStats] = None
        self._input_vectors: Optional[np.ndarray] = None   # W (input / "in" vectors)
        self._output_vectors: Optional[np.ndarray] = None  # C (output / "out" vectors)

    # ------------------------------------------------------------------
    # Training
    def train(self, sentences: Sequence[Sequence[str]]) -> "Word2Vec":
        """Train the model on tokenised ``sentences`` and return ``self``."""
        sentences = [list(s) for s in sentences if s]
        if not sentences:
            raise ValueError("cannot train on an empty corpus")
        self.vocab = Vocabulary.from_sentences(sentences, min_count=self.config.min_count)
        if len(self.vocab) == 0:
            raise ValueError("vocabulary is empty after applying min_count")

        encoded = [self.vocab.encode(s) for s in sentences]
        encoded = [s for s in encoded if len(s) >= 2]
        if not encoded:
            raise ValueError("no sentence has two or more in-vocabulary tokens")

        dim = self.config.vector_size
        vocab_size = len(self.vocab)
        # Both trainers start from the same float64 draw (same rng
        # consumption); the vectorized trainer then trains in float32.
        dtype = np.float64 if self.config.trainer == "reference" else np.float32
        self._input_vectors = (
            (self._rng.random((vocab_size, dim), dtype=np.float64) - 0.5) / dim
        ).astype(dtype)
        self._output_vectors = np.zeros((vocab_size, dim), dtype=dtype)

        keep_probs = (
            self.vocab.subsample_keep_probabilities(self.config.subsample)
            if self.config.subsample > 0
            else None
        )

        start = time.perf_counter()
        if self.config.trainer == "reference":
            pairs = self._train_reference(encoded, keep_probs)
        else:
            pairs = self._train_vectorized(encoded, keep_probs)
        elapsed = time.perf_counter() - start
        self.stats = TrainingStats(
            trainer=self.config.trainer,
            pairs=pairs,
            epochs=self.config.epochs,
            seconds=elapsed,
        )
        logger.debug(
            "word2vec %s trainer: %d pairs in %.3fs (%.0f pairs/s)",
            self.stats.trainer,
            self.stats.pairs,
            self.stats.seconds,
            self.stats.pairs_per_sec,
        )
        return self

    # ------------------------------------------------------------------
    # Warm-start fine-tuning (incremental fit; see repro.serving)
    def fine_tune(
        self,
        sentences: Sequence[Sequence[str]],
        epochs: Optional[int] = None,
        learning_rate: Optional[float] = None,
    ) -> TrainingStats:
        """Continue training an already-trained model on a delta corpus.

        The vocabulary grows in place: unseen tokens of ``sentences`` are
        appended (existing ids — and therefore existing embedding rows —
        never move) and receive freshly initialised input rows / zero output
        rows, then the configured trainer runs ``epochs`` epochs over the
        delta sentences only.  Existing rows that appear in the delta are
        updated; everything else is untouched, which is what makes a small
        delta orders of magnitude cheaper than retraining.

        Matrices loaded as read-only memory maps are copied to writable
        arrays on the first call.  Returns (and stores in :attr:`stats`)
        the fine-tuning throughput record.
        """
        if self.vocab is None or self._input_vectors is None:
            raise RuntimeError("model is not trained")
        sentences = [list(s) for s in sentences if s]
        config = replace(
            self.config,
            epochs=epochs if epochs is not None else self.config.epochs,
            learning_rate=(
                learning_rate if learning_rate is not None else self.config.learning_rate
            ),
        )
        if not sentences:
            self.stats = TrainingStats(trainer=config.trainer, pairs=0, epochs=0, seconds=0.0)
            return self.stats

        old_size = len(self.vocab)
        self.vocab.extend_from_sentences(sentences)
        dim = self.config.vector_size
        w_in = self._input_vectors
        w_out = self._output_vectors
        if not w_in.flags.writeable:  # mmap-loaded index: copy on first tune
            w_in = np.array(w_in)
        if not w_out.flags.writeable:
            w_out = np.array(w_out)
        grown = len(self.vocab) - old_size
        if grown:
            fresh = ((self._rng.random((grown, dim)) - 0.5) / dim).astype(w_in.dtype)
            w_in = np.concatenate([w_in, fresh])
            w_out = np.concatenate([w_out, np.zeros((grown, dim), dtype=w_out.dtype)])
        self._input_vectors = w_in
        self._output_vectors = w_out

        encoded = [self.vocab.encode(s) for s in sentences]
        encoded = [s for s in encoded if len(s) >= 2]
        if not encoded:
            self.stats = TrainingStats(trainer=config.trainer, pairs=0, epochs=0, seconds=0.0)
            return self.stats
        keep_probs = (
            self.vocab.subsample_keep_probabilities(config.subsample)
            if config.subsample > 0
            else None
        )
        original_config = self.config
        self.config = config
        try:
            start = time.perf_counter()
            if config.trainer == "reference":
                pairs = self._train_reference(encoded, keep_probs)
            else:
                pairs = self._train_vectorized(encoded, keep_probs)
            elapsed = time.perf_counter() - start
        finally:
            self.config = original_config
        self.stats = TrainingStats(
            trainer=config.trainer, pairs=pairs, epochs=config.epochs, seconds=elapsed
        )
        return self.stats

    def _learning_rate(self, step: int, total_steps: int) -> float:
        progress = min(1.0, step / max(total_steps, 1))
        return max(
            self.config.min_learning_rate,
            self.config.learning_rate * (1.0 - progress),
        )

    # ------------------------------------------------------------------
    # Reference trainer: frozen pair set, rng.choice negatives, np.add.at
    def _train_reference(
        self, encoded: List[List[int]], keep_probs: Optional[np.ndarray]
    ) -> int:
        neg_dist = self.vocab.negative_sampling_distribution()
        centers, contexts = self._extract_pairs(encoded, keep_probs)
        if centers.size == 0:
            raise ValueError("no training pairs could be extracted")

        n_pairs = centers.size
        total_steps = self.config.epochs * n_pairs
        step = 0
        for epoch in range(self.config.epochs):
            order = self._rng.permutation(n_pairs)
            for start in range(0, n_pairs, self.config.batch_size):
                batch = order[start : start + self.config.batch_size]
                lr = self._learning_rate(step, total_steps)
                if self.config.sg:
                    self._sg_update(centers[batch], contexts[batch], neg_dist, lr)
                else:
                    self._cbow_update(batch, centers, contexts, neg_dist, lr)
                step += batch.size
            logger.debug("word2vec epoch %d/%d done", epoch + 1, self.config.epochs)
        return step

    # -- pair extraction -------------------------------------------------
    def _extract_pairs(
        self, encoded: List[List[int]], keep_probs: Optional[np.ndarray]
    ):
        """(center, context) id arrays with dynamic windows and subsampling."""
        centers: List[int] = []
        contexts: List[int] = []
        window = self.config.window
        for sentence in encoded:
            if keep_probs is not None:
                sentence = [
                    t for t in sentence if self._rng.random() < keep_probs[t]
                ]
                if len(sentence) < 2:
                    continue
            length = len(sentence)
            reduced = self._rng.integers(1, window + 1, size=length)
            for pos, center in enumerate(sentence):
                w = int(reduced[pos])
                lo = max(0, pos - w)
                hi = min(length, pos + w + 1)
                for ctx_pos in range(lo, hi):
                    if ctx_pos == pos:
                        continue
                    centers.append(center)
                    contexts.append(sentence[ctx_pos])
        return np.asarray(centers, dtype=np.int64), np.asarray(contexts, dtype=np.int64)

    # -- skip-gram update -------------------------------------------------
    def _sg_update(self, centers, contexts, neg_dist, lr) -> None:
        w_in = self._input_vectors
        w_out = self._output_vectors
        batch = centers.size
        k = self.config.negative

        negatives = self._rng.choice(len(neg_dist), size=(batch, k), p=neg_dist)
        center_vecs = w_in[centers]                     # (B, D)
        pos_vecs = w_out[contexts]                      # (B, D)
        neg_vecs = w_out[negatives]                     # (B, K, D)

        pos_scores = _sigmoid(np.einsum("bd,bd->b", center_vecs, pos_vecs))
        neg_scores = _sigmoid(np.einsum("bkd,bd->bk", neg_vecs, center_vecs))

        pos_grad = (pos_scores - 1.0)[:, None]          # (B, 1)
        neg_grad = neg_scores[:, :, None]               # (B, K, 1)

        grad_center = pos_grad * pos_vecs + np.einsum("bk,bkd->bd", neg_scores, neg_vecs)
        grad_pos = pos_grad * center_vecs
        grad_neg = neg_grad * center_vecs[:, None, :]

        np.add.at(w_in, centers, -lr * grad_center)
        np.add.at(w_out, contexts, -lr * grad_pos)
        np.add.at(w_out, negatives.reshape(-1), -lr * grad_neg.reshape(batch * k, -1))

    # -- CBOW update -------------------------------------------------------
    def _cbow_update(self, batch_idx, centers, contexts, neg_dist, lr) -> None:
        """CBOW treated pairwise: the context token predicts the center.

        With per-pair extraction the full CBOW bag averaging degenerates to
        predicting the center from each context token; this retains the CBOW
        direction (context → center) while reusing the same pair set.
        """
        w_in = self._input_vectors
        w_out = self._output_vectors
        ctx = contexts[batch_idx]
        cen = centers[batch_idx]
        batch = ctx.size
        k = self.config.negative

        negatives = self._rng.choice(len(neg_dist), size=(batch, k), p=neg_dist)
        ctx_vecs = w_in[ctx]
        pos_vecs = w_out[cen]
        neg_vecs = w_out[negatives]

        pos_scores = _sigmoid(np.einsum("bd,bd->b", ctx_vecs, pos_vecs))
        neg_scores = _sigmoid(np.einsum("bkd,bd->bk", neg_vecs, ctx_vecs))

        pos_grad = (pos_scores - 1.0)[:, None]
        grad_ctx = pos_grad * pos_vecs + np.einsum("bk,bkd->bd", neg_scores, neg_vecs)
        grad_pos = pos_grad * ctx_vecs
        grad_neg = neg_scores[:, :, None] * ctx_vecs[:, None, :]

        np.add.at(w_in, ctx, -lr * grad_ctx)
        np.add.at(w_out, cen, -lr * grad_pos)
        np.add.at(w_out, negatives.reshape(-1), -lr * grad_neg.reshape(batch * k, -1))

    # ------------------------------------------------------------------
    # Vectorized trainer: per-epoch numpy extraction, alias negatives,
    # segment-sum scatter
    def _shard_trainer(self):
        """The sharded epoch runner, when the parallel layer enables it."""
        parallel = self.parallel
        if parallel is None or not parallel.enabled or parallel.shards <= 1:
            return None
        from repro.parallel.trainer import EpochShardTrainer

        return EpochShardTrainer(parallel)

    def _train_vectorized(
        self, encoded: List[List[int]], keep_probs: Optional[np.ndarray]
    ) -> int:
        flat_ids = np.concatenate([np.asarray(s, dtype=np.int64) for s in encoded])
        lengths = np.asarray([len(s) for s in encoded], dtype=np.int64)
        sampler = AliasSampler(self.vocab.negative_sampling_distribution())

        step = 0
        total_steps = 0
        with ExitStack() as stack:
            shard_trainer = self._shard_trainer()
            if shard_trainer is not None:
                stack.enter_context(shard_trainer)
            for epoch in range(self.config.epochs):
                centers, contexts = self._extract_pairs_vectorized(
                    flat_ids, lengths, keep_probs
                )
                if centers.size == 0:
                    if epoch == 0:
                        raise ValueError("no training pairs could be extracted")
                    continue  # an unlucky subsampling epoch; windows resample next epoch
                n_pairs = centers.size
                if epoch == 0:
                    # Windows resample per epoch so later epochs differ slightly
                    # in pair count; the first epoch anchors the decay schedule.
                    total_steps = self.config.epochs * n_pairs
                order = self._rng.permutation(n_pairs)
                centers = centers[order]
                contexts = contexts[order]
                batch_size = min(
                    self.config.batch_size,
                    max(1, -(-n_pairs // MIN_NEGATIVE_REFRESHES)),
                )
                # One alias draw covers every batch of the epoch.
                n_batches = -(-n_pairs // batch_size)
                negatives = sampler.sample(
                    self._rng, size=(n_batches, self.config.negative)
                )
                # Pairwise CBOW: the context token predicts the center.
                in_ids, out_ids = (
                    (centers, contexts) if self.config.sg else (contexts, centers)
                )
                # All RNG consumption (windows, permutation, negatives)
                # happened above, in the parent, exactly as in the serial
                # path — the epoch runners below are RNG-free.
                if shard_trainer is not None:
                    step = shard_trainer.run_epoch(
                        self._input_vectors,
                        self._output_vectors,
                        in_ids,
                        out_ids,
                        negatives,
                        batch_size,
                        step,
                        total_steps,
                        self.config.learning_rate,
                        self.config.min_learning_rate,
                    )
                else:
                    step = run_pair_batches(
                        self._input_vectors,
                        self._output_vectors,
                        in_ids,
                        out_ids,
                        negatives,
                        batch_size,
                        step,
                        total_steps,
                        self.config.learning_rate,
                        self.config.min_learning_rate,
                    )
                logger.debug("word2vec epoch %d/%d done", epoch + 1, self.config.epochs)
        return step

    def _extract_pairs_vectorized(
        self,
        flat_ids: np.ndarray,
        lengths: np.ndarray,
        keep_probs: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One epoch's (center, context) pairs from the flattened corpus.

        With subsampling off this emits exactly the pair sequence of
        :meth:`_extract_pairs` for the same rng state: the flat
        ``rng.integers`` draw equals the reference's per-sentence chunked
        draws, and the offset arithmetic enumerates each position's context
        range in the same order.
        """
        if keep_probs is not None:
            keep = self._rng.random(flat_ids.size) < keep_probs[flat_ids]
            starts = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
            )
            kept_per_sentence = np.add.reduceat(keep.astype(np.int64), starts)
            # Sentences reduced below two tokens yield no pairs; drop their
            # surviving tokens as well so the offsets stay consistent.
            sentence_ok = kept_per_sentence >= 2
            token_sentence = np.repeat(np.arange(lengths.size), lengths)
            flat_ids = flat_ids[keep & sentence_ok[token_sentence]]
            lengths = kept_per_sentence[sentence_ok]
        if flat_ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty

        sent_ids = np.repeat(np.arange(lengths.size), lengths)
        sent_starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
        )
        positions = np.arange(flat_ids.size, dtype=np.int64)
        lo_bound = sent_starts[sent_ids]
        hi_bound = lo_bound + lengths[sent_ids]

        reduced = self._rng.integers(1, self.config.window + 1, size=flat_ids.size)
        lo = np.maximum(lo_bound, positions - reduced)
        hi = np.minimum(hi_bound, positions + reduced + 1)
        counts = hi - lo - 1  # the center itself is excluded

        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        run_starts = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
        ctx_pos = np.repeat(lo, counts) + within
        # Positions at or past the center shift by one to skip it.
        ctx_pos += ctx_pos >= np.repeat(positions, counts)

        centers = np.repeat(flat_ids, counts)
        contexts = flat_ids[ctx_pos]
        return centers, contexts

    # ------------------------------------------------------------------
    # Lookup
    def __contains__(self, token: str) -> bool:
        return self.vocab is not None and token in self.vocab

    def vector(self, token: str) -> Optional[np.ndarray]:
        """The input vector of ``token``, or None when out of vocabulary."""
        if self.vocab is None or self._input_vectors is None:
            raise RuntimeError("model is not trained")
        idx = self.vocab.id_of(token)
        if idx is None:
            return None
        return self._input_vectors[idx]

    def vectors_for(self, tokens: Iterable[str]) -> Dict[str, np.ndarray]:
        """Vectors for all in-vocabulary tokens of ``tokens``."""
        result: Dict[str, np.ndarray] = {}
        for token in tokens:
            vec = self.vector(token)
            if vec is not None:
                result[token] = vec
        return result

    def embedding_matrix(self) -> np.ndarray:
        if self._input_vectors is None:
            raise RuntimeError("model is not trained")
        return self._input_vectors

    def mean_vector(self, tokens: Sequence[str]) -> Optional[np.ndarray]:
        """Mean of the vectors of the in-vocabulary ``tokens`` (or None)."""
        vecs = [self.vector(t) for t in tokens]
        vecs = [v for v in vecs if v is not None]
        if not vecs:
            return None
        return np.mean(np.stack(vecs), axis=0)
