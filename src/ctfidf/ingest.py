"""Dataset loading, label normalization, and train/test splitting.

Input files are delimited text (tab or comma), one record per line, UTF-8.
Splits are reproduced exactly across platforms by using numpy's PCG64
generator: identical (corpus, spec) inputs always yield identical splits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateStratumError,
    EncodingError,
    MalformedRowError,
    TooFewRecordsError,
    UnknownMappingKeyError,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RawRecord:
    """One labeled message."""

    label: str
    text: str


@dataclass(frozen=True)
class LabeledCorpus:
    """An ordered collection of labeled records.

    ``label_set`` always equals the set of labels occurring in ``records``;
    record order preserves file order. ``sha256`` is the hex digest of the
    file bytes the records were parsed from ("" when not loaded from a file).
    """

    records: tuple[RawRecord, ...]
    label_set: frozenset[str]
    sha256: str

    @classmethod
    def from_records(cls, records, sha256: str = "") -> "LabeledCorpus":
        records = tuple(records)
        return cls(records, frozenset(r.label for r in records), sha256)

    def __len__(self) -> int:
        return len(self.records)

    def labels(self) -> list[str]:
        return [r.label for r in self.records]

    def texts(self) -> list[str]:
        return [r.text for r in self.records]

    def label_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.label] = counts.get(r.label, 0) + 1
        return counts


@dataclass(frozen=True)
class LoadFormat:
    """How to parse a delimited dataset file.

    RFC-4180 quoting is on for comma-delimited files only: tab-separated
    SMS dumps hold raw text, where a leading double quote is message
    content.
    """

    delimiter: str = "\t"
    label_column: int = 0
    text_column: int = 1
    has_header: bool = False


@dataclass(frozen=True)
class SplitSpec:
    """Train/test partition parameters."""

    train_fraction: float
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if (not isinstance(self.train_fraction, (int, float))
                or not 0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must be a number in (0, 1), "
                             f"got {self.train_fraction!r}")


def load_dataset(path: str, fmt: LoadFormat = LoadFormat()) -> LabeledCorpus:
    """Parse a delimited dataset file into a :class:`LabeledCorpus`.

    Rows with too few fields, an empty label or an empty trimmed text
    abort the load with :class:`MalformedRowError` naming the line:
    silently dropping rows would corrupt comparisons against published
    record counts.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        records = _parse(raw, fmt)
    except (UnicodeDecodeError, MalformedRowError):
        # a file that is not UTF-8 is reported as such before any bad row,
        # with the bad byte's offset in the whole file: decode it whole,
        # which the parse, reading in chunks, does not
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"{path} is not valid UTF-8: {exc}") from exc
        raise

    corpus = LabeledCorpus.from_records(records,
                                        hashlib.sha256(raw).hexdigest())
    logger.info("loaded %d record(s) from %s, labels: %s",
                len(corpus), path, sorted(corpus.label_set))
    return corpus


def _parse(raw: bytes, fmt: LoadFormat) -> list[RawRecord]:
    """The records of a file's bytes. They are decoded as read, a chunk at a
    time: a whole decoded copy would take up to 4 bytes a character."""
    need = max(fmt.label_column, fmt.text_column) + 1
    quoting = csv.QUOTE_MINIMAL if fmt.delimiter == "," else csv.QUOTE_NONE
    records: list[RawRecord] = []
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                          newline="") as text:
        reader = csv.reader(text, delimiter=fmt.delimiter, quoting=quoting)
        for line_number, row in enumerate(reader, start=1):
            if fmt.has_header and line_number == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) < need:
                raise MalformedRowError(
                    line_number,
                    f"line {line_number}: {len(row)} field(s), need {need}")
            label = row[fmt.label_column].strip()
            text_field = row[fmt.text_column]
            if not label or not text_field.strip():
                bad = "empty text" if label else "empty label"
                raise MalformedRowError(line_number,
                                        f"line {line_number}: {bad}")
            records.append(RawRecord(label, text_field))
    return records


def normalize_labels(corpus: LabeledCorpus,
                     mapping: dict[str, str]) -> LabeledCorpus:
    """Rewrite labels through ``mapping``; unmapped labels pass through.

    A mapping key that matches no corpus label raises
    :class:`UnknownMappingKeyError`: it is a typo, or a mapping written
    for another dataset.
    """
    unknown = set(mapping) - set(corpus.label_set)
    if unknown:
        raise UnknownMappingKeyError(
            f"mapping key(s) {sorted(unknown)} match no corpus label "
            f"(labels present: {sorted(corpus.label_set)})")
    records = tuple(RawRecord(mapping.get(r.label, r.label), r.text)
                    for r in corpus.records)
    return LabeledCorpus.from_records(records, corpus.sha256)


def _train_count(fraction: float, n: int) -> int:
    # round-half-up, so 0.5 fractions err toward train
    return int(math.floor(fraction * n + 0.5))


def _stratified_train_counts(fraction: float, label_counts: dict[str, int],
                             n_train: int) -> dict[str, int]:
    """Largest-remainder apportionment of ``n_train`` across labels.

    Keeps every label's train count within one record of its exact quota.
    """
    labels = sorted(label_counts)
    quotas = {lab: fraction * label_counts[lab] for lab in labels}
    counts = {lab: int(math.floor(quotas[lab])) for lab in labels}
    remaining = n_train - sum(counts.values())
    order = sorted(labels, key=lambda lab: (-(quotas[lab] - counts[lab]), lab))
    for lab in order[:remaining]:
        counts[lab] += 1
    return counts


def split(corpus: LabeledCorpus,
          spec: SplitSpec) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Deterministic (seeded) train/test split, stratified by default."""
    n = len(corpus)
    if n < 2:
        raise TooFewRecordsError(f"need at least 2 records, have {n}")

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_train = _train_count(spec.train_fraction, n)
    train_idx: list[int] = []

    if spec.stratified:
        counts = corpus.label_counts()
        thin = [lab for lab, c in counts.items() if c < 2]
        if thin:
            raise DegenerateStratumError(
                f"label(s) {sorted(thin)} have fewer than 2 records")
        per_label = _stratified_train_counts(spec.train_fraction, counts,
                                             n_train)
        by_label: dict[str, list[int]] = {lab: [] for lab in counts}
        for i, r in enumerate(corpus.records):
            by_label[r.label].append(i)
        for lab in sorted(by_label):
            perm = rng.permutation(len(by_label[lab]))
            chosen = perm[: per_label[lab]]
            train_idx.extend(by_label[lab][j] for j in chosen)
    else:
        perm = rng.permutation(n)
        train_idx.extend(int(i) for i in perm[:n_train])

    train_set = set(train_idx)
    train_records = [corpus.records[i] for i in sorted(train_set)]
    test_records = [corpus.records[i] for i in range(n) if i not in train_set]
    train = LabeledCorpus.from_records(train_records, corpus.sha256)
    test = LabeledCorpus.from_records(test_records, corpus.sha256)
    return train, test
