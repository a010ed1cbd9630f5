"""Text preparation: tokenization, stopword removal, stemming.

The stage order is fixed: tokenize (lowercased) -> stopword filter ->
stem. Stopwords are matched against tokens as written, before stemming, so
the shipped (unstemmed) word list applies directly. Every other token is
kept: digit runs (phone numbers, prices) are predictive for spam, and so
are short tokens like "txt". The filter and the stemmer see one token at a
time, so :func:`preprocess_corpus` decides each distinct token once, in a
token -> stem dict. It works through the texts a bounded chunk at a time:
it tokenizes the chunk, decides the chunk's tokens that the dict does not
hold yet, and maps each document's tokens through the dict. A caller that
passes its own dict keeps the stems between calls (a fitted classifier
does, for its lifetime); without one, each call owns a fresh dict that
spans all of its chunks. No process-wide state exists for a long stream to
grow: the stopword list and its hash are read once, and are fixed.
"""

from __future__ import annotations

import functools
import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain

from .porter import porter_stem

_TOKEN_RE = re.compile(r"[^\W_]+")  # maximal runs of Unicode letters/digits
# on ASCII text the same runs are [0-9A-Za-z]+: lowercase the letters and
# blank everything else, then split on the blanks
_ASCII_TOKENS = str.maketrans({
    c: c.lower() if c.isalnum() else " " for c in map(chr, range(128))})

_STOPWORD_RESOURCE = "stopwords_english.txt"
# texts tokenized at once: their token lists are a call's working memory
# (about 0.1 MB on 22k messages); 1,024 ran no faster and held 2 MB
_CHUNK = 64


def _stopword_bytes() -> bytes:
    return (resources.files("ctfidf") / "data" / _STOPWORD_RESOURCE).read_bytes()


@functools.cache
def stopword_list_hash() -> str:
    """SHA-256 of the shipped stopword file, recorded in run reports."""
    return hashlib.sha256(_stopword_bytes()).hexdigest()


@functools.cache
def load_stopwords() -> frozenset[str]:
    words = _stopword_bytes().decode("utf-8").split("\n")
    return frozenset(w.strip() for w in words if w.strip())


@dataclass(frozen=True)
class PreprocessConfig:
    """The shipped stopword list, pinned by the hash of its file.

    It is the only setting: digit runs and short tokens are always kept,
    so text prepared with the defaults matches what training saw. A config
    saved with another list's hash fails rather than silently using this
    one.
    """

    stopword_hash: str = field(default_factory=stopword_list_hash)

    def validate(self) -> None:
        shipped = stopword_list_hash()
        if self.stopword_hash != shipped:
            raise ValueError(
                "stopword hash mismatch: config has "
                f"{self.stopword_hash[:12]}..., shipped list is {shipped[:12]}...")


@dataclass(frozen=True)
class ProcessedDoc:
    """Stem sequence for one document."""

    stems: tuple[str, ...]


def tokenize(text: str) -> list[str]:
    """Split into lowercase tokens: maximal runs of letters/digits."""
    if text.isascii():
        return text.translate(_ASCII_TOKENS).split()
    return _TOKEN_RE.findall(text.lower())


def remove_stopwords(tokens: list[str], stopwords: frozenset[str]) -> list[str]:
    return [t for t in tokens if t not in stopwords]


def preprocess_corpus(texts: list[str],
                      memo: dict[str, str | None] | None = None
                      ) -> list[ProcessedDoc]:
    """Run the full pipeline on every text with the shipped stopword list,
    preserving order.

    ``memo`` maps each token already decided to its stem, or to None if it
    is a stopword; the call reads it and adds the tokens it decides, so a
    token it holds is never stemmed again. Without it the call starts from
    an empty dict of its own. A document that loses every token is kept as
    an empty doc so row indices stay aligned with labels downstream.
    """
    stopwords = load_stopwords()
    if memo is None:
        memo = {}
    lookup = memo.__getitem__
    docs = []
    for start in range(0, len(texts), _CHUNK):
        chunk = list(map(tokenize, texts[start:start + _CHUNK]))
        for token in dict.fromkeys(chain.from_iterable(chunk)):
            if token not in memo:
                memo[token] = (None if token in stopwords
                               else porter_stem(token))
        # stems are never empty, so filter(None, ...) drops the stopwords
        docs.extend(ProcessedDoc(tuple(filter(None, map(lookup, tokens))))
                    for tokens in chunk)
        del chunk  # so that the next chunk's tokens do not join it
    return docs
