"""Seeded Zipfian generator for SMS-shaped corpora and message streams.

A corpus family (``Shape``) fixes the *structure* of its texts: the word
slots of the lexicon (a root slot plus a suffix), the ham, spam and shared
frequency rankings over those slots, and for every message its class, its
length, the ranks its words are drawn at and its digit runs. The workload
seed fills that structure in: it draws the root string of every slot and
the digits of every phone number and short code, and it capitalises and
punctuates the messages. Roots and digits are drawn so that Porter stems
every seed's words alike and the terms keep their order, so every seed
poses the same numeric problem in different words: run-to-run spread then
measures the program and the machine rather than the luck of the draw.
The same seed gives byte-identical outputs.

Word forms are roots plus English suffixes that the Porter rules strip or
rewrite (``-ations``, ``-fulness``, ``-ized`` ...), so several surface forms
share a stem, and about a third of all tokens come from the shipped
stopword list. Spam draws its content words from a ranking that promotes a
spam-specific subset of the lexicon and carries digit runs (phone numbers,
short codes, prices); ham promotes a different subset. Both mix in a shared
base ranking, so the classes overlap. A stream is a second sample of
messages with the same language and its own fixed structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ONSETS = ("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "bl", "br", "ch", "cl", "cr", "dr", "fl",
           "fr", "gl", "gr", "pl", "pr", "sh", "sk", "sl", "sn", "sp", "st",
           "str", "th", "tr", "wh")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou")
_CODAS = ("", "", "", "b", "d", "g", "k", "l", "m", "n", "p", "r", "s", "t",
          "ck", "ld", "mp", "nd", "ng", "nt", "rk", "rt", "st")
_SYLLABLES = np.array([o + v + c for o in _ONSETS for v in _VOWELS
                       for c in _CODAS], dtype=object)
# Last syllables: the vowel and the coda are chosen so that no root ends in
# a Porter suffix (-ed, -eed, -ing, -er ...), in a vowel, or in a letter
# that joins a suffix into a longer rule (m + "ent", t + "ive", l + "ly"),
# and no coda is a prefix of another. Every root then has measure 2, and
# Porter stems the forms of every root slot alike whatever the seed draws.
_FINALS = np.array([o + v + c for o in _ONSETS
                    for v in ("a", "o", "u", "oo", "ou", "ea")
                    for c in ("d", "g", "k", "p", "r", "nd", "ng", "mp")],
                   dtype=object)
# Suffixes the Porter steps 1-5 act on, with the bare root the most common.
_SUFFIXES = ("", "s", "ed", "ing", "er", "ers", "ly", "ness", "ment",
             "ments", "ation", "ations", "ational", "ize", "ized", "izing",
             "ization", "ful", "fulness", "ous", "ousness", "ive", "iveness",
             "ity", "able", "ance", "ence", "ism", "ist", "al", "ally",
             "alism", "ement", "ic", "ical", "icate", "ative", "ent", "ant")
_STOPWORDS = ("i", "me", "my", "we", "our", "you", "your", "he", "him", "his",
              "she", "her", "it", "its", "they", "them", "their", "what",
              "which", "who", "this", "that", "these", "am", "is", "are",
              "was", "were", "be", "been", "have", "has", "had", "do", "does",
              "did", "a", "an", "the", "and", "but", "if", "or", "because",
              "as", "until", "while", "of", "at", "by", "for", "with",
              "about", "between", "into", "through", "to", "from", "up",
              "down", "in", "out", "on", "off", "over", "then", "once",
              "here", "there", "when", "where", "why", "how", "all", "any",
              "both", "each", "few", "more", "most", "other", "some", "no",
              "nor", "not", "only", "own", "same", "so", "than", "too",
              "very", "should")


SPAM_EVERY = 7          # one message in SPAM_EVERY is spam
HAM_LEN = 17.0          # mean message length in words
SPAM_LEN = 27.0
STOP_SHARE = 0.33       # chance a word is a stopword
OWN_SHARE = 0.8         # chance a content word uses the class ranking
PROMOTED = 0.06         # share of the lexicon each class ranking promotes
MAX_FORMS = 2           # a root takes 1 to MAX_FORMS word forms
STREAM_MESSAGES = 16000


@dataclass(frozen=True)
class Shape:
    """Size of one corpus family."""

    n_messages: int
    n_words: int             # content word forms in the lexicon
    zipf: float              # exponent of the rank-frequency law


SMS = Shape(n_messages=5574, n_words=12000, zipf=1.05)
BULK = Shape(n_messages=22296, n_words=60000, zipf=0.8)


def _suffix_slots(rng: np.random.Generator,
                  n_words: int) -> list[tuple[int, ...]]:
    """Suffix indices of each root slot, ``n_words`` word slots in all.

    A root takes 1 to ``MAX_FORMS`` distinct suffixes, the bare root eight
    times as likely as any other (weighted sampling without replacement by
    Gumbel top-k).
    """
    n_forms = rng.integers(1, MAX_FORMS + 1, size=n_words)
    ends = np.cumsum(n_forms)
    n_roots = int(np.searchsorted(ends, n_words)) + 1
    n_forms[n_roots - 1] -= ends[n_roots - 1] - n_words
    weight = np.log(np.array([8.0] + [1.0] * (len(_SUFFIXES) - 1)))
    keys = weight + rng.gumbel(size=(n_roots, len(_SUFFIXES)))
    order = np.argsort(-keys, axis=1)
    return [tuple(order[r, :n_forms[r]]) for r in range(n_roots)]


def _candidate_roots(rng: np.random.Generator, batch: int):
    """Endless pseudo-word roots of two syllables."""
    while True:
        first = _SYLLABLES[rng.integers(len(_SYLLABLES), size=batch)]
        yield from first + _FINALS[rng.integers(len(_FINALS), size=batch)]


def _lexicon(rng: np.random.Generator,
             slots: list[tuple[int, ...]]) -> list[str]:
    """Word forms of every slot, all distinct and none a stopword.

    Roots go to the slots in sorted order, so that on every seed the
    lexicographic order of the terms, which orders the matrix columns and
    breaks ties between equally good tree splits, follows the slots. A root
    whose forms clash with earlier words is skipped.
    """
    candidates = _candidate_roots(rng, len(slots))
    roots: set[str] = set()
    spare = len(slots) // 20 + 100
    while True:
        while len(roots) < len(slots) + spare:
            roots.add(next(candidates))
        words: list[str] = []
        seen = set(_STOPWORDS)
        ordered = iter(sorted(roots))
        for suffixes in slots:
            for root in ordered:
                forms = [root + _SUFFIXES[j] for j in suffixes]
                if not seen.intersection(forms):
                    break
            else:
                break  # out of roots: draw more and start over
            seen.update(forms)
            words += forms
        else:
            return words
        spare *= 2


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


def _promote(rng: np.random.Generator, base: np.ndarray,
             share: float) -> np.ndarray:
    """A ranking that moves a random ``share`` of ``base`` to the front."""
    n = base.shape[0]
    chosen = np.zeros(n, dtype=bool)
    chosen[rng.choice(n, size=int(share * n), replace=False)] = True
    return np.concatenate([base[chosen], base[~chosen]])


class Language:
    """The lexicon and rankings of one corpus family under one seed."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed
        structure = np.random.Generator(np.random.PCG64(shape.n_words))
        slots = _suffix_slots(structure, shape.n_words)
        base = structure.permutation(shape.n_words)
        self.rankings = {"shared": base,
                         "ham": _promote(structure, base, PROMOTED),
                         "spam": _promote(structure, base, PROMOTED)}
        self.content_p = _zipf_probs(shape.n_words, shape.zipf)
        self.stop_p = _zipf_probs(len(_STOPWORDS), 1.0)
        surface = np.random.Generator(np.random.PCG64([seed, 0]))
        self.words = np.array(_lexicon(surface, slots), dtype=object)

    def messages(self, sample: int, n: int) -> list[tuple[str, str]]:
        """``n`` (label, text) pairs of sample ``sample``."""
        n_words = self.shape.n_words
        rng = np.random.Generator(np.random.PCG64([n_words, sample]))
        spam = np.zeros(n, dtype=bool)
        spam[rng.choice(n, size=n // SPAM_EVERY, replace=False)] = True
        lengths = np.maximum(2, rng.poisson(np.where(spam, SPAM_LEN, HAM_LEN)))
        total = int(lengths.sum())
        owner = np.repeat(spam, lengths)
        draw = rng.choice(n_words, size=total, p=self.content_p)
        own = rng.random(total) < OWN_SHARE
        word_idx = self.rankings["shared"][draw]
        word_idx[own & ~owner] = self.rankings["ham"][draw[own & ~owner]]
        word_idx[own & owner] = self.rankings["spam"][draw[own & owner]]
        tokens = self.words[word_idx]
        stop = rng.random(total) < STOP_SHARE
        stop_draw = rng.choice(len(_STOPWORDS), size=int(stop.sum()),
                               p=self.stop_p)
        tokens[stop] = np.array(_STOPWORDS, dtype=object)[stop_draw]
        # digit runs: spam carries phone numbers, short codes and prices
        phone = rng.random(n) < np.where(spam, 0.6, 0.01)
        code = rng.random(n) < np.where(spam, 0.35, 0.0)
        price = rng.random(n) < np.where(spam, 0.3, 0.05)
        prices = rng.choice((1, 2, 5, 10, 50, 100, 150, 250, 500, 1000,
                             2000, 5000), size=n)

        # distinct digit runs, sorted by message, and codes above every
        # price: the columns keep their order on every seed
        surface = np.random.Generator(np.random.PCG64([self.seed, sample]))
        phones = 8 * 10**9 + np.sort(surface.choice(10**9, n, replace=False))
        codes = 60000 + np.sort(surface.choice(30000, n, replace=False))
        shout = surface.random(n) < np.where(spam, 0.4, 0.05)
        ends = surface.choice(("", ".", "!", "?", "..."), size=n)

        rows: list[tuple[str, str]] = []
        at = 0
        for i in range(n):
            words = list(tokens[at:at + lengths[i]])
            at += lengths[i]
            if shout[i]:
                words[0] = words[0].upper()
            else:
                words[0] = words[0].capitalize()
            if price[i]:
                words.append(f"£{prices[i]}")
            if phone[i]:
                words.append(f"0{phones[i]}")
            if code[i]:
                words.append(f"to {codes[i]}")
            rows.append(("spam" if spam[i] else "ham",
                         " ".join(words) + ends[i]))
        return rows


def corpus(shape: Shape, seed: int) -> tuple[Language, list[tuple[str, str]]]:
    """The labelled corpus of ``seed``, with the language it came from."""
    lang = Language(shape, seed)
    return lang, lang.messages(1, shape.n_messages)


def stream_texts(lang: Language) -> list[str]:
    """Unlabelled messages of the corpus's language, a second sample."""
    return [text for _, text in lang.messages(2, STREAM_MESSAGES)]


def write_tsv(path: str, rows: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{label}\t{text}\n" for label, text in rows)
