import hashlib
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctfidf import preprocess
from ctfidf.porter import porter_stem
from ctfidf.preprocess import (
    PreprocessConfig,
    load_stopwords,
    preprocess_corpus,
    remove_stopwords,
    stopword_list_hash,
    tokenize,
)


class TestTokenize:
    def test_punctuation_and_lowercase(self):
        assert tokenize("Win a FREE prize!!") == ["win", "a", "free", "prize"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digit_runs_preserved(self):
        assert tokenize("call 08001234567 now") == ["call", "08001234567", "now"]

    def test_apostrophes_split(self):
        assert tokenize("don't") == ["don", "t"]

    @given(st.text(max_size=200))
    def test_never_empty_or_uppercase(self, text):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()

    # ASCII text takes the translate-and-split path; every character class
    # the regex treats apart is drawn: "_", digits, both cases, and the
    # control characters \x1c-\x1f, which str.split also splits on
    @given(st.one_of(
        st.text(st.sampled_from("aZz09_ \t\n\x00\x1c\x1d\x1e\x1f\x7f-'!."),
                max_size=60),
        st.text(st.characters(max_codepoint=127), max_size=200),
        st.text(max_size=200)))
    def test_matches_the_regex(self, text):
        assert tokenize(text) == preprocess._TOKEN_RE.findall(text.lower())

    @given(st.text(max_size=200))
    def test_tokens_are_letters_or_digits(self, text):
        for tok in tokenize(text):
            assert all(c.isalnum() for c in tok)


class TestStopwords:
    def test_shipped_list_size_and_membership(self):
        sw = load_stopwords()
        assert len(sw) == 174
        for w in ["the", "is", "a", "yours", "very", "i"]:
            assert w in sw

    def test_filter_example(self):
        sw = load_stopwords()
        assert remove_stopwords(["the", "prize", "is", "yours"], sw) == ["prize"]

    def test_empty_and_identity(self):
        sw = load_stopwords()
        assert remove_stopwords([], sw) == []
        toks = ["prize", "winner", "cash"]
        assert remove_stopwords(toks, sw) == toks

    def test_hash_matches_shipped_file(self):
        cfg = PreprocessConfig()
        cfg.validate()
        assert cfg.stopword_hash == stopword_list_hash()
        assert len(cfg.stopword_hash) == 64

    def test_tampered_hash_rejected(self):
        cfg = PreprocessConfig(stopword_hash="0" * 64)
        with pytest.raises(ValueError, match="hash mismatch"):
            cfg.validate()


class TestPreprocessDoc:
    def test_spec_composition(self):
        [doc] = preprocess_corpus(["You have WON a guaranteed prize"])
        assert list(doc.stems) == ["won", "guarante", "prize"]

    def test_all_stopwords_becomes_empty(self):
        [doc] = preprocess_corpus(["you are the... the the"])
        assert doc.stems == ()

    def test_single_stem_fixed_point(self):
        [doc] = preprocess_corpus(["prize"])
        assert list(doc.stems) == ["prize"]

    def test_no_stem_is_a_stopword(self):
        """Stopword removal precedes stemming, observably."""
        sw = load_stopwords()
        texts = ["this is a guaranteed winning entry",
                 "you would have been doing it",
                 "once again the movie was very good"]
        for doc in preprocess_corpus(texts):
            for stem in doc.stems:
                assert stem not in sw

    def test_empty_docs_kept_in_corpus(self):
        docs = preprocess_corpus(["the", "prize winner", ""])
        assert len(docs) == 3
        assert docs[0].stems == ()
        assert docs[2].stems == ()

    def test_stems_each_distinct_kept_token_once(self, monkeypatch):
        calls = []

        def counting_stem(token):
            calls.append(token)
            return porter_stem(token)

        monkeypatch.setattr(preprocess, "porter_stem", counting_stem)
        texts = ["Win a prize, WIN big prizes", "the prize is yours 0800",
                 "win win 0800 prizes", ""]
        docs = preprocess_corpus(texts)
        assert sorted(calls) == ["0800", "big", "prize", "prizes", "win"]
        assert [d.stems for d in docs] == [
            ("win", "prize", "win", "big", "prize"), ("prize", "0800"),
            ("win", "win", "0800", "prize"), ()]
        # the cache belongs to one call: the next call stems afresh
        preprocess_corpus(texts[:1])
        assert sorted(calls[5:]) == ["big", "prize", "prizes", "win"]

    def test_memo_keeps_stems_between_calls(self, monkeypatch):
        calls = []

        def counting_stem(token):
            calls.append(token)
            return porter_stem(token)

        monkeypatch.setattr(preprocess, "porter_stem", counting_stem)
        texts = ["Win a prize, WIN big prizes", "the prize is yours 0800"]
        memo = {}
        first = preprocess_corpus(texts, memo=memo)
        assert memo == {"win": "win", "a": None, "prize": "prize",
                        "big": "big", "prizes": "prize", "the": None,
                        "is": None, "yours": None, "0800": "0800"}
        del calls[:]
        assert preprocess_corpus(texts, memo=memo) == first
        assert calls == []
        assert preprocess_corpus(texts) == first


def chunked_texts(n):
    """``n`` texts whose tokens repeat across chunks and also first appear
    in later ones: stopwords, digit runs, mixed and non-ASCII tokens."""
    words = ["Prizes", "winning", "THE", "you", "0800", "win2day", "cafés",
             "txt", "relational", "hopping"]
    return [" ".join(words[(i + k) % len(words)] for k in range(i % 5))
            + f", call {i // 40} now: word{i // 90}ing"
            for i in range(n)]


@pytest.mark.parametrize("with_memo", [False, True])
def test_chunks_decide_each_token_once(with_memo, monkeypatch):
    calls = []

    def counting_stem(token):
        calls.append(token)
        return porter_stem(token)

    texts = chunked_texts(2 * preprocess._CHUNK + 7)
    stopwords = load_stopwords()
    expected = [tuple(porter_stem(t) for t in tokenize(text)
                      if t not in stopwords) for text in texts]
    distinct = {t for text in texts for t in tokenize(text)
                if t not in stopwords}
    # with a memo, the second text's tokens are decided before the call
    memo = ({t: None if t in stopwords else porter_stem(t)
             for t in tokenize(texts[1])} if with_memo else None)
    held = set(memo or ())
    monkeypatch.setattr(preprocess, "porter_stem", counting_stem)
    docs = preprocess_corpus(texts, memo=memo)
    assert [d.stems for d in docs] == expected
    assert sorted(calls) == sorted(distinct - held)


def test_working_memory_is_one_chunk_of_tokens():
    """Above its output, a call holds one chunk's token lists at a time,
    not the whole corpus's."""
    texts = chunked_texts(8 * preprocess._CHUNK)
    memo = {}
    preprocess_corpus(texts, memo=memo)  # the memo then holds every token
    tracemalloc.start()
    try:
        chunk = [tokenize(text) for text in texts[:preprocess._CHUNK]]
        one_chunk = tracemalloc.get_traced_memory()[0]
        del chunk
        tracemalloc.reset_peak()
        docs = preprocess_corpus(texts, memo=memo)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(docs) == len(texts)
    assert peak - after <= 1.5 * one_chunk


# a small vocabulary so that tokens repeat within and across texts: words
# that Porter rewrites, stopwords, digit runs, mixed and short tokens
WORDS = ("prizes", "prize", "winning", "won", "the", "is", "you", "a", "i",
         "0800", "42", "win2day", "cafés", "txt", "ok", "relational",
         "generalization", "hopping")


def texts_from(words):
    return st.lists(st.lists(st.sampled_from(words), max_size=12).map(
        lambda ws: " ".join(ws).upper()
        if len(ws) % 3 == 0 else ", ".join(ws)), max_size=8)


# the axes pick the words the texts are drawn from: with or without digit
# runs, and with or without tokens shorter than 3; both are always kept
@pytest.mark.parametrize("digits", [False, True])
@pytest.mark.parametrize("min_length", [1, 3])
@given(data=st.data())
def test_corpus_matches_per_token_reference(digits, min_length, data):
    words = [w for w in WORDS
             if len(w) >= min_length and (digits or not w.isdigit())]
    texts = data.draw(texts_from(words))
    stopwords = load_stopwords()

    def kept(token):
        return token not in stopwords

    expected = [tuple(porter_stem(t) for t in tokenize(text) if kept(t))
                for text in texts]
    docs = preprocess_corpus(texts)
    assert [d.stems for d in docs] == expected
