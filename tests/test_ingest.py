from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctfidf.exceptions import (
    DegenerateStratumError,
    EncodingError,
    MalformedRowError,
    TooFewRecordsError,
    UnknownMappingKeyError,
)
from ctfidf.ingest import (
    LabeledCorpus,
    LoadFormat,
    RawRecord,
    SplitSpec,
    load_dataset,
    normalize_labels,
    split,
)


def write(tmp_path, content, name="data.tsv", mode="w"):
    path = tmp_path / name
    if mode == "wb":
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


class TestLoadDataset:
    def test_two_line_file(self, tmp_path):
        path = write(tmp_path, "ham\thello\nspam\twin cash\n")
        corpus = load_dataset(path, LoadFormat())
        assert len(corpus) == 2
        assert corpus.label_set == {"ham", "spam"}
        assert corpus.records[0] == RawRecord("ham", "hello")

    def test_file_order_preserved(self, tmp_path):
        rows = [f"l{i % 3}\ttext number {i}" for i in range(30)]
        path = write(tmp_path, "\n".join(rows) + "\n")
        corpus = load_dataset(path, LoadFormat())
        assert [r.text for r in corpus.records] == [f"text number {i}"
                                                    for i in range(30)]

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "LABEL,TEXT\nham,hi there\nspam,\"win, cash\"\n")
        corpus = load_dataset(path, LoadFormat(delimiter=",", has_header=True))
        assert len(corpus) == 2
        assert corpus.records[1].text == "win, cash"

    def test_tab_files_keep_raw_quotes(self, tmp_path):
        path = write(tmp_path, 'ham\t"quoted start, not csv\n')
        corpus = load_dataset(path, LoadFormat())
        assert corpus.records[0].text == '"quoted start, not csv'

    def test_malformed_row_aborts_with_line_number(self, tmp_path):
        path = write(tmp_path, "ham\thello\nonlyonefield\nspam\tx\n")
        with pytest.raises(MalformedRowError) as err:
            load_dataset(path, LoadFormat())
        assert err.value.line_number == 2

    def test_empty_text_rejected_by_default(self, tmp_path):
        path = write(tmp_path, "ham\t   \n")
        with pytest.raises(MalformedRowError, match="line 1: empty text"):
            load_dataset(path, LoadFormat())

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(str(tmp_path / "nope.tsv"), LoadFormat())

    def test_invalid_utf8(self, tmp_path):
        path = write(tmp_path, b"ham\t\xff\xfe broken\n", name="bad.tsv",
                     mode="wb")
        with pytest.raises(EncodingError):
            load_dataset(path, LoadFormat())

    def test_blank_lines_ignored(self, tmp_path):
        path = write(tmp_path, "ham\thi\n\nspam\tcash\n\n")
        assert len(load_dataset(path, LoadFormat())) == 2

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_lone_cr_end_lines(self, tmp_path, newline):
        content = newline.join(["ham\thello", "spam\twin cash", "",
                                "ham\tbye"]) + newline
        path = write(tmp_path, content.encode(), mode="wb")
        corpus = load_dataset(path, LoadFormat())
        assert corpus.records == (RawRecord("ham", "hello"),
                                  RawRecord("spam", "win cash"),
                                  RawRecord("ham", "bye"))

    def test_lone_cr_line_numbers(self, tmp_path):
        path = write(tmp_path, b"ham\thello\ronlyonefield\rspam\tx\r",
                     mode="wb")
        with pytest.raises(MalformedRowError) as err:
            load_dataset(path, LoadFormat())
        assert err.value.line_number == 2

    def test_quoted_newline_stays_in_comma_text(self, tmp_path):
        content = ('ham,"line one\nline two"\r\n'
                   'spam,"a\r\nb"\r\n'
                   'ham,plain\n')
        path = write(tmp_path, content.encode(), name="data.csv", mode="wb")
        corpus = load_dataset(path, LoadFormat(delimiter=","))
        assert corpus.records == (RawRecord("ham", "line one\nline two"),
                                  RawRecord("spam", "a\r\nb"),
                                  RawRecord("ham", "plain"))

    def test_invalid_utf8_after_a_malformed_row(self, tmp_path):
        # the whole file is checked before its rows: a bad byte anywhere
        # is reported, with its offset in the file
        path = write(tmp_path, b"onlyonefield\n" + b"ham\tok\n" * 5000
                     + b"ham\t\xff\n", name="bad.tsv", mode="wb")
        with pytest.raises(EncodingError, match="position 35017"):
            load_dataset(path, LoadFormat())


class TestNormalizeLabels:
    def corpus(self):
        return LabeledCorpus.from_records([
            RawRecord("ham", "a"), RawRecord("spam", "b"),
            RawRecord("smishing", "c"), RawRecord("smishing", "d")])

    def test_merge(self):
        out = normalize_labels(self.corpus(), {"smishing": "spam"})
        assert out.label_set == {"ham", "spam"}
        assert out.label_counts()["spam"] == 3

    def test_empty_mapping_identity(self):
        c = self.corpus()
        out = normalize_labels(c, {})
        assert out.records == c.records
        assert out.label_set == c.label_set

    def test_rename(self):
        out = normalize_labels(self.corpus(), {"ham": "legit"})
        assert out.label_set == {"legit", "spam", "smishing"}

    def test_unknown_key_strict(self):
        with pytest.raises(UnknownMappingKeyError):
            normalize_labels(self.corpus(), {"phish": "spam"})


def make_corpus(n_ham, n_spam):
    recs = [RawRecord("ham", f"h{i}") for i in range(n_ham)]
    recs += [RawRecord("spam", f"s{i}") for i in range(n_spam)]
    return LabeledCorpus.from_records(recs)


class TestSplit:
    def test_exact_seventy_thirty(self):
        train, test = split(make_corpus(5, 5), SplitSpec(0.7, seed=1))
        assert len(train) == 7
        assert len(test) == 3

    def test_determinism(self):
        c = make_corpus(40, 20)
        spec = SplitSpec(0.7, seed=99)
        a = split(c, spec)
        b = split(c, spec)
        assert a[0].records == b[0].records
        assert a[1].records == b[1].records

    def test_different_seeds_differ(self):
        c = make_corpus(40, 20)
        a = split(c, SplitSpec(0.7, seed=1))
        b = split(c, SplitSpec(0.7, seed=2))
        assert a[0].records != b[0].records

    def test_stratified_within_one_record(self):
        c = make_corpus(70, 30)
        train, test = split(c, SplitSpec(0.7, seed=5, stratified=True))
        counts = train.label_counts()
        assert abs(counts["ham"] - 49) <= 1
        assert abs(counts["spam"] - 21) <= 1
        assert len(train) == 70

    def test_partition_and_label_conservation(self):
        c = make_corpus(33, 14)
        train, test = split(c, SplitSpec(0.6, seed=7))
        all_texts = sorted(r.text for r in c.records)
        got = sorted(r.text for r in train.records + test.records)
        assert got == all_texts
        assert (Counter(train.labels()) + Counter(test.labels())
                == Counter(c.labels()))

    def test_too_few_records(self):
        c = LabeledCorpus.from_records([RawRecord("ham", "x")])
        with pytest.raises(TooFewRecordsError):
            split(c, SplitSpec(0.7, seed=0))

    def test_degenerate_stratum(self):
        recs = [RawRecord("ham", "a"), RawRecord("ham", "b"),
                RawRecord("spam", "only one")]
        with pytest.raises(DegenerateStratumError):
            split(LabeledCorpus.from_records(recs),
                  SplitSpec(0.7, seed=0, stratified=True))

    def test_unstratified_no_stratum_check(self):
        recs = [RawRecord("ham", "a"), RawRecord("ham", "b"),
                RawRecord("spam", "only one")]
        train, test = split(LabeledCorpus.from_records(recs),
                            SplitSpec(0.7, seed=0, stratified=False))
        assert len(train) == 2

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            SplitSpec(1.5, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(n_ham=st.integers(2, 60), n_spam=st.integers(2, 60),
           frac=st.floats(0.2, 0.8), seed=st.integers(0, 2**32 - 1))
    def test_partition_properties(self, n_ham, n_spam, frac, seed):
        c = make_corpus(n_ham, n_spam)
        train, test = split(c, SplitSpec(frac, seed=seed, stratified=True))
        n = len(c)
        assert len(train) + len(test) == n
        assert len(train) == int(frac * n + 0.5)
        texts = {r.text for r in train.records} | {r.text for r in test.records}
        assert len(texts) == n
        for lab, total in c.label_counts().items():
            got = train.label_counts().get(lab, 0)
            assert abs(got - frac * total) < 1 + 1e-9
