"""Stemmer regression tests against the frozen reference vocabulary."""

from pathlib import Path

import pytest

from ctfidf import porter
from ctfidf.porter import porter_stem

PAIRS_FILE = Path(__file__).parent / "data" / "porter_pairs.tsv"


def load_pairs():
    pairs = []
    for line in PAIRS_FILE.read_text(encoding="utf-8").splitlines():
        word, stem = line.split("\t")
        pairs.append((word, stem))
    return pairs


def test_reference_vocabulary_full_agreement():
    pairs = load_pairs()
    assert len(pairs) > 20000
    bad = [(w, porter_stem(w), s) for w, s in pairs if porter_stem(w) != s]
    assert bad == [], f"{len(bad)} disagreements, first 10: {bad[:10]}"


@pytest.mark.parametrize("word,expected", [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("rational", "ration"),
    ("generalizations", "gener"),
    ("oscillators", "oscil"),
    ("txt", "txt"),
    ("pls", "pl"),
    ("guarantee", "guarante"),
])
def test_classic_pairs(word, expected):
    assert porter_stem(word) == expected


def test_short_tokens_are_fixed_points():
    for tok in ["a", "is", "be", "tv", "ok", "x"]:
        assert porter_stem(tok) == tok


def test_non_alpha_passthrough():
    assert porter_stem("08001234567") == "08001234567"
    assert porter_stem("win2day") == "win2day"
    assert porter_stem("cafés") == "cafés"


def test_idempotent_on_reference_outputs_with_documented_exceptions():
    """Re-stemming a reference stem is a no-op outside the frozen list.

    The algorithm is not universally idempotent (e.g. acceler -> accel);
    the exceptions observed on this vocabulary are frozen alongside the
    pairs so any behavioral drift shows up.
    """
    exceptions = {}
    exc_file = PAIRS_FILE.parent / "porter_idempotence_exceptions.tsv"
    for line in exc_file.read_text(encoding="utf-8").splitlines():
        stem, restem = line.split("\t")
        exceptions[stem] = restem
    for _, stem in load_pairs():
        expected = exceptions.get(stem, stem)
        assert porter_stem(stem) == expected


STEPS = {2: (porter._STEP2_RULES, porter._STEP2),
         3: (porter._STEP3_RULES, porter._STEP3),
         4: (porter._STEP4_RULES, porter._STEP4)}
# words that end in two or three rule suffixes at once
NESTED = ("settlement", "agreement", "ement", "cement", "moment", "ment",
          "parent", "relational", "rational", "ational", "conditional",
          "tional", "sensation", "organization", "ization", "decisiveness",
          "iveness", "ness", "usefulness", "fulness", "callousness",
          "ousness", "radical", "ical", "formalism", "alism", "ism",
          "frivoliti", "iviti", "abiliti", "biliti", "aliti", "iti",
          "communicate", "icate", "ate", "relative", "ative", "ive",
          "hopefulli", "alli", "entli", "eli", "ousli", "bli", "anci",
          "enci", "analogi", "logi", "digitizer", "izer", "er", "collection",
          "tion", "ion", "ent", "ant", "ance", "ence", "able", "ible")


def first_in_list_order(rules, word):
    return next((suffix for suffix in rules if word.endswith(suffix)), None)


def first_by_last_letter(table, word):
    return next((suffix for suffix, _, _ in table.get(word[-1], ())
                 if word.endswith(suffix)), None)


@pytest.mark.parametrize("step", sorted(STEPS))
def test_last_letter_dispatch_finds_the_in_order_suffix(step):
    rules, table = STEPS[step]
    entries = sorted(entry for group in table.values() for entry in group)
    assert entries == sorted((suffix, len(suffix), replacement)
                             for suffix, replacement in rules.items())
    suffixes = [suffix for rules, _ in STEPS.values() for suffix in rules]
    words = (suffixes + ["x" + suffix for suffix in suffixes] + list(NESTED)
             + [word for word, _ in load_pairs()])
    for word in words:
        assert first_by_last_letter(table, word) \
            == first_in_list_order(rules, word), word
