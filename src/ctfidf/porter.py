"""Porter suffix-stripping stemmer.

Implements the 1980 algorithm, steps 1a through 5b, matching the behavior
of the author's canonical ANSI C implementation. That reference version
departs from the published paper in a few places that are deliberately
reproduced here:

* words of length 1 or 2 are returned unchanged,
* step 2 maps ``bli`` to ``ble`` (the paper had ``abli`` to ``able``),
* step 2 includes the extra rule ``logi`` to ``log``.

Only ASCII-alphabetic tokens are stemmed, and the rules expect them in
lowercase (an uppercase letter counts as a consonant); anything else
(digit runs, mixed tokens, non-ASCII) passes through unchanged.

Each step is a function from word to word on plain strings. Suffixes are
tested with ``str.endswith``, and the measure m of a stem is the number
of ``"vc"`` pairs in its consonant/vowel pattern, where ``y`` counts as a
vowel after a consonant. Steps 2 and 3 apply the first rule whose suffix
matches, and only if the remaining stem has m > 0; step 4 likewise stops
at the first matching suffix.
"""

from __future__ import annotations

import string

# y is left out: it is a vowel after a consonant and a consonant otherwise
_CV = str.maketrans({ch: "v" if ch in "aeiou" else "c"
                     for ch in string.ascii_letters if ch != "y"})


def _pattern(word: str) -> str:
    """One ``c`` or ``v`` per letter, the measure's consonant/vowel form."""
    cv = word.translate(_CV)
    while "y" in cv:  # leftmost first, so its left neighbour is settled
        i = cv.index("y")
        cv = cv[:i] + ("v" if cv[i - 1:i] == "c" else "c") + cv[i + 1:]
    return cv


def _m(stem: str) -> int:
    return _pattern(stem).count("vc")


def _cvc(stem: str) -> bool:
    """Ends consonant-vowel-consonant, the last not w, x or y."""
    return _pattern(stem).endswith("cvc") and stem[-1] not in "wxy"


def _step1ab(w: str) -> str:
    if w.endswith("s"):
        if w.endswith(("sses", "ies")):
            w = w[:-2]
        elif w[-2] != "s":
            w = w[:-1]
    if w.endswith("eed"):
        return w[:-1] if _m(w[:-3]) > 0 else w
    for suffix in ("ed", "ing"):
        if w.endswith(suffix) and "v" in _pattern(w[: -len(suffix)]):
            w = w[: -len(suffix)]
            if w.endswith(("at", "bl", "iz")):
                return w + "e"
            if len(w) > 1 and w[-1] == w[-2] and _pattern(w)[-1] == "c":
                return w if w[-1] in "lsz" else w[:-1]
            return w + "e" if _m(w) == 1 and _cvc(w) else w
    return w


def _step1c(w: str) -> str:
    return w[:-1] + "i" if w.endswith("y") and "v" in _pattern(w[:-1]) else w


_STEP2_RULES = {
    "ational": "ate", "tional": "tion",
    "enci": "ence", "anci": "ance",
    "izer": "ize",
    "bli": "ble", "alli": "al", "entli": "ent", "eli": "e", "ousli": "ous",
    "ization": "ize", "ation": "ate", "ator": "ate",
    "alism": "al", "iveness": "ive", "fulness": "ful", "ousness": "ous",
    "aliti": "al", "iviti": "ive", "biliti": "ble",
    "logi": "log",
}

_STEP3_RULES = {
    "icate": "ic", "ative": "", "alize": "al",
    "iciti": "ic",
    "ical": "ic", "ful": "",
    "ness": "",
}

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible",
    "ant", "ement", "ment", "ent", "ion", "ou",
    "ism", "ate", "iti", "ous", "ive", "ize",
)

_STEP2_SUFFIXES, _STEP3_SUFFIXES = tuple(_STEP2_RULES), tuple(_STEP3_RULES)


def _ending(w: str, suffixes: tuple[str, ...]) -> str:
    """The first of ``suffixes`` that ``w`` ends with, or ``""``."""
    if w.endswith(suffixes):  # one test turns most words away
        for suffix in suffixes:
            if w.endswith(suffix):
                return suffix
    return ""


def _replace(w: str, rules: dict[str, str], suffixes: tuple[str, ...]) -> str:
    """Steps 2 and 3: the first matching suffix is replaced if m(stem) > 0."""
    suffix = _ending(w, suffixes)
    if suffix and _m(w[: -len(suffix)]) > 0:
        return w[: -len(suffix)] + rules[suffix]
    return w


def _step4(w: str) -> str:
    suffix = _ending(w, _STEP4_SUFFIXES)
    if not suffix:
        return w
    stem = w[: -len(suffix)]
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return w
    return stem if _m(stem) > 1 else w


def _step5(w: str) -> str:
    if w.endswith("e"):
        a = _m(w[:-1])
        if a > 1 or (a == 1 and not _cvc(w[:-1])):
            w = w[:-1]
    if w.endswith("ll") and _m(w) > 1:
        w = w[:-1]
    return w


def porter_stem(token: str) -> str:
    """Stem a single lowercase token.

    Tokens that are not pure ASCII letters, or are shorter than 3
    characters, are returned unchanged.
    """
    if len(token) <= 2 or not (token.isascii() and token.isalpha()):
        return token
    w = _step1c(_step1ab(token))
    w = _replace(w, _STEP2_RULES, _STEP2_SUFFIXES)
    w = _replace(w, _STEP3_RULES, _STEP3_SUFFIXES)
    return _step5(_step4(w))
