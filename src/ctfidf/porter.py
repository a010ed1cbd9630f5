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

:func:`porter_stem` runs the steps inline on plain strings. The measure m
of a stem is the number of ``"vc"`` pairs in its consonant/vowel pattern,
where ``y`` counts as a vowel after a consonant. Steps 2 and 3 apply the
first rule whose suffix matches, and only if the remaining stem has m > 0;
step 4 likewise stops at the first matching suffix. As in the reference C,
which switches on a letter, steps 2-4 look their candidate rules up by the
word's last letter: each letter holds its rules in the order of the rule
list, so the first suffix that matches is the one an in-order scan of the
whole list would find.
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


# suffix -> replacement, in the order the steps try them
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

# step 4 removes its suffix outright
_STEP4_RULES = dict.fromkeys((
    "al", "ance", "ence", "er", "ic", "able", "ible",
    "ant", "ement", "ment", "ent", "ion", "ou",
    "ism", "ate", "iti", "ous", "ive", "ize",
), "")


def _by_last_letter(rules: dict[str, str]
                    ) -> dict[str, tuple[tuple[str, int, str], ...]]:
    """Each last letter's ``(suffix, length, replacement)`` rules, in order.

    Only rules whose suffix ends in a word's last letter can match it, so
    scanning those in list order finds the rule a scan of all would.
    """
    table: dict[str, list[tuple[str, int, str]]] = {}
    for suffix, replacement in rules.items():
        table.setdefault(suffix[-1], []).append(
            (suffix, len(suffix), replacement))
    return {letter: tuple(entries) for letter, entries in table.items()}


_STEP2, _STEP3, _STEP4 = map(_by_last_letter,
                             (_STEP2_RULES, _STEP3_RULES, _STEP4_RULES))


def porter_stem(token: str) -> str:
    """Stem a single lowercase token.

    Tokens that are not pure ASCII letters, or are shorter than 3
    characters, are returned unchanged.
    """
    if len(token) <= 2 or not (token.isascii() and token.isalpha()):
        return token
    w = token
    # step 1a: plurals
    if w[-1] == "s":
        if w.endswith(("sses", "ies")):
            w = w[:-2]
        elif w[-2] != "s":
            w = w[:-1]
    # step 1b: -eed, -ed, -ing
    if w.endswith("eed"):
        if _m(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith(("ed", "ing")):
        stem = w[:-2] if w[-1] == "d" else w[:-3]
        cv = _pattern(stem)
        if "v" in cv:
            w = stem
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif len(w) > 1 and w[-1] == w[-2] and cv[-1] == "c":
                if w[-1] not in "lsz":
                    w = w[:-1]
            elif _m(w) == 1 and _cvc(w):
                w += "e"
    # step 1c: y -> i after a vowel somewhere in the stem
    if w[-1] == "y" and "v" in _pattern(w[:-1]):
        w = w[:-1] + "i"
    # steps 2 and 3: the first matching suffix is replaced if m(stem) > 0
    for rules in (_STEP2, _STEP3):
        for suffix, n, replacement in rules.get(w[-1], ()):
            if w.endswith(suffix):
                if _m(w[:-n]) > 0:
                    w = w[:-n] + replacement
                break
    # step 4: the first matching suffix is removed if m(stem) > 1
    for suffix, n, _ in _STEP4.get(w[-1], ()):
        if w.endswith(suffix):
            stem = w[:-n]
            if _m(stem) > 1 and (suffix != "ion" or stem[-1:] in ("s", "t")):
                w = stem
            break
    # step 5a: a final e goes if m > 1, or if m == 1 and not *o
    if w[-1] == "e":
        a = _m(w[:-1])
        if a > 1 or (a == 1 and not _cvc(w[:-1])):
            w = w[:-1]
    # step 5b: -ll -> -l if m > 1
    if w.endswith("ll") and _m(w) > 1:
        w = w[:-1]
    return w
