"""The Porter stemming algorithm (Porter, 1980), implemented from scratch.

The paper stems all tokens with the Porter stemmer "to address the various
forms of words (e.g. cooking, cook, cooked) and phrase sparsity" and later
unstems for visualisation.  This is a faithful implementation of the original
five-step algorithm described in

    M. F. Porter, "An algorithm for suffix stripping",
    Program 14(3), 130-137, 1980.

The implementation follows the classic measure-based formulation: a word is
viewed as ``[C](VC)^m[V]`` where ``C``/``V`` are maximal consonant/vowel
sequences and ``m`` is the *measure*.  Each step applies the longest matching
suffix rule whose condition is satisfied.
"""

from __future__ import annotations

from typing import Dict


class PorterStemmer:
    """Porter stemmer with a per-instance memo cache.

    Stemming is a pure function of the word, and real corpora repeat words
    heavily, so each instance caches its results — this is the dominant
    preprocessing cost on the serving hot path.  The cache is bounded (it
    resets after :data:`CACHE_LIMIT` distinct words) so long-lived server
    processes cannot grow it without bound.

    Usage::

        stemmer = PorterStemmer()
        stemmer.stem("relational")   # -> "relat"
        stemmer.stem("caresses")     # -> "caress"
    """

    #: Distinct words memoised before the cache resets.
    CACHE_LIMIT = 262144

    def __init__(self) -> None:
        self._cache: dict[str, str] = {}

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (lowercased), memoised."""
        cached = self._cache.get(word)
        if cached is None:
            if len(self._cache) >= self.CACHE_LIMIT:
                self._cache.clear()
            cached = self._cache[word] = self._stem_uncached(word)
        return cached

    _VOWELS = "aeiou"

    # -- public API -----------------------------------------------------------
    def _stem_uncached(self, word: str) -> str:
        """Compute the Porter stem of ``word`` (lowercased)."""
        word = word.lower()
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- character classification ----------------------------------------------
    def _is_consonant(self, word: str, i: int) -> bool:
        ch = word[i]
        if ch in self._VOWELS:
            return False
        if ch == "y":
            return i == 0 or not self._is_consonant(word, i - 1)
        return True

    def _measure(self, stem: str) -> int:
        """Return m, the number of VC sequences in ``stem``."""
        forms = []
        for i in range(len(stem)):
            forms.append("c" if self._is_consonant(stem, i) else "v")
        collapsed = []
        for f in forms:
            if not collapsed or collapsed[-1] != f:
                collapsed.append(f)
        return "".join(collapsed).count("vc")

    def _contains_vowel(self, stem: str) -> bool:
        return any(not self._is_consonant(stem, i) for i in range(len(stem)))

    def _ends_double_consonant(self, word: str) -> bool:
        return (len(word) >= 2 and word[-1] == word[-2]
                and self._is_consonant(word, len(word) - 1))

    def _ends_cvc(self, word: str) -> bool:
        """True when the word ends consonant-vowel-consonant, the final
        consonant not being w, x or y (the *o rule)."""
        if len(word) < 3:
            return False
        if not self._is_consonant(word, len(word) - 3):
            return False
        if self._is_consonant(word, len(word) - 2):
            return False
        if not self._is_consonant(word, len(word) - 1):
            return False
        return word[-1] not in "wxy"

    # -- rule application -------------------------------------------------------
    def _try_rules(self, word: str, rules: Dict[str, str], min_measure: int) -> str:
        """Apply the longest matching rule from ``rules`` (suffix → new suffix)
        subject to measure > ``min_measure``.  Only the longest matching suffix
        is considered, as in the original algorithm."""
        match = ""
        for suffix in rules:
            if word.endswith(suffix) and len(suffix) > len(match):
                match = suffix
        if not match:
            return word
        stem = word[: len(word) - len(match)]
        if self._measure(stem) > min_measure:
            return stem + rules[match]
        return word

    # -- the five steps ----------------------------------------------------------
    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            if self._measure(stem) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed"):
            stem = word[:-2]
            if self._contains_vowel(stem):
                word = stem
                flag = True
        elif word.endswith("ing"):
            stem = word[:-3]
            if self._contains_vowel(stem):
                word = stem
                flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_RULES = {
        "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
        "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
        "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
        "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
        "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
    }

    def _step2(self, word: str) -> str:
        return self._try_rules(word, self._STEP2_RULES, 0)

    _STEP3_RULES = {
        "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
        "ical": "ic", "ful": "", "ness": "",
    }

    def _step3(self, word: str) -> str:
        return self._try_rules(word, self._STEP3_RULES, 0)

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _step4(self, word: str) -> str:
        match = ""
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix) and len(suffix) > len(match):
                match = suffix
        if not match:
            return word
        stem = word[: len(word) - len(match)]
        if match == "ion" and (not stem or stem[-1] not in "st"):
            return word
        if self._measure(stem) > 1:
            return stem
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1:
                return stem
            if m == 1 and not self._ends_cvc(stem):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if (self._measure(word) > 1 and self._ends_double_consonant(word)
                and word.endswith("l")):
            return word[:-1]
        return word
