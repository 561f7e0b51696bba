"""Word ↔ integer-id mapping with frequency bookkeeping and unstemming.

The problem definition (paper Section 2) indexes all unique words with a
vocabulary of ``V`` words; tokens are then integers ``1..V`` (0-based here).
Because the pipeline stems words before mining, the vocabulary also tracks,
for every stem, the most frequent surface form that produced it so that
visualisations can "unstem" phrases back to readable English (Section 7.1).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence


class Vocabulary:
    """Bidirectional word/id mapping.

    Attributes
    ----------
    word_to_id:
        Mapping from (stemmed) word string to integer id.
    id_to_word:
        List such that ``id_to_word[i]`` is the word with id ``i``.
    """

    def __init__(self) -> None:
        self.word_to_id: Dict[str, int] = {}
        self.id_to_word: List[str] = []
        self._frequencies: List[int] = []
        # stem -> Counter of surface forms that stemmed to it
        self._surface_forms: Dict[str, Counter] = {}

    # -- size / lookup ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def id_of(self, word: str) -> int:
        """Return the id of ``word``; raises ``KeyError`` when absent."""
        return self.word_to_id[word]

    def word_of(self, word_id: int) -> str:
        """Return the word string for ``word_id``."""
        return self.id_to_word[word_id]

    def frequency_of(self, word_id: int) -> int:
        """Return the corpus frequency recorded for ``word_id``."""
        return self._frequencies[word_id]

    # -- construction -----------------------------------------------------------
    def add(self, word: str, count: int = 1, surface_form: Optional[str] = None) -> int:
        """Add an occurrence of ``word`` and return its id.

        ``surface_form`` is the original (unstemmed) token; recording it lets
        :meth:`unstem` recover the most common readable form later.
        """
        word_id = self.word_to_id.get(word)
        if word_id is None:
            word_id = len(self.id_to_word)
            self.word_to_id[word] = word_id
            self.id_to_word.append(word)
            self._frequencies.append(0)
        self._frequencies[word_id] += count
        if surface_form is not None:
            forms = self._surface_forms.get(word)
            if forms is None:
                forms = self._surface_forms[word] = Counter()
            forms[surface_form] += count
        return word_id

    def encode(self, tokens: Sequence[str], grow: bool = True) -> List[int]:
        """Encode ``tokens`` as word ids.

        With ``grow=False`` unknown tokens are skipped instead of added, which
        is what held-out perplexity evaluation needs.
        """
        ids: List[int] = []
        for token in tokens:
            if grow:
                ids.append(self.add(token))
            else:
                word_id = self.word_to_id.get(token)
                if word_id is not None:
                    ids.append(word_id)
        return ids

    def decode(self, word_ids: Iterable[int]) -> List[str]:
        """Return the word strings for ``word_ids``."""
        return [self.id_to_word[i] for i in word_ids]

    # -- unstemming ---------------------------------------------------------------
    def unstem(self, word: str) -> str:
        """Return the most frequent surface form recorded for stem ``word``.

        Falls back to the stem itself when no surface form was recorded (e.g.
        for synthetic corpora that skip stemming).
        """
        forms = self._surface_forms.get(word)
        if not forms:
            return word
        return forms.most_common(1)[0][0]

    def unstem_id(self, word_id: int) -> str:
        """Unstem by word id."""
        return self.unstem(self.id_to_word[word_id])

    def unstem_phrase(self, word_ids: Sequence[int]) -> str:
        """Return the readable (unstemmed, space-joined) form of a phrase."""
        return " ".join(self.unstem_id(i) for i in word_ids)

    # -- serialisation --------------------------------------------------------------
    def export_entries(self) -> List[tuple[str, int, str]]:
        """Export the vocabulary as ``(word, frequency, surface_form)`` rows.

        Returns
        -------
        list of tuple
            One ``(word, frequency, best_surface_form)`` triple per word id,
            in id order.  Only the *most frequent* surface form of each stem
            is exported (that is all :meth:`unstem` ever consults), so the
            export is lossy with respect to minority surface spellings.

        See Also
        --------
        from_entries : rebuild a vocabulary from exported rows.
        """
        return [
            (word, self._frequencies[word_id], self.unstem(word))
            for word_id, word in enumerate(self.id_to_word)
        ]

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[str, int, str]]) -> "Vocabulary":
        """Rebuild a vocabulary from :meth:`export_entries` rows.

        Parameters
        ----------
        entries:
            Iterable of ``(word, frequency, surface_form)`` triples; word ids
            are assigned in iteration order, so feeding back the rows of
            :meth:`export_entries` reproduces the original id assignment.

        Returns
        -------
        Vocabulary
            A vocabulary for which ``id_of``, ``frequency_of`` and
            :meth:`unstem` agree with the exporting instance.
        """
        vocabulary = cls()
        for word, frequency, surface_form in entries:
            vocabulary.add(str(word), count=int(frequency),
                           surface_form=str(surface_form))
        return vocabulary

    def export_state(self) -> List[tuple[str, int, List[tuple[str, int]]]]:
        """Export the vocabulary *losslessly*, surface-form counters included.

        Where :meth:`export_entries` keeps only each stem's single best
        surface form (all :meth:`unstem` consults, and all the artifact
        bundles persist), this export also carries every minority surface
        spelling with its count, in first-seen order.  That full fidelity is
        what incremental pipelines (``repro.stream``) need between ingests:
        a vocabulary restored with :meth:`from_state` and then grown with
        more documents behaves *identically* to one that saw all documents
        in a single pass — including :meth:`unstem` tie-breaking, which
        depends on surface-form insertion order and exact counts.

        Returns
        -------
        list of tuple
            One ``(word, frequency, [(surface_form, count), ...])`` row per
            word id, in id order.
        """
        return [
            (word, self._frequencies[word_id],
             list(self._surface_forms.get(word, {}).items()))
            for word_id, word in enumerate(self.id_to_word)
        ]

    @classmethod
    def from_state(cls, rows: Iterable[tuple[str, int, Iterable[tuple[str, int]]]],
                   ) -> "Vocabulary":
        """Rebuild a vocabulary from :meth:`export_state` rows, losslessly.

        Parameters
        ----------
        rows:
            ``(word, frequency, surface_form_counts)`` triples; word ids are
            assigned in iteration order (so feeding back
            :meth:`export_state` reproduces the original id assignment),
            and each stem's surface-form counter is restored form by form
            in the exported order.

        Returns
        -------
        Vocabulary
            Indistinguishable from the exporting instance: same ids,
            frequencies, and surface-form counters (so further :meth:`add`
            calls continue exactly where the exporter left off).
        """
        vocabulary = cls()
        for word, frequency, forms in rows:
            word = str(word)
            word_id = len(vocabulary.id_to_word)
            vocabulary.word_to_id[word] = word_id
            vocabulary.id_to_word.append(word)
            vocabulary._frequencies.append(int(frequency))
            restored = Counter()
            for form, count in forms:
                restored[str(form)] = int(count)
            if restored:
                vocabulary._surface_forms[word] = restored
        return vocabulary

    # -- pruning -------------------------------------------------------------------
    def top_words(self, n: int) -> List[str]:
        """Return the ``n`` most frequent words (by recorded frequency)."""
        order = sorted(range(len(self.id_to_word)),
                       key=lambda i: (-self._frequencies[i], self.id_to_word[i]))
        return [self.id_to_word[i] for i in order[:n]]
