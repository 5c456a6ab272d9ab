"""Scenario-term inverted index and the scope score it supports.

The index maps every normalized token of every item's title and attributes
to the items carrying it.  That vocabulary doubles as the definition of
"on-topic": a consultation's scope score counts how many distinct catalog
terms it mentions, ramping linearly up to a saturation threshold.  A chat
about politics matches nothing and scores 0; a consultation naming a product
and a few of its attributes saturates at 1.

Normalization is deliberately blunt: lowercase, strip everything that is not
a letter or digit to spaces, split, drop stopwords and single-character
tokens.  Every component that compares text (this index, the action-linkage
rules, the lexical retrieval baseline) uses the same `normalize`, so their
vocabularies always agree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Sequence, Set

from .corpus import Consultation, Corpus, read_jsonl, write_lines

# Compact English function-word list.  Kept short on purpose: consultation
# text is noisy chat, and aggressive stopping starts eating product terms.
STOPWORDS: frozenset = frozenset(
    """
    a an and are as at be but by can could do does for from had has have he
    her his how i if in is it its me my no not of on or our she should so
    than that the their them they this to was we were what when which who
    will with would you your
    """.split()
)

_DROP = re.compile(r"[^a-z0-9 \t\n\r]")

#: Every token `normalize` drops: the stopwords and the 36 one-character
#: tokens a cleaned text can hold, so one set lookup decides each token.
_DROPPED = STOPWORDS | set("abcdefghijklmnopqrstuvwxyz0123456789")


def normalize(text: str) -> List[str]:
    """Lowercase, strip punctuation, split, drop stopwords and 1-char tokens.

    Tokens keep their original order and multiplicity, so the result serves
    both as a sequence (contiguity matching) and, via set(), as a term bag.
    """
    cleaned = _DROP.sub(" ", text.lower())
    return [tok for tok in cleaned.split() if tok not in _DROPPED]


@dataclass(frozen=True)
class ScopeParams:
    lambda_thresh: int = 4

    def __post_init__(self):
        if self.lambda_thresh < 1:
            raise ValueError("lambda_thresh must be at least 1")


@dataclass
class InvertedIndex:
    """Term -> sorted item ids, over the whole catalog."""

    postings: Dict[str, List[str]]


def build_index(corpus: Corpus) -> InvertedIndex:
    """Index every item under each normalized title/attribute token.

    Items are visited in catalog order and each adds a term once, so every
    posting list comes out sorted and free of repeats, whatever order the
    items arrive in.
    """
    postings: Dict[str, List[str]] = {}
    for iid in corpus.item_ids:
        for term in set(normalize(corpus.items[iid].text)):
            postings.setdefault(term, []).append(iid)
    return InvertedIndex(postings={term: postings[term] for term in sorted(postings)})


def matched_terms(index: InvertedIndex, c: Consultation) -> Set[str]:
    """Distinct index terms occurring as tokens in the consultation."""
    return {tok for tok in set(normalize(c.text)) if tok in index.postings}


def scope_value(index: InvertedIndex, c: Consultation, p: ScopeParams = ScopeParams()) -> float:
    """Scope score in [0, 1]: matched-term count, ramped then saturated.

    Zero matches score 0, `lambda_thresh` or more score 1, linear between.
    The saturation reflects what the score is for: weeding out off-topic
    consultations, not discriminating among on-topic ones.  The score
    depends on the consultation alone, so it is computed once per
    consultation, not once per search.
    """
    x = len(matched_terms(index, c))
    if x < p.lambda_thresh:
        return x / p.lambda_thresh
    return 1.0


def index_line(term: str, items: Sequence[str]) -> str:
    """One `index.jsonl` row with its newline: byte for byte
    ``json.dumps({"term": term, "items": items}, sort_keys=True)``.  Strings
    are quoted by the function the C encoder calls."""
    return f'{{"items": [{", ".join(map(_quote, items))}], "term": {_quote(term)}}}\n'


def dump_index(index: InvertedIndex, path) -> None:
    """Write `index.jsonl`, one term per line, lexicographic and bit-stable."""
    postings = index.postings
    write_lines(path, (index_line(term, postings[term]) for term in sorted(postings)))


def load_index(path) -> InvertedIndex:
    """Read an `index.jsonl` dump back into an InvertedIndex.  A term must
    have one row."""
    postings: Dict[str, List[str]] = {}
    for n, row in read_jsonl(path, "index"):
        term, items = row.get("term"), row.get("items")
        try:
            if not (isinstance(term, str) and isinstance(items, list)):
                raise TypeError
            "".join(items)  # in C: a TypeError for any item id that is not a str
        except TypeError:
            raise ValueError(f"{path}:{n}: malformed index row: want a string "
                             "term and a list of item-id strings") from None
        if term in postings:
            raise ValueError(f"{path}:{n}: second index row for term {term!r}")
        postings[term] = items
    return InvertedIndex(postings)
