"""Walk through the two weighting schemes on a toy corpus.

Shows why the clement scheme never zeroes out a present term: the arcsinh
curve stays positive at document frequency = corpus size, and every
occupied cell receives the small idf/N offset on top.
"""

import numpy as np

from ctfidf.dfm import build_dfm, build_vocabulary
from ctfidf.preprocess import preprocess_corpus
from ctfidf.weighting import Scheme, apply_weighting, fit_weighting

texts = [
    "win a free prize call now",
    "free entry to the prize draw call today",
    "meeting at noon see you there",
    "call me when you get home",
    "the prize committee will call the winner",
]

docs = preprocess_corpus(texts)
vocab = build_vocabulary(docs)
counts = build_dfm(docs, vocab)

print(f"{len(texts)} documents, {len(vocab)} distinct stems\n")
print(f"{'stem':<10}{'docfreq':>8}{'ln(N/df)':>12}{'arcsinh(N/df)':>15}")
for term, j in sorted(vocab.term_to_index.items()):
    df = vocab.doc_freq[j]
    print(f"{term:<10}{df:>8}{np.log(len(texts) / df):>12.4f}"
          f"{np.arcsinh(len(texts) / df):>15.4f}")

classic = apply_weighting(counts, fit_weighting(vocab, Scheme.TFIDF_CLASSIC))
clement = apply_weighting(counts, fit_weighting(vocab, Scheme.CTF_IDF))

j = vocab.term_to_index["call"]
print(f"\n'call' appears in {vocab.doc_freq[j]} of {len(texts)} docs:")
print(f"  classic weights down column: {classic.toarray()[:, j].round(4)}")
print(f"  clement weights down column: {clement.toarray()[:, j].round(4)}")
print("\nA term present in every document would get classic weight exactly 0")
print("but keeps a positive clement weight, so no occupied cell is erased")
print("before the SVD step.")

dropped = (classic.toarray()[counts.toarray() > 0] == 0).sum()
kept = (clement.toarray()[counts.toarray() > 0] > 0).all()
print(f"\noccupied cells zeroed by classic: {dropped}; "
      f"all kept positive by clement: {kept}")
