"""Golden canonical forms: the canonical text of a seeded corpus of wide trees.

`golden_canonical.json` holds `print_expr` of each tree that
`test_expr.wide_corpus` draws from its seed, in order.  Canonical order sorts
by printed text, so these texts must not depend on the hash seed.  A change to
any of them is a change to the canonical form: update the file by hand and
say why in the change log.
"""

import json
from pathlib import Path

from adamsrr.expr import print_expr
from test_expr import wide_corpus

GOLDEN = json.loads(Path(__file__).with_name("golden_canonical.json").read_text(encoding="utf-8"))


def test_canonical_texts_of_the_wide_corpus():
    texts = GOLDEN["texts"]
    got = [print_expr(e) for e in wide_corpus(GOLDEN["seed"], len(texts))]
    assert [(i, g) for i, (g, want) in enumerate(zip(got, texts)) if g != want] == []
