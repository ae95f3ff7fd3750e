"""
The golden worked examples themselves.  The products, actions and
pairings they fix are checked by `dilutetl.checks` (acceptance criterion 6
and `verify`).
"""

import json
import os

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "src", "dilutetl",
                      "goldens", "worked_examples.json")


def test_vacancy_consistency():
    """Sanity on the stored fixtures themselves: JSON fields agree."""
    with open(GOLDEN, encoding="utf-8") as fh:
        g = json.load(fh)
    for case in g["products"]:
        for key in ("a", "b"):
            d = case[key]
            used = {s for pair in d["pairs"] for s in pair}
            assert sorted(set(range(2 * d["n"])) - used) == d["vacant"]
