"""Output checking: committed digests plus an independent reference.

``expected.json`` holds, per document variant and workload, the sha256
(first 16 hex digits) of the generated document and of every query's
``to_xml()`` bytes.  The digests are only ever written by
``run.py --regen-expected``, which refuses to write unless each TLC
result also equals the result of an *independent* evaluator in an
order-insensitive canonical form (:func:`canonical`).

Why document variants instead of a reference computed per seed: the
navigational interpreter needs minutes for the join queries at the
benchmark's factors (x8 > 4 min, x3 103 s at factor 0.02), far beyond a
run's budget.  ``--seed`` therefore picks one of :data:`VARIANTS`
pre-verified documents (and fuzzed-text sets) and, in full, the client
request order; every seed is checked at full strength for free.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 20040613
VARIANTS = 4
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Queries whose navigational plan is super-quadratic in practice (NAV
#: did not finish in 40 s at factor 0.02; x9 is cubic): their reference
#: is the GTP algebra, which shares the store but not TLC's translator,
#: pattern matcher or operators.  Everything else is checked against NAV.
GTP_REFERENCE = frozenset({"x3", "x8", "x9", "x11", "x12", "Q1", "Q2"})


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def doc_seed(seed: int) -> int:
    """The generator/fuzzer seed of ``seed``'s variant; the default
    seed maps to itself."""
    return DEFAULT_SEED - DEFAULT_SEED % VARIANTS + variant_of(seed)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def canonical(xml: str) -> List[str]:
    """Order-insensitive form of a serialised forest: ``to_xml`` puts
    one tree per line, so the sorted lines ignore tree order only."""
    return sorted(xml.split("\n"))


def reference_engine(name: str) -> str:
    return "gtp" if name in GTP_REFERENCE else "nav"


def verified_digest(
    engine, name: str, text: str, optimize: bool = False
) -> Tuple[Optional[str], str]:
    """``(digest of the TLC bytes, "")`` when TLC and the reference
    evaluator agree, else ``(None, reason)``."""
    tlc = engine.run(text, optimize=optimize).to_xml()
    via = reference_engine(name)
    ref = engine.run(text, engine=via).to_xml()
    if canonical(tlc) != canonical(ref):
        return None, f"{name}: TLC result differs from the {via} reference"
    return digest(tlc), ""


def load_expected() -> Dict[str, dict]:
    """``{variant: {workload: {"factor", "doc", "results"}}}``; empty
    when the file is absent (every run then computes references)."""
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as stream:
        return json.load(stream)["variants"]


def write_expected(variants: Dict[str, dict]) -> None:
    payload = {
        "comment": (
            "sha256[:16] of the generated document and of each query's "
            "to_xml() bytes; written only by run.py --regen-expected "
            "after every result matched its NAV/GTP reference"
        ),
        "default_seed": DEFAULT_SEED,
        "variants": variants,
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=1, sort_keys=True)
        stream.write("\n")
