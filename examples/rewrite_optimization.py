#!/usr/bin/env python
"""The Section 4 rewrites, step by step.

Shows how the optimizer detects redundant pattern-tree work in the plan
for Q1, rewrites it with Shadow / Illuminate (or Flatten), and what the
rewrite buys: the query goes to the database once for the shared
``bidder`` nodes instead of twice.
"""

from repro import Engine
from repro.rewrites import (
    find_flatten_sites,
    find_illuminate_sites,
    apply_flatten,
    apply_illuminate,
    optimize,
)
from repro.xquery import translate_query

Q1 = '''
FOR $p IN document("auction.xml")//person
FOR $o IN document("auction.xml")//open_auction
WHERE count($o/bidder) > 4 AND $p//age > 25
  AND $p/@id = $o/bidder//@person
RETURN <person name={$p/name/text()}> $o/bidder </person>
'''


def main() -> None:
    engine = Engine()
    engine.load_xmark(factor=0.004)

    print("=== Plain TLC plan for Q1 (compare with Figure 7) ===")
    translation = translate_query(Q1)
    print(translation.explain())
    print()

    print("=== Phase 1 detection (Section 4.2) ===")
    plan = translate_query(Q1).plan
    site = find_flatten_sites(plan)[0]
    print(
        f"  Selection on {site.parent.test.tag!r} (class "
        f"{site.parent.lcl}) has the same tag under a "
        f"{site.nested_edge.mspec!r} edge (class "
        f"{site.nested_edge.child.lcl}, feeding the aggregate) and a "
        f"{site.flat_edge.mspec!r} edge (class "
        f"{site.flat_edge.child.lcl}, feeding the join)."
    )
    print(
        "  use[tree(B)] chain above the select: "
        + " -> ".join(type(op).__name__ for op in site.chain)
    )
    print()

    print("=== Phase 2: Shadow + Illuminate (Figures 10 and 12) ===")
    plan = apply_flatten(plan, site, use_shadow=True)
    illuminate_site = find_illuminate_sites(plan)[0]
    plan = apply_illuminate(plan, illuminate_site)
    print(plan.describe())
    print()

    print("=== The optimizer pipeline does all of it in one call ===")
    optimized_plan, log = optimize(translate_query(Q1).plan)
    print(
        f"  flatten: {log.flattened}, shadow: {log.shadowed}, "
        f"illuminate: {log.illuminated}"
    )
    print()

    print("=== What it buys ===")
    for label, optimize_flag in (("plain", False), ("OPT", True)):
        report = engine.measure(
            Q1, engine="tlc", optimize=optimize_flag, label="Q1"
        )
        print(
            f"  {label:5s} {report.seconds * 1000:8.2f} ms   "
            f"nodes touched: {report.counters['nodes_touched']:6d}   "
            f"structural joins: "
            f"{report.counters['structural_joins']:3d}"
        )
    print()

    print("=== Results are identical ===")
    plain = sorted(
        t.to_xml() for t in engine.run(Q1, engine="tlc")
    )
    opt = sorted(
        t.to_xml() for t in engine.run(Q1, engine="tlc", optimize=True)
    )
    print(f"  {len(plain)} trees, equal: {plain == opt}")


if __name__ == "__main__":
    main()
