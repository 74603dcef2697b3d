"""Unit tests for the synthetic XMark generator."""

import pytest

from repro.storage import Database, parse_xml
from repro.xmark import FACTOR1_COUNTS, REGIONS, XMarkGenerator, scaled
from repro.xmark.queries import FIGURE15_ORDER, QUERIES


class TestScaling:
    def test_scaled_keeps_minimum_one(self):
        assert scaled(1000, 0.00001) == 1
        assert scaled(1000, 0.5) == 500

    def test_factor1_ratios_preserved(self):
        gen = XMarkGenerator(factor=0.01)
        assert gen.n_persons == round(FACTOR1_COUNTS["person"] * 0.01)
        assert gen.n_open == round(FACTOR1_COUNTS["open_auction"] * 0.01)
        assert gen.n_closed == round(
            FACTOR1_COUNTS["closed_auction"] * 0.01
        )

    def test_invalid_factor(self):
        for factor in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                XMarkGenerator(factor=factor)


class TestDeterminism:
    def test_same_seed_same_document(self):
        a = XMarkGenerator(0.002, seed=7).generate_xml()
        b = XMarkGenerator(0.002, seed=7).generate_xml()
        assert a == b

    def test_different_seed_different_document(self):
        a = XMarkGenerator(0.002, seed=7).generate_xml()
        b = XMarkGenerator(0.002, seed=8).generate_xml()
        assert a != b


class TestSchema:
    @pytest.fixture(scope="class")
    def site(self):
        return XMarkGenerator(0.002).generate()

    def test_top_level_sections(self, site):
        assert [c.tag for c in site.children] == [
            "regions", "categories", "people", "open_auctions",
            "closed_auctions",
        ]

    def test_all_regions_present(self, site):
        regions = site.children[0]
        assert [r.tag for r in regions.children] == list(REGIONS)

    def test_counts(self, site):
        gen = XMarkGenerator(0.002)
        assert len(site.find_all("person")) == gen.n_persons
        assert len(site.find_all("open_auction")) == gen.n_open
        assert len(site.find_all("item")) == gen.n_items

    def test_person_ids_are_referencable(self, site):
        ids = {p.attrs["id"] for p in site.find_all("person")}
        refs = {
            b.attrs["person"] for b in site.find_all("personref")
        }
        assert refs <= ids

    def test_bidder_tail_exceeds_five(self, site):
        """Q1/Q2 need auctions with more than 5 bidders."""
        heavy = [
            a
            for a in site.find_all("open_auction")
            if len([c for c in a.children if c.tag == "bidder"]) > 5
        ]
        assert heavy

    def test_optional_age(self, site):
        persons = site.find_all("person")
        with_age = [p for p in persons if p.find_all("age")]
        assert 0 < len(with_age) < len(persons)

    def test_deep_parlist_chain_exists(self, site):
        """x15/x16 walk closed_auction//parlist/listitem/text/keyword."""
        keywords = [
            k
            for c in site.find_all("closed_auction")
            for k in c.find_all("keyword")
        ]
        assert keywords

    def test_generated_xml_parses(self):
        text = XMarkGenerator(0.001).generate_xml()
        root = parse_xml(text)
        assert root.tag == "site"

    def test_load_into_database(self):
        db = Database()
        doc = XMarkGenerator(0.001).load_into(db)
        assert len(db.tag_lookup("auction.xml", "person")) >= 1
        assert len(doc) > 100


class TestQuerySuite:
    def test_every_figure15_row_has_a_query(self):
        for name in FIGURE15_ORDER:
            assert name in QUERIES
            assert QUERIES[name].comment

    def test_q1_q2_use_paper_text_shape(self):
        assert "count($o/bidder) > 5" in QUERIES["Q1"].text
        assert "myauction" in QUERIES["Q2"].text

    def test_adaptations_documented(self):
        for name in ("x2", "x4", "x14", "x17"):
            assert QUERIES[name].adaptation
