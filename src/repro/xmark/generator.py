"""Deterministic synthetic XMark document generator.

Builds a :class:`~repro.storage.xml_parser.ParsedElement` tree directly
(no text round-trip) so large factors load quickly; ``generate_xml`` also
renders text for tests of the parser path.  Seeded: the same (factor,
seed) always produces the same document.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from ..storage.database import Database
from ..storage.document import Document
from ..storage.xml_parser import ParsedElement
from ..storage.xml_serializer import serialize_parsed
from . import schema


class XMarkGenerator:
    """Generates synthetic auction documents at a given scale factor."""

    def __init__(self, factor: float = 0.01, seed: int = 20040613) -> None:
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(
                f"scale factor must be a positive finite number, got {factor}"
            )
        self.factor = factor
        self.rng = random.Random(seed * 1_000_003 + round(factor * 1_000_000))
        self.n_persons = schema.scaled(
            schema.FACTOR1_COUNTS["person"], factor
        )
        self.n_open = schema.scaled(
            schema.FACTOR1_COUNTS["open_auction"], factor
        )
        self.n_closed = schema.scaled(
            schema.FACTOR1_COUNTS["closed_auction"], factor
        )
        self.n_items = schema.scaled(schema.FACTOR1_COUNTS["item"], factor)
        self.n_categories = schema.scaled(
            schema.FACTOR1_COUNTS["category"], factor
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> ParsedElement:
        """Build the full ``site`` tree."""
        site = ParsedElement("site")
        site.children.append(self._regions())
        site.children.append(self._categories())
        site.children.append(self._people())
        site.children.append(self._open_auctions())
        site.children.append(self._closed_auctions())
        return site

    def generate_xml(self) -> str:
        """Render the generated document as XML text."""
        return serialize_parsed(self.generate())

    def load_into(self, db: Database, name: str = "auction.xml") -> Document:
        """Generate and store the document in ``db`` under ``name``."""
        return db.load_parsed(name, self.generate())

    # ------------------------------------------------------------------
    # value helpers
    # ------------------------------------------------------------------
    def _word(self) -> str:
        return self.rng.choice(schema.WORDS)

    def _sentence(self, n_words: int = 4) -> str:
        return " ".join(self._word() for _ in range(n_words))

    def _name(self) -> str:
        return (
            f"{self.rng.choice(schema.FIRST_NAMES)} "
            f"{self.rng.choice(schema.LAST_NAMES)}"
        )

    def _maybe(self, probability: float) -> bool:
        return self.rng.random() < probability

    def _person_ref(self) -> str:
        return f"person{self.rng.randrange(self.n_persons)}"

    def _item_ref(self) -> str:
        return f"item{self.rng.randrange(self.n_items)}"

    def _category_ref(self) -> str:
        return f"category{self.rng.randrange(self.n_categories)}"

    @staticmethod
    def _leaf(tag: str, text) -> ParsedElement:
        return ParsedElement(tag, text=str(text))

    # ------------------------------------------------------------------
    # sections
    # ------------------------------------------------------------------
    def _regions(self) -> ParsedElement:
        regions = ParsedElement("regions")
        shares = schema.REGION_WEIGHTS
        item_no = 0
        for region_name, share in zip(schema.REGIONS, shares):
            region = ParsedElement(region_name)
            count = max(1, round(self.n_items * share))
            for _ in range(count):
                if item_no >= self.n_items:
                    break
                region.children.append(self._item(item_no, region_name))
                item_no += 1
            regions.children.append(region)
        while item_no < self.n_items:  # rounding remainder goes to europe
            regions.children[3].children.append(
                self._item(item_no, "europe")
            )
            item_no += 1
        return regions

    def _item(self, number: int, region: str) -> ParsedElement:
        item = ParsedElement("item", {"id": f"item{number}"})
        if self._maybe(0.1):
            item.attrs["featured"] = "yes"
        item.children.append(self._leaf("location", region))
        item.children.append(
            self._leaf("quantity", self.rng.randint(1, 10))
        )
        item.children.append(self._leaf("name", self._sentence(2)))
        item.children.append(
            self._leaf("payment", self.rng.choice(
                ("Cash", "Creditcard", "Money order")
            ))
        )
        item.children.append(self._description())
        item.children.append(self._leaf("shipping", "Will ship worldwide"))
        for _ in range(self.rng.randint(1, 3)):
            item.children.append(
                ParsedElement("incategory", {"category": self._category_ref()})
            )
        mailbox = ParsedElement("mailbox")
        for _ in range(self.rng.randint(0, schema.MAIL_MAX)):
            mail = ParsedElement("mail")
            mail.children.append(self._leaf("from", self._name()))
            mail.children.append(self._leaf("to", self._name()))
            mail.children.append(self._leaf("date", self._date()))
            mail.children.append(self._leaf("text", self._sentence(6)))
            mailbox.children.append(mail)
        item.children.append(mailbox)
        return item

    def _description(self) -> ParsedElement:
        description = ParsedElement("description")
        description.children.append(self._leaf("text", self._sentence(5)))
        for _ in range(self.rng.randint(0, schema.KEYWORD_MAX)):
            description.children.append(self._leaf("keyword", self._word()))
        return description

    def _categories(self) -> ParsedElement:
        categories = ParsedElement("categories")
        for number in range(self.n_categories):
            category = ParsedElement(
                "category", {"id": f"category{number}"}
            )
            category.children.append(
                self._leaf("name", f"{self._word()} {number}")
            )
            category.children.append(self._description())
            categories.children.append(category)
        return categories

    def _people(self) -> ParsedElement:
        people = ParsedElement("people")
        for number in range(self.n_persons):
            people.children.append(self._person(number))
        return people

    def _person(self, number: int) -> ParsedElement:
        person = ParsedElement("person", {"id": f"person{number}"})
        person.children.append(self._leaf("name", self._name()))
        person.children.append(
            self._leaf("emailaddress", f"mailto:u{number}@example.org")
        )
        if self._maybe(schema.P_PHONE):
            person.children.append(
                self._leaf("phone", f"+1 ({self.rng.randint(100, 999)}) "
                           f"{self.rng.randint(1000000, 9999999)}")
            )
        if self._maybe(schema.P_ADDRESS):
            address = ParsedElement("address")
            address.children.append(
                self._leaf("street", f"{self.rng.randint(1, 99)} "
                           f"{self._word().title()} St")
            )
            address.children.append(
                self._leaf("city", self.rng.choice(schema.CITIES))
            )
            address.children.append(
                self._leaf("country", self.rng.choice(schema.COUNTRIES))
            )
            address.children.append(
                self._leaf("zipcode", self.rng.randint(10000, 99999))
            )
            person.children.append(address)
        if self._maybe(schema.P_HOMEPAGE):
            person.children.append(
                self._leaf("homepage", f"https://example.org/u{number}")
            )
        if self._maybe(schema.P_CREDITCARD):
            person.children.append(
                self._leaf("creditcard", " ".join(
                    str(self.rng.randint(1000, 9999)) for _ in range(4)
                ))
            )
        profile = ParsedElement("profile")
        if self._maybe(schema.P_INCOME):
            profile.attrs["income"] = str(
                round(self.rng.uniform(9000, 240000), 2)
            )
        for _ in range(self.rng.randint(0, schema.INTEREST_MAX)):
            profile.children.append(
                ParsedElement("interest", {"category": self._category_ref()})
            )
        if self._maybe(schema.P_EDUCATION):
            profile.children.append(
                self._leaf("education", self.rng.choice(schema.EDUCATIONS))
            )
        if self._maybe(schema.P_GENDER):
            profile.children.append(
                self._leaf("gender", self.rng.choice(("male", "female")))
            )
        profile.children.append(
            self._leaf("business", self.rng.choice(("Yes", "No")))
        )
        if self._maybe(schema.P_AGE):
            profile.children.append(
                self._leaf("age", self.rng.randint(18, 70))
            )
        person.children.append(profile)
        if self._maybe(schema.P_WATCHES):
            watches = ParsedElement("watches")
            for _ in range(self.rng.randint(1, schema.WATCH_MAX)):
                watches.children.append(
                    ParsedElement(
                        "watch",
                        {"open_auction":
                         f"open_auction{self.rng.randrange(self.n_open)}"},
                    )
                )
            person.children.append(watches)
        return person

    def _open_auctions(self) -> ParsedElement:
        auctions = ParsedElement("open_auctions")
        for number in range(self.n_open):
            auctions.children.append(self._open_auction(number))
        return auctions

    def _n_bidders(self) -> int:
        count = 0
        while (
            count < schema.BIDDER_MAX
            and self.rng.random() < (schema.BIDDER_P if count else 0.85)
        ):
            count += 1
        return count

    def _open_auction(self, number: int) -> ParsedElement:
        auction = ParsedElement(
            "open_auction", {"id": f"open_auction{number}"}
        )
        initial = round(self.rng.uniform(1, 300), 2)
        auction.children.append(self._leaf("initial", initial))
        if self._maybe(schema.P_RESERVE):
            auction.children.append(
                self._leaf("reserve", round(initial * 1.5, 2))
            )
        current = initial
        for _ in range(self._n_bidders()):
            bidder = ParsedElement("bidder")
            bidder.children.append(self._leaf("date", self._date()))
            bidder.children.append(self._leaf("time", self._time()))
            bidder.children.append(
                ParsedElement("personref", {"person": self._person_ref()})
            )
            increase = round(self.rng.uniform(1.5, 30), 2)
            current = round(current + increase, 2)
            bidder.children.append(self._leaf("increase", increase))
            auction.children.append(bidder)
        auction.children.append(self._leaf("current", current))
        if self._maybe(0.3):
            auction.children.append(self._leaf("privacy", "Yes"))
        auction.children.append(
            ParsedElement("itemref", {"item": self._item_ref()})
        )
        auction.children.append(
            ParsedElement("seller", {"person": self._person_ref()})
        )
        auction.children.append(self._annotation(deep=False))
        auction.children.append(
            self._leaf("quantity", self.rng.randint(1, 10))
        )
        auction.children.append(
            self._leaf("type", self.rng.choice(schema.AUCTION_TYPES))
        )
        interval = ParsedElement("interval")
        interval.children.append(self._leaf("start", self._date()))
        interval.children.append(self._leaf("end", self._date()))
        auction.children.append(interval)
        return auction

    def _closed_auctions(self) -> ParsedElement:
        auctions = ParsedElement("closed_auctions")
        for number in range(self.n_closed):
            auction = ParsedElement(
                "closed_auction", {"id": f"closed_auction{number}"}
            )
            auction.children.append(
                ParsedElement("seller", {"person": self._person_ref()})
            )
            auction.children.append(
                ParsedElement("buyer", {"person": self._person_ref()})
            )
            auction.children.append(
                ParsedElement("itemref", {"item": self._item_ref()})
            )
            auction.children.append(
                self._leaf("price", round(self.rng.uniform(5, 400), 2))
            )
            auction.children.append(self._leaf("date", self._date()))
            auction.children.append(
                self._leaf("quantity", self.rng.randint(1, 5))
            )
            auction.children.append(
                self._leaf("type", self.rng.choice(schema.AUCTION_TYPES))
            )
            auction.children.append(self._annotation(deep=True))
            auctions.children.append(auction)
        return auctions

    def _annotation(self, deep: bool) -> ParsedElement:
        annotation = ParsedElement("annotation")
        annotation.children.append(
            ParsedElement("author", {"person": self._person_ref()})
        )
        description = ParsedElement("description")
        if deep and self._maybe(schema.P_PARLIST):
            # the deep chain x15/x16 walk:
            # description/parlist/listitem/text/keyword
            parlist = ParsedElement("parlist")
            for _ in range(self.rng.randint(1, 2)):
                listitem = ParsedElement("listitem")
                text = ParsedElement("text", text=self._sentence(4))
                text.children.append(self._leaf("keyword", self._word()))
                listitem.children.append(text)
                parlist.children.append(listitem)
            description.children.append(parlist)
        else:
            description.children.append(
                self._leaf("text", self._sentence(4))
            )
        annotation.children.append(description)
        annotation.children.append(
            self._leaf("happiness", self.rng.randint(1, 10))
        )
        return annotation

    def _date(self) -> str:
        return (
            f"{self.rng.randint(1, 12):02d}/"
            f"{self.rng.randint(1, 28):02d}/"
            f"{self.rng.randint(1999, 2004)}"
        )

    def _time(self) -> str:
        return (
            f"{self.rng.randint(0, 23):02d}:"
            f"{self.rng.randint(0, 59):02d}:00"
        )


def load_xmark(
    db: Database,
    factor: float = 0.01,
    name: str = "auction.xml",
    seed: int = 20040613,
) -> Document:
    """Generate an XMark document at ``factor`` and load it into ``db``."""
    return XMarkGenerator(factor, seed).load_into(db, name)
