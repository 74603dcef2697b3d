"""Unit tests for XML serialisation."""

from repro.storage import Database, parse_xml
from repro.storage.xml_serializer import (
    escape_attr,
    escape_text,
    serialize_parsed,
    serialize_stored,
)


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attr_escapes_quotes(self):
        assert escape_attr('say "hi" & more') == "say &quot;hi&quot; &amp; more"


class TestSerializeParsed:
    def test_pretty_printing(self):
        root = parse_xml("<a><b>x</b><c/></a>")
        text = serialize_parsed(root)
        assert text == "<a>\n  <b>x</b>\n  <c/>\n</a>"

    def test_attributes_rendered(self):
        root = parse_xml('<a k="v&amp;w"/>')
        assert serialize_parsed(root) == '<a k="v&amp;w"/>'

    def test_roundtrip_with_special_chars(self):
        original = '<a note="5 &lt; 6">x &amp; y</a>'
        root = parse_xml(original)
        again = parse_xml(serialize_parsed(root))
        assert again.text == "x & y"
        assert again.attrs["note"] == "5 < 6"


class TestSerializeStored:
    def test_skips_doc_root_wrapper(self):
        db = Database()
        doc = db.load_xml("t.xml", "<a><b/></a>")
        assert serialize_stored(doc) == "<a><b/></a>"

    def test_attributes_from_at_children(self):
        db = Database()
        doc = db.load_xml("t.xml", '<a x="1"><b y="2">t</b></a>')
        assert serialize_stored(doc) == '<a x="1"><b y="2">t</b></a>'

    def test_subtree_serialization(self):
        db = Database()
        doc = db.load_xml("t.xml", "<a><b>x</b></a>")
        b_index = doc.tags.index("b")
        assert serialize_stored(doc, b_index) == "<b>x</b>"
