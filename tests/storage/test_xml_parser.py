"""Unit and property tests for the expat XML front end and both loaders."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLParseError
from repro.storage import Database
from repro.storage.xml_parser import ParsedElement, parse_xml
from repro.storage.xml_serializer import serialize_parsed
from repro.xmark import XMarkGenerator


class TestBasicParsing:
    def test_single_element(self):
        root = parse_xml("<a/>")
        assert root.tag == "a"
        assert root.children == []
        assert root.text is None

    def test_text_content(self):
        root = parse_xml("<a>hello</a>")
        assert root.text == "hello"

    def test_nested_elements(self):
        root = parse_xml("<a><b/><c><d/></c></a>")
        assert [c.tag for c in root.children] == ["b", "c"]
        assert root.children[1].children[0].tag == "d"

    def test_attributes(self):
        root = parse_xml('<a x="1" y=\'two\'/>')
        assert root.attrs == {"x": "1", "y": "two"}

    def test_whitespace_between_elements_dropped(self):
        root = parse_xml("<a>\n  <b/>\n  <c/>\n</a>")
        assert root.text is None
        assert len(root.children) == 2

    def test_mixed_content_concatenated(self):
        root = parse_xml("<a>one<b/>two</a>")
        assert root.text == "one two"

    def test_xml_declaration_and_doctype(self):
        root = parse_xml('<?xml version="1.0"?><!DOCTYPE a><a/>')
        assert root.tag == "a"

    def test_comments_ignored(self):
        root = parse_xml("<a><!-- hi --><b/><!-- bye --></a>")
        assert [c.tag for c in root.children] == ["b"]

    def test_cdata(self):
        root = parse_xml("<a><![CDATA[x < y & z]]></a>")
        assert root.text == "x < y & z"

    def test_processing_instruction_ignored(self):
        root = parse_xml("<a><?php echo ?><b/></a>")
        assert [c.tag for c in root.children] == ["b"]


class TestTextRule:
    @pytest.mark.parametrize(
        "xml, value",
        [
            ("<a> x <!-- c --> y </a>", "x y"),  # a comment ends a run
            ("<a> x <?pi?> y </a>", "x y"),  # so does a PI
            ("<a> <![CDATA[ x ]]> </a>", " x "),  # CDATA: own part, unstripped
            ("<a>x<![CDATA[y]]>z</a>", "x y z"),
            ("<a>x &amp;\n y<b/></a>", "x &\n y"),  # a reference: one run
        ],
    )
    def test_value(self, xml, value):
        assert parse_xml(xml).text == value
        assert Database().load_xml("t.xml", xml).values[1] == value


class TestEntities:
    def test_named_entities(self):
        root = parse_xml("<a>&lt;&gt;&amp;&quot;&apos;</a>")
        assert root.text == "<>&\"'"

    def test_numeric_entities(self):
        assert parse_xml("<a>&#65;&#x42;</a>").text == "AB"

    def test_entities_in_attributes(self):
        root = parse_xml('<a x="&amp;b"/>')
        assert root.attrs["x"] == "&b"

    def test_unknown_entity_raises(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a>&nosuch;</a>")


class TestErrors:
    def test_mismatched_close_tag(self):
        with pytest.raises(XMLParseError) as excinfo:
            parse_xml("<a><b></a></b>")
        assert "mismatched" in str(excinfo.value)

    def test_unclosed_element(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a><b>")

    def test_trailing_content(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a/><b/>")

    def test_unquoted_attribute(self):
        with pytest.raises(XMLParseError):
            parse_xml("<a x=1/>")

    def test_error_carries_location(self):
        with pytest.raises(XMLParseError) as excinfo:
            parse_xml("<a>\n<b x=1/></a>")
        assert excinfo.value.line == 2


class TestXML10Behaviour:
    """Where XML 1.0 (and so this front end) differs from the
    hand-rolled scanner the repository used before it."""

    def test_attribute_whitespace_normalised(self):
        root = parse_xml('<a x="1\t2\n3\r\n4"/>')
        assert root.attrs["x"] == "1 2 3 4"

    def test_line_ends_normalised(self):
        assert parse_xml("<a>x\r\ny\rz</a>").text == "x\ny\nz"

    def test_encoded_whitespace_at_a_run_edge_is_stripped(self):
        assert parse_xml("<a>&#32;x&#10;</a>").text == "x"

    def test_duplicate_attribute_is_an_error(self):
        with pytest.raises(XMLParseError) as excinfo:
            parse_xml('<a x="1" x="2"/>')
        assert "duplicate attribute" in str(excinfo.value)

    def test_colon_and_non_ascii_in_names(self):
        root = parse_xml('<p:a é="1"><ü/></p:a>')
        assert (root.tag, root.attrs) == ("p:a", {"é": "1"})
        assert root.children[0].tag == "ü"


class TestParsedElement:
    def test_find_all(self):
        root = parse_xml("<a><b/><c><b/></c></a>")
        assert len(root.find_all("b")) == 2

    def test_size(self):
        root = parse_xml("<a><b/><c><b/></c></a>")
        assert root.size() == 4


# ----------------------------------------------------------------------
# hostile input: every rejection is one XMLParseError with a 1-based
# location, and nothing recurses on the input's depth
# ----------------------------------------------------------------------
DEEP = 100_000
#: generous: each case below takes milliseconds to a fraction of a second
BOUND_S = 10.0

SAMPLE = (
    '<?xml version="1.0"?>\n<!-- lead -->\n'
    '<site a="1" b=\'x &amp; y\'>\n'
    "  <p:q>text &#65; <![CDATA[<raw>]]> tail</p:q>\n"
    "  <?pi data?><empty/>\n</site>"
)


def _rejected(text):
    """The error both entry points raise for ``text``, checked."""
    errors = []
    for load in (parse_xml, lambda t: Database().load_xml("h.xml", t)):
        started = time.perf_counter()
        with pytest.raises(XMLParseError) as excinfo:
            load(text)
        assert time.perf_counter() - started < BOUND_S
        assert excinfo.value.line >= 1 and excinfo.value.column >= 1
        errors.append(excinfo.value)
    assert str(errors[0]) == str(errors[1])
    return errors[0]


class TestHostileInput:
    def test_deep_nesting_loads_from_text(self):
        text = "<a>" * DEEP + "x" + "</a>" * DEEP
        document = Database().load_xml("deep.xml", text)
        assert len(document) == DEEP + 1
        assert (document.levels[-1], document.values[-1]) == (DEEP, "x")
        assert parse_xml(text).size() == DEEP

    def test_deep_nesting_loads_from_a_tree(self):
        root = leaf = ParsedElement("a")
        for _ in range(DEEP - 1):
            child = ParsedElement("a")
            leaf.children.append(child)
            leaf = child
        leaf.text = "x"
        document = Database().load_parsed("deep.xml", root)
        assert len(document) == DEEP + 1
        assert document.values[-1] == "x"

    def test_deep_truncated_nesting(self):
        _rejected("<a>" * DEEP)

    @pytest.mark.parametrize(
        "doctype",
        [
            '<!DOCTYPE a [<!ENTITY x "boom">]>',
            '<!DOCTYPE a [<!ENTITY a0 "ha"><!ENTITY a1 "&a0;&a0;&a0;">]>',
            '<!DOCTYPE a SYSTEM "file:///etc/passwd">',
            '<!DOCTYPE a PUBLIC "-//x//y" "http://example.invalid/a.dtd">',
        ],
    )
    def test_doctype_with_subset_or_external_id_is_rejected(self, doctype):
        error = _rejected(doctype + "<a>&x;&a1;</a>")
        # rejected at the DOCTYPE itself, before any entity is declared
        assert "DOCTYPE" in str(error)
        assert error.line == 1 and error.column <= len(doctype)

    def test_bare_doctype_loads(self):
        document = Database().load_xml("d.xml", "<!DOCTYPE a><a>x</a>")
        assert document.values[1] == "x"

    def test_nul_is_rejected(self):
        error = _rejected("<a>\x00</a>")
        assert (error.line, error.column) == (1, 4)

    def test_lone_surrogate_is_rejected(self):
        error = _rejected("<a>\n  \ud800</a>")
        assert (error.line, error.column) == (2, 3)

    def test_non_characters_are_rejected(self):
        _rejected("<a>\ufffe</a>")

    @pytest.mark.parametrize("cut", range(0, len(SAMPLE.rstrip()), 3))
    def test_truncated_document_is_rejected(self, cut):
        _rejected(SAMPLE[:cut])

    def test_sample_itself_loads(self):
        root = parse_xml(SAMPLE)
        assert root.attrs == {"a": "1", "b": "x & y"}
        assert root.children[0].text == "text A <raw> tail"


# ----------------------------------------------------------------------
# property: serialize → parse is the identity on parse trees
# ----------------------------------------------------------------------
_tags = st.sampled_from(["a", "b", "item", "person_x", "x-1"])
_texts = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"),
        # U+FFFE/U+FFFF are not XML characters
        blacklist_characters="<>&\"'\ufffe\uffff",
    ),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


@st.composite
def parsed_elements(draw, depth=0):
    tag = draw(_tags)
    attrs = draw(
        st.dictionaries(_tags, _texts, max_size=2)
    )
    element = ParsedElement(tag, attrs)
    if draw(st.booleans()):
        element.text = draw(_texts)
    if depth < 2:
        for _ in range(draw(st.integers(0, 2))):
            element.children.append(draw(parsed_elements(depth=depth + 1)))
    return element


def _normalized(element: ParsedElement):
    return (
        element.tag,
        tuple(sorted(element.attrs.items())),
        element.text,
        tuple(_normalized(c) for c in element.children),
    )


@given(parsed_elements())
def test_roundtrip(element):
    """Property: parse(serialize(t)) == t."""
    text = serialize_parsed(element)
    again = parse_xml(text)
    assert _normalized(again) == _normalized(element)


# ----------------------------------------------------------------------
# differential: both event sources feed one record builder
# ----------------------------------------------------------------------
def _store(db, name):
    """Every stored field of ``name``: records, ids and both indexes."""
    document = db.document(name)
    tag_index = db.tag_index(name)
    value_index = db._value_indexes[document.doc_id]
    postings = {}
    for tag in tag_index.tags():
        view = tag_index.postings(tag)
        postings[tag] = (
            view.ids, view.values, view.run_pages,
            view.flat, view.starts, view.levels,
        )
    return (
        (
            document.tags, document.values, document.ends, document.levels,
            document.parents,
        ),
        document.ids,
        postings,
        value_index._by_tag,
        value_index._keys,
    )


def _assert_same_store(root):
    from_text, from_tree = Database(), Database()
    from_text.load_xml("t.xml", serialize_parsed(root))
    from_tree.load_parsed("t.xml", root)
    assert _store(from_text, "t.xml") == _store(from_tree, "t.xml")


@settings(max_examples=60, deadline=None)
@given(parsed_elements())
def test_text_and_tree_build_the_same_store(element):
    _assert_same_store(element)


def test_xmark_builds_the_same_store_from_text_and_tree():
    _assert_same_store(XMarkGenerator(0.01, 20040613).generate())
