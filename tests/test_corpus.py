"""Corpus parsing and learning-node decomposition."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from granary import corpus
from granary.corpus import (
    DecomposeConfig,
    LearningStage,
    NODE_KEYS,
    SourceDocument,
    corpus_stats,
    decompose_to_nodes,
    estimate_tokens,
    node_from_record,
    node_to_record,
    parse_markdown_tree,
)
from granary.errors import InvalidEncoding, SchemaViolation
from granary.jsonl import read_jsonl, write_jsonl
from oracles import serialize_tree


def make_doc(markdown, doc_id="doc"):
    return SourceDocument(
        doc_id=doc_id, title="T", learning_stage=LearningStage.ANALOG_BASIS, markdown=markdown
    )


class TestParse:
    def test_basic_nesting(self):
        root = parse_markdown_tree(make_doc("# A\nintro\n## A.1\nbody"))
        assert len(root.children) == 1
        chapter = root.children[0]
        assert chapter.heading_path == ["A"]
        assert chapter.depth == 1
        assert chapter.body == "intro\n"
        assert len(chapter.children) == 1
        sub = chapter.children[0]
        assert sub.heading_path == ["A", "A.1"]
        assert sub.depth == 2
        assert sub.body == "body"

    def test_no_headings_yields_single_root(self):
        root = parse_markdown_tree(make_doc("just text\nwith lines\n"))
        assert root.children == []
        assert root.body == "just text\nwith lines\n"
        assert root.depth == 0 and root.heading_path == []

    def test_preamble_attaches_to_root(self):
        root = parse_markdown_tree(make_doc("before\n# A\nafter"))
        assert root.body == "before\n"
        assert root.children[0].body == "after"

    def test_minibook_shape(self, minibook_doc):
        root = parse_markdown_tree(minibook_doc)
        assert len(root.children) == 3
        assert [len(c.children) for c in root.children] == [2, 2, 2]
        assert all(c.depth == 1 for c in root.children)
        assert all(g.depth == 2 for c in root.children for g in c.children)

    def test_depth_equals_heading_path_length(self, minibook_doc):
        root = parse_markdown_tree(minibook_doc)
        for section in corpus.iter_sections(root):
            assert section.depth == len(section.heading_path)

    def test_skipped_levels_become_children(self):
        root = parse_markdown_tree(make_doc("# A\n### deep\nbody"))
        deep = root.children[0].children[0]
        assert deep.depth == 2
        assert deep.heading_path == ["A", "deep"]

    def test_fenced_code_headings_are_body(self):
        md = "# A\n```\n# not a heading\n```\ntail\n"
        root = parse_markdown_tree(make_doc(md))
        assert len(root.children) == 1
        assert "# not a heading" in root.children[0].body

    def test_reserialization_roundtrip(self, minibook_doc):
        root = parse_markdown_tree(minibook_doc)
        assert serialize_tree(root) == minibook_doc.markdown

    def test_crlf_normalized(self):
        root = parse_markdown_tree(make_doc("# A\r\nline\r\n"))
        assert serialize_tree(root) == "# A\nline\n"


# Arbitrary documents: interleaved heading and body lines.
_heading_line = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="#\n"),
        min_size=1,
        max_size=12,
    ).filter(lambda s: s.strip()),
).map(lambda lt: "#" * lt[0] + " " + lt[1].strip())
_body_line = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\n"),
    max_size=30,
).filter(lambda s: not s.lstrip().startswith(("#", "```", "~~~")))
_document = st.lists(st.one_of(_heading_line, _body_line), min_size=1, max_size=40).map(
    lambda lines: "\n".join(lines) + "\n"
)


class TestParseProperties:
    @given(_document)
    @settings(max_examples=120)
    def test_partition_losslessness(self, markdown):
        doc = make_doc(markdown)
        assert serialize_tree(parse_markdown_tree(doc)) == markdown

    @given(_document)
    @settings(max_examples=60)
    def test_parse_decompose_deterministic(self, markdown):
        doc = make_doc(markdown)
        cfg = DecomposeConfig(min_node_tokens=1, stop_headings=())
        first = decompose_to_nodes(parse_markdown_tree(doc), doc.doc_id, cfg)
        second = decompose_to_nodes(parse_markdown_tree(doc), doc.doc_id, cfg)
        assert [node_to_record(n) for n in first] == [node_to_record(n) for n in second]

    @given(_document, st.integers(min_value=1, max_value=40))
    @settings(max_examples=60)
    def test_filter_monotonicity(self, markdown, threshold):
        doc = make_doc(markdown)
        root = parse_markdown_tree(doc)
        low = decompose_to_nodes(doc_id=doc.doc_id, root=root, cfg=DecomposeConfig(min_node_tokens=threshold))
        high = decompose_to_nodes(doc_id=doc.doc_id, root=root, cfg=DecomposeConfig(min_node_tokens=threshold + 5))
        assert len(high) <= len(low)


class TestDecompose:
    def test_minibook_yields_six_nodes_in_order(self, minibook_nodes):
        assert len(minibook_nodes) == 6
        assert [n.heading_path[-1] for n in minibook_nodes] == [
            "Node and Loop Laws",
            "First-Order Transients",
            "Small-Signal Model",
            "Common-Source Stage",
            "Two-Stage Noise Budget",
            "Compensation and Margin",
        ]

    def test_text_is_breadcrumbed_body(self, minibook_nodes):
        node = minibook_nodes[0]
        assert node.text.startswith("Passive Networks > Node and Loop Laws\n\n")
        assert node.token_estimate == estimate_tokens(node.text)

    def test_empty_body_excluded(self):
        doc = make_doc("# A\n## A.1\n\n\n## A.2\n" + "substance " * 40)
        nodes = decompose_to_nodes(parse_markdown_tree(doc), doc.doc_id, DecomposeConfig())
        assert [n.heading_path[-1] for n in nodes] == ["A.2"]

    def test_stop_list_filters_by_heading(self):
        body = "words " * 80
        doc = make_doc(f"# A\n## Introduction\n{body}\n## Meat\n{body}")
        nodes = decompose_to_nodes(parse_markdown_tree(doc), doc.doc_id, DecomposeConfig())
        assert [n.heading_path[-1] for n in nodes] == ["Meat"]

    def test_flat_chapter_falls_back_to_depth_one(self):
        body = "words " * 80
        doc = make_doc(f"# Lone Chapter\n{body}")
        nodes = decompose_to_nodes(parse_markdown_tree(doc), doc.doc_id, DecomposeConfig())
        assert len(nodes) == 1
        assert nodes[0].heading_path == ["Lone Chapter"]

    def test_chapter_with_subsections_is_not_a_node(self, minibook_nodes):
        assert all(len(n.heading_path) == 2 for n in minibook_nodes)

    def test_threshold_respected(self, minibook_doc):
        root = parse_markdown_tree(minibook_doc)
        nodes = decompose_to_nodes(root, minibook_doc.doc_id, DecomposeConfig(min_node_tokens=300))
        assert nodes == []
        for node in decompose_to_nodes(root, minibook_doc.doc_id, DecomposeConfig()):
            assert node.token_estimate >= 64

    def test_node_id_depends_on_content(self, minibook_nodes):
        ids = {n.node_id for n in minibook_nodes}
        assert len(ids) == 6
        n = minibook_nodes[0]
        assert n.node_id == corpus.node_id_for(n.doc_id, n.heading_path, n.text)


class TestEstimateTokens:
    def test_empty(self):
        assert estimate_tokens("") == 0

    def test_eight_bytes(self):
        assert estimate_tokens("abcdefgh") == 2

    def test_ten_bytes(self):
        assert estimate_tokens("abcdefghij") == 3

    @given(st.text(max_size=200))
    def test_matches_ceiling_formula(self, text):
        assert estimate_tokens(text) == math.ceil(len(text.encode("utf-8")) / 4)


class TestStats:
    def test_uniform_nodes(self, minibook_nodes):
        nodes = [
            corpus.LearningNode("i%d" % i, "d", ["h"], "x", 100) for i in range(6)
        ]
        stats = corpus_stats(nodes)
        assert (stats.node_count, stats.total_tokens, stats.mean_tokens) == (6, 600, 100)

    def test_empty_convention(self):
        stats = corpus_stats([])
        assert (stats.node_count, stats.total_tokens, stats.mean_tokens) == (0, 0, 0.0)


class TestIO:
    def test_nodes_jsonl_roundtrip(self, minibook_nodes, tmp_path):
        path = tmp_path / "nodes.jsonl"
        write_jsonl(path, [node_to_record(n) for n in minibook_nodes], schema=NODE_KEYS)
        loaded = [node_from_record(r) for r in read_jsonl(path, schema=NODE_KEYS)]
        assert loaded == minibook_nodes

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"node_id": "x"}) + "\n")
        with pytest.raises(SchemaViolation):
            read_jsonl(path, schema=NODE_KEYS)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_jsonl(path, schema=NODE_KEYS) == []

    def test_failed_write_keeps_the_old_file(self, minibook_nodes, tmp_path):
        # A later stage would read a truncated file as a short but valid one.
        path = tmp_path / "nodes.jsonl"
        records = [node_to_record(n) for n in minibook_nodes[:3]]
        write_jsonl(path, records, schema=NODE_KEYS)
        before = path.read_bytes()
        with pytest.raises(SchemaViolation, match=r"nodes\.jsonl:3"):
            write_jsonl(path, [*records[:2], {"node_id": "x"}], schema=NODE_KEYS)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.jsonl"]

    def test_invalid_utf8_rejected(self, tmp_path):
        (tmp_path / "bad.md").write_bytes(b"\xff\xfe broken")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"bad.md": {"doc_id": "b", "title": "B", "learning_stage": "advanced"}})
        )
        with pytest.raises(InvalidEncoding):
            corpus.load_corpus(tmp_path, manifest)

    def test_unknown_stage_rejected(self, tmp_path):
        (tmp_path / "ok.md").write_text("# A\nx")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"ok.md": {"doc_id": "a", "title": "A", "learning_stage": "nope"}})
        )
        with pytest.raises(SchemaViolation):
            corpus.load_corpus(tmp_path, manifest)

    @pytest.mark.parametrize("key, value", [("doc_id", [1]), ("doc_id", 7), ("title", {"t": 1}), ("title", None)])
    def test_non_string_doc_id_or_title_rejected(self, tmp_path, key, value):
        (tmp_path / "a.md").write_text("# A\nx")
        meta = {"doc_id": "a", "title": "A", "learning_stage": "advanced", key: value}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"a.md": meta}))
        want = f"manifest entry 'a.md': {key} must be a string, got {json.dumps(value)}"
        with pytest.raises(SchemaViolation, match=f"^{re.escape(want)}$"):
            corpus.load_corpus(tmp_path, manifest)

    def test_non_object_entry_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"a.md": 5}))
        with pytest.raises(SchemaViolation, match=r"^manifest entry 'a.md' must be a JSON object$"):
            corpus.load_corpus(tmp_path, manifest)
