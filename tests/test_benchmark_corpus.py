"""The benchmark's synthetic corpus decomposes into the node count it promises.

``perfbench/inputs.write_corpus`` returns the number of nodes ingest must
yield under the default ``DecomposeConfig``, and the benchmark's
``prep_synth`` workload refuses any other count. A change to the
decomposition rules that moves this count needs a benchmark change
first. The generator is loaded from its file, as the benchmark runs it.
"""

import importlib.util
from pathlib import Path

import pytest

from granary import corpus

INPUTS = Path(__file__).parents[1] / "perfbench" / "inputs.py"


@pytest.fixture(scope="module")
def inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ingest_yields_the_promised_node_count(inputs, tmp_path, seed):
    expected = inputs.write_corpus(tmp_path, seed, books=2, chapters=3)
    docs = corpus.load_corpus(tmp_path, tmp_path / "manifest.json")
    cfg = corpus.DecomposeConfig()
    nodes = [
        node for doc in docs for node in corpus.decompose_to_nodes(corpus.parse_markdown_tree(doc), doc.doc_id, cfg)
    ]
    assert (expected, len(nodes)) == (182, 182)
