"""Shared fixtures: the mini-book corpus and a compact training set."""

import os
from pathlib import Path

import pytest

# One BLAS/OpenMP thread, set before numpy loads, as the benchmark runs:
# the thread count changes the summation order inside matmuls, and the
# pinned training records are bit-level literals.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from granary import corpus  # noqa: E402
from granary.dataset import ChatExample, tokenize_and_mask  # noqa: E402
from granary.distiller import render_assistant  # noqa: E402
from granary.tinylm import ByteTokenizer, ModelConfig  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"

# Twelve short, repetitive Q/T/S/A records; small enough that full-batch
# descent runs fast and regular enough that a tiny model can learn them.
FIXTURE_QTSA = [
    ("Define voltage gain.", "Gain compares output to input.", "Divide output voltage by input voltage.", "Av = vout / vin."),
    ("State the current law.", "Charge cannot pile up at a node.", "Sum all node currents to zero.", "Currents into a node sum to zero."),
    ("State the voltage law.", "Energy around a loop balances.", "Sum all loop voltages to zero.", "Loop voltages sum to zero."),
    ("Define an RC time constant.", "The product sets decay speed.", "Multiply resistance by capacitance.", "tau = R * C."),
    ("What sets a pole frequency?", "A pole comes from one RC node.", "Invert the RC product at that node.", "wp = 1 / (R * C)."),
    ("Define transconductance.", "It maps input voltage to current.", "Divide output current change by input voltage change.", "gm = dI / dV."),
    ("What does feedback trade?", "Loop gain buys precision.", "Exchange raw gain for accuracy and bandwidth.", "Gain is traded for bandwidth."),
    ("Define unity-gain frequency.", "Gain falls with frequency.", "Find where the gain magnitude reaches one.", "ft is where gain equals one."),
    ("What limits slew rate?", "Charging current is finite.", "Divide tail current by the compensation capacitor.", "SR = I / C."),
    ("Define phase margin.", "It measures stability headroom.", "Subtract the loop phase lag from 180 degrees.", "PM = 180 - phase lag."),
    ("What is a dominant pole?", "One pole controls the rolloff.", "Place one pole far below all others.", "The lowest pole dominates."),
    ("Define output resistance.", "It measures load sensitivity.", "Divide voltage change by current change at the output.", "Rout = dV / dI."),
]

# Context long enough for the fixture examples; init scale chosen so the
# pinned lr sweep {1e-2, 1e-3, 1e-4} produces visible full-batch descent.
TRAIN_MODEL_CFG = ModelConfig(context_window=192, seed=0, init_std=0.2)


def build_fixture_examples():
    tokenizer = ByteTokenizer()
    examples = []
    for q, t, s, a in FIXTURE_QTSA:
        chat = ChatExample(system="", user=q, assistant=render_assistant(t, s, a))
        examples.append(tokenize_and_mask(chat, tokenizer))
    return examples


@pytest.fixture(scope="session")
def minibook_dir() -> Path:
    return FIXTURES / "minibook"


@pytest.fixture(scope="session")
def minibook_doc(minibook_dir):
    docs = corpus.load_corpus(minibook_dir, minibook_dir / "manifest.json")
    assert len(docs) == 1
    return docs[0]


@pytest.fixture(scope="session")
def minibook_nodes(minibook_doc):
    tree = corpus.parse_markdown_tree(minibook_doc)
    return corpus.decompose_to_nodes(tree, minibook_doc.doc_id, corpus.DecomposeConfig())


@pytest.fixture(scope="session")
def fixture_examples():
    return build_fixture_examples()
