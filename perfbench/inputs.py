"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the workload seed and touches only
the files it writes; the program under test receives these files and
nothing else. The shapes (node counts, prompt lengths) are fixed and only
the content varies with the seed, so per-seed timings stay comparable.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

STAGES = ("circuit_theory", "analog_basis", "analog_ic", "advanced")

_WORDS = (
    "voltage current node loop branch resistor capacitor inductor gain pole zero "
    "bandwidth feedback transistor mirror cascode bias headroom swing noise offset "
    "matching slew settling phase margin compensation transconductance output input "
    "impedance load source drain gate channel saturation triode threshold mobility "
    "oxide width length ratio supply ground reference stage amplifier differential "
    "common mode rejection linearity distortion harmonic frequency response corner "
    "integrator filter ladder topology admittance charge energy power dissipation"
).split()

# Dangling references the distiller's postprocessor screens for; the mock
# backend never copies node text into answers, so these stay harmless.
_REFERENCES = ("Eq. (3.2)", "Table 4.1", "Fig. 2.7", "as shown above", "this section")


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(6, 14))]
    if rng.random() < 0.08:
        words.insert(rng.randint(0, len(words)), rng.choice(_REFERENCES))
    return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def _paragraph(rng: random.Random, min_bytes: int, max_bytes: int) -> str:
    target = rng.randint(min_bytes, max_bytes)
    parts: list[str] = []
    size = 0
    while size < target:
        sentence = _sentence(rng)
        parts.append(sentence)
        size += len(sentence) + 1
    return " ".join(parts)


def _body(rng: random.Random, min_bytes: int, max_bytes: int) -> str:
    text = _paragraph(rng, min_bytes, max_bytes)
    if rng.random() < 0.1:
        # A fenced block whose '#' lines must not parse as headings.
        text += "\n\n```\n# not a heading\nvout = gm * rout * vin\n```"
    return text + "\n\n"


# Per chapter: a stop-listed introduction, SECTIONS sections of
# LEAVES_PER_SECTION learning nodes each (three ### leaves plus two ####
# leaves under a fourth ###), one ### note below min_node_tokens, and a
# stop-listed summary. Every book also ends with one chapter that has no
# subsections and becomes a single depth-1 node.
SECTIONS = 6
LEAVES_PER_SECTION = 5


def write_corpus(root: Path, seed: int, books: int, chapters: int) -> int:
    """Write ``books`` Markdown volumes plus a manifest; return the node count.

    The returned count is what ingest must yield with the default
    decompose settings (min_node_tokens=64, stop headings introduction
    and summary).
    """
    rng = random.Random(f"corpus:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    manifest = {}
    nodes = 0
    for b in range(books):
        lines = [f"Preface text for volume {b + 1}, which sits above the first heading.\n\n"]
        for c in range(1, chapters + 1):
            lines.append(f"# Chapter {c}\n\n")
            lines.append("## Introduction\n\n" + _body(rng, 300, 600))
            for s in range(1, SECTIONS + 1):
                lines.append(f"## Section {c}.{s}\n\n" + _body(rng, 100, 200))
                for t in range(1, 4):
                    lines.append(f"### Topic {c}.{s}.{t}\n\n" + _body(rng, 300, 1100))
                lines.append(f"### Topic {c}.{s}.4\n\n" + _body(rng, 100, 200))
                for d in range(1, 3):
                    lines.append(f"#### Detail {c}.{s}.4.{d}\n\n" + _body(rng, 300, 1100))
                lines.append(f"### Note {c}.{s}.5\n\nSee the worked example.\n\n")
                nodes += LEAVES_PER_SECTION
            lines.append("## Summary\n\n" + _body(rng, 300, 600))
        lines.append(f"# Appendix {b + 1}\n\n" + _body(rng, 400, 900))
        nodes += 1
        filename = f"volume_{b + 1}.md"
        (root / filename).write_text("".join(lines), encoding="utf-8")
        manifest[filename] = {
            "doc_id": f"vol{b + 1}-{seed}",
            "title": f"Volume {b + 1}",
            "learning_stage": STAGES[b % len(STAGES)],
        }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return nodes


def truncate_lines(path: Path) -> int:
    """Keep the first half of a file's lines; return how many were kept."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    keep = len(lines) // 2
    path.write_text("".join(lines[:keep]), encoding="utf-8")
    return keep


def write_quiz(path: Path, seed: int, items: int) -> None:
    """Write an MCQ quiz whose rendered prompts alternate short and long.

    Short items (a few-word stem, two one-letter options) render to fewer
    tokens than a 256-token context once the packaged eval system prompt
    is prepended; long items (a multi-sentence stem, four options) render
    to well over 256, so greedy decode slides its window from the first
    token.
    """
    rng = random.Random(f"quiz:{seed}")
    records = []
    for i in range(items):
        if i % 2 == 0:
            stem = f"Pick {rng.choice(_WORDS)[:6]}."
            options = {"A": rng.choice("xyz"), "B": rng.choice("uvw")}
        else:
            stem = _paragraph(rng, 200, 500)
            options = {letter: _paragraph(rng, 20, 60) for letter in "ABCD"}
        records.append(
            {
                "item_id": f"q{seed}-{i}",
                "stem": stem,
                "options": options,
                "correct": rng.choice(sorted(options)),
            }
        )
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
    )
