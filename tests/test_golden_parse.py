"""Golden parser output: for a fixed set of inputs, the ``repr`` of the
tree that ``parse`` and ``parse_definition`` build, or the
``[message, line, column, expected]`` of the ``ParseError`` they raise.

The inputs are seeded random strings over the token alphabet, every corpus
``.jc`` file, and the model texts that the environment, file-system and
malware builders hand to the parser while the corpus scenarios are built.
A rewrite of the reader must pass this test unchanged; a change that means
to move the output regenerates the file with
``python tests/test_golden_parse.py`` and says why.
"""

import json
import os
import random
import sys

import pytest

from jcham import parser
from jcham.cli import corpus_path
from jcham.parser import ParseError, parse, parse_definition

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_parse.json")

ALPHABET = [
    *sorted(parser.KEYWORDS), "x", "k~1",
    "|>", "++", "<", ">", "(", ")", "[", "]", "=", ",", ";", "|",
    "0", "1", '"s"', "\n", "#c\n",
]


def _random_texts(count=2200, seed=20):
    rng = random.Random(seed)
    return ["".join(rng.choice(ALPHABET) + rng.choice(("", " ", " ")) for _ in range(rng.randint(1, 8)))
            for _ in range(count)]


def _model_texts():
    """The texts the parser reads while every corpus scenario's context and
    process are built, in first-seen order."""
    from jcham.scenarios import build_context, build_process, load_scenario

    seen = {}
    lex = parser._lex

    def recording(text):
        seen.setdefault(text, None)
        return lex(text)

    parser._lex = recording
    try:
        for name in sorted(os.listdir(os.path.dirname(corpus_path("inert.jc")))):
            if name.endswith(".scn"):
                sc = load_scenario(corpus_path(name))
                build_context(sc.context_spec)
                build_process(sc)
    finally:
        parser._lex = lex
    return list(seen)


def _corpus_texts():
    root = os.path.dirname(corpus_path("inert.jc"))
    out = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".jc"):
            with open(os.path.join(root, name)) as fh:
                out.append(fh.read())
    return out


def _outcome(read, text):
    try:
        return repr(read(text))
    except ParseError as e:
        return [str(e), e.line, e.column, list(e.expected)]


def _record(text):
    return {"text": text, "parse": _outcome(parse, text), "parse_definition": _outcome(parse_definition, text)}


def _golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_trees_and_errors():
    records = _golden()
    assert len(records) > 2000
    outcomes = [r[k] for r in records for k in ("parse", "parse_definition")]
    assert any(isinstance(o, str) for o in outcomes) and any(isinstance(o, list) for o in outcomes)


def test_parser_output_matches_the_golden_file():
    for r in _golden():
        assert _record(r["text"]) == r, r["text"]


if __name__ == "__main__":
    texts = list(dict.fromkeys(_random_texts() + _corpus_texts() + _model_texts()))
    records = [_record(t) for t in texts]
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n]\n")
    print(f"wrote {len(records)} inputs to {GOLDEN}", file=sys.stderr)
