"""Every error branch of the text readers, pinned to its kind, line and
message."""

import random
import sys
from collections import Counter

import pytest

from dakc import (
    ParseError,
    parse_dimacs_cnf,
    parse_instance_text,
    parse_setcover_text,
    parse_undirected_text,
)
from dakc.reductions import parse_labels

READERS = {
    "instance": parse_instance_text,
    "cnf": parse_dimacs_cnf,
    "ug": parse_undirected_text,
    "setcover": lambda text: parse_setcover_text(text, budget=1),
    "labels": lambda text: parse_labels(text, "f.labels"),
}
# a count above sys.maxsize: no list can be that long
HUGE = 10**22

# one input per ParseError branch of each reader
BRANCHES = [
    ("instance", "p dakc 2 0\np dakc 2 0\n", ("header", 2, "line 2: duplicate problem line")),
    ("instance", "p dakk 2 0\n", ("header", 1, "line 1: expected 'p dakc <n> <m>', got 'p dakk 2 0'")),
    ("instance", "p dakc 2 x\n", ("header", 1, "line 1: non-integer counts in 'p dakc 2 x'")),
    ("instance", "p dakc -2 0\n", ("header", 1, "line 1: negative vertex or arc count")),
    ("instance", f"p dakc {HUGE} 0\n", ("header", 1, f"line 1: vertex or arc count above {sys.maxsize}")),
    ("instance", "a 1 2\n", ("header", 1, "line 1: arc line before problem line")),
    ("instance", "p dakc 2 1\na 1\n", ("token", 2, "line 2: expected 'a <u> <v>', got 'a 1'")),
    ("instance", "p dakc 2 1\na 1 y\n", ("token", 2, "line 2: non-integer endpoint in 'a 1 y'")),
    ("instance", "p dakc 2 1\na 1 3\n", ("vertex-range", 2, "line 2: vertex out of range 1..2 in 'a 1 3'")),
    ("instance", "p dakc 2 1\na 2 2\n", ("self-loop", 2, "line 2: self-loop at vertex 2")),
    ("instance", "p dakc 2 2\na 1 2\na 1 2\n", ("duplicate-arc", 3, "line 3: duplicate arc 1->2")),
    ("instance", "q 1 1 1\n", ("header", 1, "line 1: parameter line before problem line")),
    ("instance", "p dakc 2 0\nq 1 1 1\nq 1 1 1\n", ("params", 3, "line 3: duplicate parameter line")),
    ("instance", "p dakc 2 0\nq 1 1\n", ("params", 2, "line 2: expected 'q <b> <k> <p>', got 'q 1 1'")),
    ("instance", "p dakc 2 0\nq 1 1 z\n", ("params", 2, "line 2: non-integer parameter in 'q 1 1 z'")),
    ("instance", "p dakc 2 0\nx 1\n", ("token", 2, "line 2: unrecognized line tag 'x'")),
    ("instance", "c only\n", ("header", 0, "line 0: missing problem line 'p dakc <n> <m>'")),
    ("instance", "p dakc 2 1\n", ("arc-count", 0, "line 0: problem line promises 1 arcs, found 0")),
    ("cnf", "p cnf 1 0\np cnf 1 0\n", ("header", 2, "line 2: duplicate problem line")),
    ("cnf", "p dnf 1 0\n", ("header", 1, "line 1: expected 'p cnf <n> <m>', got 'p dnf 1 0'")),
    ("cnf", "p cnf x 0\n", ("header", 1, "line 1: non-integer counts in 'p cnf x 0'")),
    ("cnf", "p cnf -3 0\n", ("header", 1, "line 1: negative variable or clause count")),
    ("cnf", f"p cnf {HUGE} 0\n", ("header", 1, f"line 1: variable or clause count above {sys.maxsize}")),
    ("cnf", "1 0\n", ("header", 1, "line 1: clause data before problem line")),
    ("cnf", "p cnf 1 1\n1 q 0\n", ("token", 2, "line 2: non-integer literal 'q'")),
    ("cnf", "p cnf 1 1\n2 0\n", ("vertex-range", 2, "line 2: literal 2 out of range for 1 variables")),
    ("cnf", "c only\n", ("header", 0, "line 0: missing problem line 'p cnf <n> <m>'")),
    ("cnf", "p cnf 1 1\n1\n", ("token", 0, "line 0: unterminated clause at end of input")),
    ("cnf", "p cnf 1 2\n1 0\n", ("arc-count", 0, "line 0: problem line promises 2 clauses, found 1")),
    ("ug", "p ug 2 0\np ug 2 0\n", ("header", 2, "line 2: duplicate problem line")),
    ("ug", "p xg 2 0\n", ("header", 1, "line 1: expected 'p ug <n> <m>', got 'p xg 2 0'")),
    ("ug", "p ug 2 x\n", ("header", 1, "line 1: non-integer counts in 'p ug 2 x'")),
    ("ug", "p ug -2 0\n", ("header", 1, "line 1: negative vertex or edge count")),
    ("ug", f"p ug 2 {HUGE}\n", ("header", 1, f"line 1: vertex or edge count above {sys.maxsize}")),
    ("ug", "e 1 2\n", ("header", 1, "line 1: edge line before problem line")),
    ("ug", "p ug 2 1\ne 1\n", ("token", 2, "line 2: expected 'e <u> <v>', got 'e 1'")),
    ("ug", "p ug 2 1\ne 1 x\n", ("token", 2, "line 2: non-integer endpoint")),
    ("ug", "p ug 2 1\ne 1 3\n", ("vertex-range", 2, "line 2: vertex out of range 1..2")),
    ("ug", "p ug 2 1\ne 1 1\n", ("self-loop", 2, "line 2: self-loop at vertex 1")),
    ("ug", "p ug 2 2\ne 1 2\ne 2 1\n", ("duplicate-edge", 3, "line 3: duplicate edge {2,1}")),
    ("ug", "p ug 2 0\nf 1 2\n", ("token", 2, "line 2: unrecognized line tag 'f'")),
    ("ug", "c only\n", ("header", 0, "line 0: missing problem line 'p ug <n> <m>'")),
    ("ug", "p ug 2 1\n", ("arc-count", 0, "line 0: problem line promises 1 edges, found 0")),
    ("setcover", "u 2\nu 2\n", ("header", 2, "line 2: duplicate universe line")),
    ("setcover", "u 2 3\n", ("header", 1, "line 1: expected 'u <n>', got 'u 2 3'")),
    ("setcover", "u x\n", ("header", 1, "line 1: non-integer universe size")),
    ("setcover", "u -1\n", ("header", 1, "line 1: negative universe size")),
    ("setcover", f"u {HUGE}\n", ("header", 1, f"line 1: universe size above {sys.maxsize}")),
    ("setcover", "s 1\n", ("header", 1, "line 1: set line before universe line")),
    ("setcover", "u 2\ns 1 x\n", ("token", 2, "line 2: non-integer element 'x'")),
    ("setcover", "u 2\ns 3\n", ("vertex-range", 2, "line 2: element 3 out of range 1..2")),
    ("setcover", "u 2\ns 1 1\n", ("duplicate-edge", 2, "line 2: element 1 repeated in set")),
    ("setcover", "u 2\nt 1\n", ("token", 2, "line 2: unrecognized line tag 't'")),
    ("setcover", "c only\n", ("header", 0, "line 0: missing universe line 'u <n>'")),
    ("labels", "1 x1\n2\n", ("params", 2, "line 2: malformed label sidecar f.labels")),
    # the problem line's first field is `p` itself, not a word starting with p
    ("cnf", "px cnf 1 1\n1 0\n", ("header", 1, "line 1: clause data before problem line")),
    ("cnf", "p cnf 1 1\npx cnf 1 1\n", ("token", 2, "line 2: non-integer literal 'px'")),
    # each label id is the next 1-based id, as format_labels writes it
    ("labels", "2 x1\n1 x2\n", ("params", 1, "line 1: label id '2' in f.labels is not the next id 1")),
    ("labels", "1 x1\nc note\n1 x2\n", ("params", 3, "line 3: label id '1' in f.labels is not the next id 2")),
    ("labels", "1 x1\ntwo x2\n", ("params", 2, "line 2: label id 'two' in f.labels is not the next id 2")),
    # a q line must give an instance: b >= 0, k >= 0 and p >= 1; the last
    # text has the canonical layout
    ("instance", "p dakc 2 0\nq -1 1 2\n", ("params", 2, "line 2: expected b >= 0, k >= 0 and p >= 1, got 'q -1 1 2'")),
    ("instance", "p dakc 2 0\nq 1 -1 2\n", ("params", 2, "line 2: expected b >= 0, k >= 0 and p >= 1, got 'q 1 -1 2'")),
    ("instance", "p dakc 2 0\nq 1 1 -2\n", ("params", 2, "line 2: expected b >= 0, k >= 0 and p >= 1, got 'q 1 1 -2'")),
    ("instance", "p dakc 2 1\na 1 2\nq 1 1 0\n", ("params", 3, "line 3: expected b >= 0, k >= 0 and p >= 1, got 'q 1 1 0'")),
]


@pytest.mark.parametrize(
    "reader,text,expect", BRANCHES, ids=[f"{reader}-{i}" for i, (reader, _, _) in enumerate(BRANCHES)]
)
def test_every_reader_error_is_pinned(reader, text, expect):
    with pytest.raises(ParseError) as exc:
        READERS[reader](text)
    assert (exc.value.kind, exc.value.line_no, str(exc.value)) == expect


BASES = {
    "instance": "p dakc 3 2\na 1 2\nc note\na 2 3\nq 1 1 2\n",
    "cnf": "p cnf 3 2\n1 -2 0\n2 3 0\n",
    "ug": "p ug 3 2\ne 1 2\ne 2 3\n",
    "setcover": "u 3\ns 1 2\ns 3\n",
    "labels": "1 a\n2 b\n",
}
TOKENS = ("0", "1", "2", "3", "-1", "-3", "x", "1.5", "p", "a", "e", "q", "s", "u", "c", str(HUGE))


def _mutate(rng, text):
    # one to three edits: replace, insert or delete a token, or repeat or
    # delete a line; the first line, the header, is edited more often
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        fields = lines[0] if rng.random() < 0.25 else rng.choice(lines)
        edit = rng.randrange(5)
        if edit == 0 and fields:
            fields[rng.randrange(len(fields))] = rng.choice(TOKENS)
        elif edit == 1:
            fields.insert(rng.randint(0, len(fields)), rng.choice(TOKENS))
        elif edit == 2 and fields:
            del fields[rng.randrange(len(fields))]
        elif edit == 3:
            lines.insert(rng.randint(0, len(lines)), list(fields))
        elif len(lines) > 1:
            lines.remove(fields)
    return "".join(" ".join(fields) + "\n" for fields in lines)


def test_mutated_inputs_parse_or_raise_parse_error():
    # whatever the tokens, a reader returns a value or raises ParseError,
    # never another exception: oversized and negative counts included
    rng = random.Random(2101)
    outcomes = Counter()
    for reader, base in BASES.items():
        for _ in range(400):
            try:
                READERS[reader](_mutate(rng, base))
                outcomes[reader, "value"] += 1
            except ParseError as exc:
                outcomes[reader, "above maxsize" if "above" in str(exc) else exc.kind] += 1
    assert sum(outcomes.values()) == 2000
    for reader in BASES:
        assert outcomes[reader, "value"] >= 5
    for reader in ("instance", "cnf", "ug", "setcover"):
        assert outcomes[reader, "header"] >= 20
    assert sum(count for (_, what), count in outcomes.items() if what == "above maxsize") >= 5
