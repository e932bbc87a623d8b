"""Parser and emitter for the .gcg graph text format.

Grammar (comments run from '#' to end of line)::

    file        := stmt*
    stmt        := vertex_stmt | edge_stmt
    vertex_stmt := "vertex" IDENT ("," IDENT)* ";"
    edge_stmt   := "edge" (IDENT ":")? IDENT "->" IDENT ("*" (NAT | "inf"))? ";"

Vertices must be declared before use, the default multiplicity is one, and
"inf" stands for the OMEGA multiplicity.  Unlabeled duplicate edges between
the same pair merge additively (saturating); duplicate labels are errors.
All errors carry 1-based line and column positions.

The text is a ``str``.  ``cli._load`` reads a file and stdin the same way:
it turns CRLF and a lone CR into a newline, as text-mode ``open()`` does,
and reports a byte that is not UTF-8 as a parse error.  In the ``str``,
blanks are space, tab, carriage return and newline, and a line ends only at
a newline.  An IDENT starts with a letter (``str.isalpha``) or an
underscore and goes on with letters, digits, numeric characters and
underscores (``str.isalnum``).  A NAT is a run of ``str.isdigit``
characters; as a count it must be decimal digits (``str.isdecimal``), so
``٣`` reads as 3 and ``²`` is an error.

The plain spelling that ``emit_gcg`` writes (ASCII, no ``#``, no blank but
space, tab, CR and newline, blanks around ``->`` and ``*`` and after a
label's ``:``, counts of up to 18 digits with no leading zero) is cut at
``;`` and each statement at blanks.  Any other text (comments, ``a->b``,
characters outside ASCII, a form feed, every error) goes to the token
parser, which alone reports errors and their positions.

In the token parser one compiled regular expression scans the whole text
once; each match is a comment (dropped), a punctuation token, or a word run
split into tokens, and every token is kept with its offset, from which an
error computes its line and column.

``parse_graph(emit_gcg(g)) == g`` for every graph whose vertex names and
labels are IDENTs other than the reserved words ``vertex``, ``edge`` and
``inf``, since the emitter writes the canonical form.  ``str.isidentifier``
is not the test: it accepts ``℘`` and ``a·b``, which are no IDENTs.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import DuplicateLabel, ParseError, UndeclaredVertex
from .graph_core import OMEGA, Bundle, Graph, Mult

_KEYWORDS = {"vertex", "edge", "inf"}
_PUNCT = {",", ";", ":", "*", "->"}

# Blanks, then one piece: punctuation, a run of word characters, a comment,
# "" at the end of the text, or any other single character.  After the greedy
# blanks one alternative always matches, so the scan never backtracks.
_TOKEN = re.compile(r"[ \t\r\n]*(->|[,;:*]|\w+|#[^\n]*|\Z|.)", re.DOTALL)


def _scan(src: str) -> tuple[list[str], list[int]]:
    """The tokens, ending in "", and their offsets.

    A word run is one token or two: a run of digits (``str.isdigit``), a
    name (a letter or an underscore, then the rest of the run), or such a
    digit run and then a name.  Any other character that starts a token is
    an error.
    """
    toks: list[str] = []
    starts: list[int] = []
    for m in _TOKEN.finditer(src):
        tok, at = m[1], m.start(1)
        if tok[:1] == "#":
            continue
        if tok[:1].isdigit():
            j = 1
            while j < len(tok) and tok[j].isdigit():
                j += 1
            toks.append(tok[:j])
            starts.append(at)
            if j == len(tok):
                continue
            tok, at = tok[j:], at + j
        if not tok or tok in _PUNCT or tok[0].isalpha() or tok[0] == "_":
            toks.append(tok)
            starts.append(at)
        else:
            raise ParseError(*_line_col(src, at), f"unexpected character {tok[0]!r}")
    return toks, starts


def _line_col(src: str, offset: int) -> tuple[int, int]:
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


class _Parser:
    """Recursive descent over the token strings; each method takes the index
    of the token it starts at.

    A token's kind follows from its text: "" ends the input, punctuation is
    in ``_PUNCT``, a NAT starts with a digit, and the rest are IDENTs.
    """

    def __init__(self, src: str):
        self.src = src
        self.toks, self.starts = _scan(src)
        # each vertex, in declaration order, to the string it was declared
        # as; every bundle shares that object, so dict lookups match by identity
        self.declared: dict[str, str] = {}
        self.labels: set[str] = set()
        self.bundles: list[Bundle] = []

    def fail(self, k: int, message: str, kind: type[ParseError] = ParseError) -> NoReturn:
        """Raise ``kind`` at token ``k``."""
        raise kind(*_line_col(self.src, self.starts[k]), message)

    def expected(self, k: int, what: str) -> NoReturn:
        self.fail(k, f"expected {what}, found {self.toks[k] or 'end of input'!r}")

    def name(self, k: int) -> str:
        tok = self.toks[k]
        if not tok or tok in _PUNCT or tok[0].isdigit():
            self.expected(k, "a name")
        if tok in _KEYWORDS:
            self.fail(k, f"{tok!r} is a reserved word")
        return tok

    def vertex(self, k: int) -> str:
        tok = self.toks[k]
        vertex = self.declared.get(tok)
        if vertex is None:  # every declared vertex is a name
            self.name(k)
            self.fail(k, f"vertex {tok!r} used before declaration", UndeclaredVertex)
        return vertex

    def count(self, k: int) -> Mult:
        tok = self.toks[k]
        if tok == "inf":
            return OMEGA
        if not tok[:1].isdigit():
            self.expected(k, "a count or 'inf'")
        if not tok.isdecimal():
            self.fail(k, f"count {tok!r} is not a decimal number")
        try:
            mult = int(tok)
        except ValueError:  # more digits than int() converts
            self.fail(k, f"count of {len(tok)} digits is too long")
        if mult < 1:
            self.fail(k, "multiplicity must be at least 1")
        return mult

    def parse(self) -> Graph:
        toks = self.toks
        k = 0
        while toks[k]:
            if toks[k] == "vertex":
                k = self.vertex_stmt(k + 1)
            elif toks[k] == "edge":
                k = self.edge_stmt(k + 1)
            else:
                self.fail(k, f"expected 'vertex' or 'edge', found {toks[k]!r}")
        return Graph(self.declared, self.bundles)

    def vertex_stmt(self, k: int) -> int:
        toks, declared = self.toks, self.declared
        while True:
            tok = self.name(k)
            if tok in declared:
                self.fail(k, f"vertex {tok!r} already declared")
            declared[tok] = tok
            if toks[k + 1] == ";":
                return k + 2
            if toks[k + 1] != ",":
                self.expected(k + 1, "',' or ';'")
            k += 2

    def edge_stmt(self, k: int) -> int:
        toks = self.toks
        label = None
        first = self.name(k)
        if toks[k + 1] == ":":
            if first in self.labels:
                self.fail(k, f"label {first!r} already used", DuplicateLabel)
            self.labels.add(first)
            label = first
            k += 2
        src = self.vertex(k)
        if toks[k + 1] != "->":
            self.expected(k + 1, "'->'")
        dst = self.vertex(k + 2)
        k += 3
        mult: Mult = 1
        if toks[k] == "*":
            mult = self.count(k + 1)
            k += 2
        if toks[k] != ";":
            self.expected(k, "';'")
        self.bundles.append(Bundle(src, dst, mult, label))
        return k + 1


def _read_plain(src: str) -> Graph | None:
    """The graph of ``src`` in the plain spelling, or None for other text."""
    if not src.isascii() or "#" in src or any(ch in src for ch in "\f\v\x1c\x1d\x1e\x1f"):
        return None  # str.split() cuts at these, the scanner rejects them
    *stmts, tail = src.split(";")
    declared: dict[str, str] = {}  # each bundle end is the string its declaration made
    labels: set[str] = set()
    bundles: list[Bundle] = []
    for stmt in stmts:
        words = stmt.split()
        if words and words[0] == "vertex":
            words = stmt.replace(",", " , ").split()
            if len(words) % 2 or any(sep != "," for sep in words[2::2]):
                return None
            for name in words[1::2]:
                if not name.isidentifier() or name in _KEYWORDS or name in declared:
                    return None
                declared[name] = name
            continue
        label = None
        if len(words) > 1 and words[1][-1] == ":":
            label = words.pop(1)[:-1]
            if not label.isidentifier() or label in _KEYWORDS or label in labels:
                return None
            labels.add(label)
        if len(words) == 4:
            mult: Mult = 1
        elif len(words) == 6 and words[4] == "*" and (count := words[5]) == "inf":
            mult = OMEGA
        elif len(words) == 6 and words[4] == "*" and count.isdigit() and count[0] != "0" and len(count) < 19:
            mult = int(count)  # no leading zero, and short enough for int()
        else:
            return None
        src_v, dst_v = declared.get(words[1]), declared.get(words[3])
        if words[0] != "edge" or words[2] != "->" or src_v is None or dst_v is None:
            return None
        bundles.append(Bundle(src_v, dst_v, mult, label))
    return None if tail.split() else Graph(declared, bundles)


def parse_graph(src: str) -> Graph:
    """Parse .gcg text into a graph."""
    return _read_plain(src) or _Parser(src).parse()


def emit_gcg(g: Graph) -> str:
    """Canonical text form; parsing it reproduces the graph whenever every
    vertex name and label is an IDENT and no reserved word."""
    lines = []
    if g.vertices:
        lines.append("vertex " + ", ".join(g.vertices) + ";")
    for b in g.bundles:
        head = f"edge {b.label}: " if b.label else "edge "
        stmt = f"{head}{b.src} -> {b.dst}"
        if b.mult != 1:  # OMEGA prints as inf
            stmt += f" * {b.mult}"
        lines.append(stmt + ";")
    return "\n".join(lines) + ("\n" if lines else "")
