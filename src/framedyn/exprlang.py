"""Closed-form expression language for system definitions.

Expressions are built from real literals, named variables and parameters, the
arithmetic operators ``+ - * /``, unary minus, ``pow(e, n)`` with a literal
integer exponent, and the functions sin, cos, tan, exp, log, sqrt.  Parsing
produces an immutable AST; names are resolved against a declaration set when
an :class:`ExprFunction` is built.  Differentiation is forward propagation of
truncated Taylor coefficients through the AST (see :mod:`framedyn.jets`);
the full grammar is documented in ``docs/exprlang.md``.

Two evaluation routes are provided and cross-checked in the test suite: a
generic tree walk over any coefficient algebra (floats, numpy arrays,
TaylorValues), and compiled straight-line kernels, whose one generated
source runs on Python floats at scalar points and on numpy arrays at
batched points.
"""

from __future__ import annotations

import operator
import re
import types
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress

import numpy as np

from .folding import fold, postfix_form, target, texts
from .jets import (FLOATS, FUNCTION_NAMES, MAX_DIRECTIONS, TaylorValue, power,
                   taylor_fun)

__all__ = [
    "Expr", "Const", "Ref", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Fun",
    "parse", "eval_jet2", "eval_value", "ExprFunction",
    "ExprError", "ExprSyntaxError", "UnknownFunctionError",
    "UnboundNameError", "EvalDomainError",
]


class ExprError(Exception):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UnknownFunctionError(ExprSyntaxError):
    pass


class UnboundNameError(ExprError):
    pass


class EvalDomainError(ExprError):
    pass


# ---------------------------------------------------------------------------
# AST


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Ref(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Fun(Expr):
    name: str
    arg: Expr


def free_names(expr):
    """All variable/parameter names referenced by the expression."""
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Ref):
            out.add(e.name)
        elif isinstance(e, (Neg, Fun)):
            stack.append(e.arg)
        elif isinstance(e, (Add, Sub, Mul, Div)):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, Pow):
            stack.append(e.base)
    return out


# ---------------------------------------------------------------------------
# Lexer / parser


_OPERATORS = "+-*/(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | one of _OPERATORS | "end"
    text: str
    line: int
    col: int


def _tokenize(source):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            tokens.append(_Token("num", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


_ADD_BP = 10
_UNARY_BP = 15
_MUL_BP = 20


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return tok

    def parse_expr(self, min_bp=0):
        tok = self.next()
        if tok.kind == "num":
            left = Const(float(tok.text))
        elif tok.kind == "-":
            left = Neg(self.parse_expr(_UNARY_BP))
        elif tok.kind == "(":
            left = self.parse_expr(0)
            self.expect(")", "')'")
        elif tok.kind == "name":
            left = self.parse_name(tok)
        else:
            raise ExprSyntaxError(
                f"expected a number, name, '(' or '-', found "
                f"{tok.text or 'end of input'!r}", tok.line, tok.col)
        while True:
            op = self.peek()
            if op.kind in "+-":
                bp = _ADD_BP
            elif op.kind in "*/":
                bp = _MUL_BP
            else:
                break
            if bp < min_bp:
                break
            self.next()
            right = self.parse_expr(bp + 1)
            node = {"+": Add, "-": Sub, "*": Mul, "/": Div}[op.kind]
            left = node(left, right)
        return left

    def parse_name(self, tok):
        if self.peek().kind != "(":
            return Ref(tok.text)
        if tok.text == "pow":
            self.next()
            base = self.parse_expr(0)
            self.expect(",", "','")
            exponent = self.parse_exponent()
            self.expect(")", "')'")
            return Pow(base, exponent)
        if tok.text not in FUNCTION_NAMES:
            raise UnknownFunctionError(
                f"unknown function {tok.text!r}", tok.line, tok.col)
        self.next()
        arg = self.parse_expr(0)
        self.expect(")", "')'")
        return Fun(tok.text, arg)

    def parse_exponent(self):
        sign = 1
        tok = self.next()
        if tok.kind == "-":
            sign = -1
            tok = self.next()
        if tok.kind != "num":
            raise ExprSyntaxError(
                "expected an integer exponent", tok.line, tok.col)
        value = float(tok.text)
        if value != int(value):
            raise ExprSyntaxError(
                f"pow exponent must be an integer, got {tok.text}",
                tok.line, tok.col)
        return sign * int(value)


def parse(source):
    """Parse source text into an expression AST.

    Precedence follows the usual convention: ``*``/``/`` bind tighter than
    ``+``/``-``, all left associative; unary minus applies to the whole
    following multiplicative term, as in Python.
    """
    parser = _Parser(_tokenize(source))
    expr = parser.parse_expr(0)
    tok = parser.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(
            f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return expr


# ---------------------------------------------------------------------------
# Generic tree evaluation (floats, arrays, or TaylorValues)


def _children(expr):
    if isinstance(expr, (Add, Sub, Mul, Div)):
        return (expr.left, expr.right)
    if isinstance(expr, (Neg, Fun)):
        return (expr.arg,)
    if isinstance(expr, Pow):
        return (expr.base,)
    if isinstance(expr, (Const, Ref)):
        return ()
    raise TypeError(f"not an expression node: {expr!r}")


def _postorder(root, expand=None):
    """The nodes of root, children first and left to right, without
    recursion.  A compound node for which expand(node) is false is yielded
    without its subtree; expand is asked when the node is reached, so it
    sees what the consumer did with the nodes yielded before."""
    stack = [(root, False)]
    while stack:
        e, ready = stack.pop()
        if ready or isinstance(e, (Const, Ref)) or (
                expand is not None and not expand(e)):
            yield e
        else:
            stack.append((e, True))
            stack.extend((c, False) for c in reversed(_children(e)))


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
           Div: operator.truediv}


def tree_eval(expr, env):
    """Evaluate with leaves drawn from env (name -> float/array/TaylorValue).

    The walk is iterative, left operand first, so deep trees (long sums)
    need no recursion.
    """
    vals = []
    for e in _postorder(expr):
        if isinstance(e, Const):
            vals.append(e.value)
        elif isinstance(e, Ref):
            try:
                vals.append(env[e.name])
            except KeyError:
                raise UnboundNameError(f"unbound name {e.name!r}") from None
        elif type(e) in _BINARY:
            b = vals.pop()
            vals.append(_BINARY[type(e)](vals.pop(), b))
        elif isinstance(e, Neg):
            vals.append(-vals.pop())
        elif isinstance(e, Pow):
            vals.append(power(vals.pop(), e.exponent))
        else:
            vals.append(taylor_fun(e.name, vals.pop()))
    return vals.pop()


def substitute(expr, mapping):
    """expr with every Ref whose name is in mapping replaced by the
    expression mapping[name] (one object, shared by every occurrence);
    built without recursion."""
    vals = []
    for e in _postorder(expr):
        if isinstance(e, (Const, Ref)):
            vals.append(mapping.get(getattr(e, "name", None), e))
        elif type(e) in _BINARY:
            b = vals.pop()
            vals.append(type(e)(vals.pop(), b))
        else:
            field = "base" if isinstance(e, Pow) else "arg"
            vals.append(replace(e, **{field: vals.pop()}))
    return vals.pop()


# ---------------------------------------------------------------------------
# Compiled evaluators


# The two bindings of a generated source, with one rounding and one fault
# rule: jets.FLOATS on Python floats, numpy's ufuncs on arrays.
_FLOAT_GLOBALS, _NUMPY_GLOBALS = (
    {f"_{name}": getattr(m, name) for name in FUNCTION_NAMES}
    | {"_pow": pw} for m, pw in ((FLOATS, power), (np, np.power)))


class Tape:
    """The body of one generated function: temporaries, each assigned once,
    numbered by source text.  A temporary whose text was emitted before
    reuses the earlier name (every primitive is pure, so equal text over
    names assigned once means an equal float).  Many kernel bodies can be
    inlined on one tape (kernel): each inlining renames every line of its
    body, and a renamed line whose text is already on the tape takes the
    earlier name, so a line that several of them need is emitted once.
    A value on the tape is the text of a name, None for a structural zero
    or a float for a generator constant (see kernel), and arithmetic on
    them is folded where it is emitted (fold).  live() marks the lines
    that a function's outputs read; released() gives those lines with each
    temporary deleted after its last read; function() lays a whole
    generated function out around them."""

    def __init__(self):
        self.lines = []
        self.names = {}
        self._templates = {}  # id(body) -> its template (_template)
        self._postfix = {}  # line text -> its postfix form (folding)

    def temp(self, src):
        name = self.names.get(src)
        if name is None:
            name = self.names[src] = f"t{len(self.names)}"
            self.lines.append(f"    {name} = {src}")
        return name

    def fold(self, src, names):
        """The value of the expression src, each name in names standing for
        its value on the tape (other names for themselves), folded
        (folding.fold) and bound: None, a float, or a name, a temporary
        where the folded text is not a name."""
        postfix = self._postfix.get(src)
        if postfix is None:
            postfix = self._postfix[src] = postfix_form(src)
        x = fold(postfix, names)
        if x is None or type(x) is float:
            return x
        if type(x) is str:
            return x if x.isidentifier() else self.temp(x)
        return self.temp(x[0])

    def live(self, outputs):
        """For each line, whether the output values read it: a line is
        live if its temporary is an output or a live line reads it.  The
        other lines are dead, and a generated function leaves them out."""
        need = set(_TEMP.findall(" ".join(texts(outputs))))
        flags = []
        for line in reversed(self.lines):
            name, src = line[4:].split(" = ", 1)
            flags.append(name in need)
            if name in need:
                need.update(_TEMP.findall(src))
        return flags[::-1]

    def released(self, keep):
        """The live lines of the outputs in keep (live), each temporary
        deleted (del) after the line that reads it last, unless its name is
        in keep: so the numpy binding frees each array of the batch as soon
        as no later line needs it."""
        lines = list(compress(self.lines, self.live(keep)))
        last = {}
        for i, line in enumerate(lines):
            for x in _TEMP.findall(line.split(" = ", 1)[1]):
                last[x] = i
        keep = set(texts(keep))
        dead = [[] for _ in lines]
        for i, line in enumerate(lines):
            name = line[4:].split(" = ", 1)[0]
            if name not in keep:
                dead[last.get(name, i)].append(name)
        out = []
        for line, names in zip(lines, dead):
            out.append(line)
            if names:
                out.append(f"    del {', '.join(names)}")
        return out

    def function(self, name, args, inputs, outputs, filename):
        """The generated function `name`(*args), bound by bind_source: it
        unpacks each argument named in inputs into the values given there
        (folding.target), runs the released lines, those that the outputs
        read, and returns one tuple per sequence of outputs (their values
        as text, see folding.texts), the tuple itself when there is one."""
        returned = ", ".join(f"({''.join(f'{x}, ' for x in texts(p))})"
                             for p in outputs)
        source = "\n".join(
            [f"def {name}({', '.join(args)}):"]
            + [f"    {target(names)}, = {arg}"
               for arg, names in inputs.items()]
            + self.released(sum(outputs, []))
            + [f"    return {returned}"])
        return bind_source(source, name, filename)

    def kernel(self, kernels, k, values, dirs, params, count=None, at=0):
        """The slot values of the kernel of the first `count` expressions
        of kernels (a Kernels) along k directions, inlined at the leaf
        values given: values and each of the k directions follow its
        variables, and params names a sequence holding its parameters from
        index `at` on.  A leaf value is the text of a name, None for a
        structural zero (the zero base part of a vertical lift, the entries
        of a probe but its 1.0) or a float for a generator constant.
        Each line of the kernel's body (kernel_body) is copied with its
        leaf names (v[i], d{d}[i], p[j]) and temporaries renamed and bound
        by temp; a line whose text reduces to a name is not emitted, that
        name stands for it.  A line that reads a structural zero or a
        generator constant is folded instead (fold): it is not emitted
        where it folds to one, so a slot that comes out all zero is None,
        as is a slot that the body marks as structurally zero."""
        body = kernel_body(kernels, k, count)
        template = self._templates.get(id(body))
        if template is None:
            template = self._templates[id(body)] = _template(body[0])
        names = {f"p[{j}]": f"{params}[{at + j}]"
                 for j in range(len(kernels.param_names))}
        for i, x in enumerate(values):
            names[f"v[{i}]"] = x
            for d, w in enumerate(dirs):
                names[f"d{d}[{i}]"] = w[i]
        for name, first, pairs, src in template:
            try:
                text = first + "".join([names[x] + t for x, t in pairs])
            except TypeError:  # a name stands for None or a float
                names[name] = (names[src] if src in names  # a lone name
                               else self.fold(src, names))
                continue
            names[name] = text if text.isidentifier() else self.temp(text)
        return [None if s is None else names[s] for s in body[1]]


# The names in a kernel body: its temporaries and its leaves.
_NAME = re.compile(r"\b(t\d+|[vp]\[\d+\]|d\d+\[\d+\])")
_TEMP = re.compile(r"\bt\d+\b")


def _template(lines):
    """The lines of a kernel body split at their names, for Tape.kernel:
    each as (name, first, pairs, src), its text src being first followed
    by name + text for each pair."""
    template = []
    for line in lines:
        name, src = line[4:].split(" = ", 1)
        parts = _NAME.split(src)
        template.append((name, parts[0], tuple(zip(parts[1::2],
                                                   parts[2::2])), src))
    return template


class _Codegen:
    """Emit straight-line Python for the Taylor propagation of expressions
    onto a Tape.

    Slots are represented as source strings, with None marking a structural
    zero (dropped from emitted arithmetic).  Subtrees whose structure
    indices (see _structure) are in `shared` are bound to temporaries once
    and reused through `memo`.
    """

    def __init__(self, k, nslots, shared=frozenset()):
        self.k = k
        self.nslots = nslots
        self.tape = Tape()
        self.temp = self.tape.temp
        self.shared = shared
        self.memo = {}

    def bind(self, slots):
        return [s if (s is None or s.isidentifier()) else self.temp(s)
                for s in slots]

    def shallow(self, slots):
        """Bind slots carrying many parentheses to temporaries: a long sum
        nests one level per term, and Python's parser stops at 200."""
        return [self.temp(s) if s is not None and s.count("(") > 100 else s
                for s in slots]

    def add(self, a, b, sign="+"):
        out = []
        for x, y in zip(self.shallow(a), self.shallow(b)):
            if x is None and y is None:
                out.append(None)
            elif y is None:
                out.append(x)
            elif x is None:
                out.append(y if sign == "+" else f"(-({y}))")
            else:
                out.append(f"(({x}) {sign} ({y}))")
        return out

    def neg(self, a):
        return [None if x is None else f"(-({x}))" for x in a]

    def mul(self, a, b):
        # Accumulation must mirror TaylorValue.__mul__ exactly (grouped
        # swap-partner terms) so compiled and tree paths stay bit-identical.
        from .jets import _MUL
        a = self.bind(a)
        b = self.bind(b)
        out = []
        for groups in _MUL[self.k]:
            parts = []
            for group in groups:
                terms = [f"{a[s]}*{b[t]}" for s, t in group
                         if a[s] is not None and b[t] is not None]
                if not terms:
                    continue
                if len(terms) == 1:
                    parts.append(terms[0])
                else:
                    parts.append("(" + " + ".join(terms) + ")")
            out.append(" + ".join(parts) if parts else None)
        return out

    def div(self, a, b):
        from .jets import _MUL, _popcount
        a = self.bind(a)
        b = self.bind(b)
        inv = self.temp(f"1.0/{b[0]}" if b[0] is not None else "1.0/0.0")
        out = [None] * self.nslots
        for u in sorted(range(self.nslots), key=_popcount):
            expr = a[u]
            for group in _MUL[self.k][u]:
                terms = [f"{out[s]}*{b[t]}" for s, t in group
                         if s != u and out[s] is not None
                         and b[t] is not None]
                if not terms:
                    continue
                sub = (terms[0] if len(terms) == 1
                       else "(" + " + ".join(terms) + ")")
                expr = f"-{sub}" if expr is None else f"{expr} - {sub}"
            out[u] = None if expr is None else self.temp(f"({expr})*{inv}")
        return out

    def compose(self, a, derivs):
        """Chain rule through g given source strings for g, g', g''(...)."""
        from .jets import _FAA
        a = self.bind(a)
        derivs = self.bind(list(derivs))
        out = [derivs[0]]
        for u in range(1, self.nslots):
            terms = []
            for nblocks, blocks in _FAA[self.k][u]:
                if derivs[nblocks] is None:
                    continue
                factors = [a[bm] for bm in blocks]
                if any(f is None for f in factors):
                    continue
                prod = (factors[0] if len(factors) == 1
                        else "(" + "*".join(factors) + ")")
                terms.append(f"{derivs[nblocks]}*{prod}")
            out.append(" + ".join(terms) if terms else None)
        return out

    def pow(self, a, n):
        a = self.bind(a)
        x = a[0] if a[0] is not None else "0.0"
        derivs = []
        coeff = 1
        p = n
        for _ in range(self.k + 1):
            if coeff == 0:
                derivs.append(None)
            elif p == 0:
                derivs.append(f"{float(coeff)!r}")
            elif p == 1:
                derivs.append(f"{float(coeff)!r}*{x}" if coeff != 1 else x)
            else:  # a square is x*x on both bindings, as numpy squares
                xp = f"({x}*{x})" if p == 2 else f"_pow({x}, {p})"
                derivs.append(f"{float(coeff)!r}*{xp}" if coeff != 1 else xp)
            coeff *= p
            p -= 1
        return self.compose(a, derivs)

    def fun(self, a, name):
        a = self.bind(a)
        x = a[0] if a[0] is not None else "0.0"
        k = self.k
        if name == "sin":
            s = self.temp(f"_sin({x})")
            c = self.temp(f"_cos({x})") if k >= 1 else None
            derivs = (s, c, f"(-{s})", f"(-{c})")
        elif name == "cos":
            c = self.temp(f"_cos({x})")
            s = self.temp(f"_sin({x})") if k >= 1 else None
            derivs = (c, f"(-{s})", f"(-{c})", s)
        elif name == "tan":
            t = self.temp(f"_tan({x})")
            g1 = self.temp(f"1.0 + {t}*{t}") if k >= 1 else None
            derivs = (t, g1, f"2.0*{t}*{g1}", f"{g1}*(2.0 + 6.0*{t}*{t})")
        elif name == "exp":
            e = self.temp(f"_exp({x})")
            derivs = (e, e, e, e)
        elif name == "log":
            inv = self.temp(f"1.0/{x}") if k >= 1 else None
            derivs = (f"_log({x})", inv, f"(-{inv}*{inv})",
                      f"2.0*_pow({inv}, 3)")
        elif name == "sqrt":
            r = self.temp(f"_sqrt({x})")
            inv = self.temp(f"0.5/{r}") if k >= 1 else None
            derivs = (r, inv, f"(-0.5*{inv}/{x})", f"1.5*{inv}/({x}*{x})")
        else:
            raise ValueError(name)
        return self.compose(a, derivs[: k + 1])


def _structure(exprs):
    """Hash-consed form of exprs, built without recursion.

    Returns (table, roots, ids): table lists every distinct subtree once,
    children before parents in left-to-right post-order, as entries
    (tag, payload, child indices); roots holds the table index of each
    expression, and ids maps id(node) of every node in exprs to its index.
    Literals are keyed by their repr, so 0.0 and -0.0 stay apart and two
    subtrees with one index evaluate to the same float.
    """
    table, index, ids = [], {}, {}
    roots = []
    for root in exprs:
        for e in _postorder(root, lambda e: id(e) not in ids):
            if id(e) in ids:
                continue
            t = type(e)
            if t is Const:
                entry = ("c", repr(e.value), ())
            elif t is Ref:
                entry = ("r", e.name, ())
            else:
                payload = (e.exponent if t is Pow
                           else e.name if t is Fun else None)
                entry = (t.__name__, payload,
                         tuple([ids[id(c)] for c in _children(e)]))
            sid = index.get(entry)
            if sid is None:
                sid = index[entry] = len(table)
                table.append(entry)
            ids[id(e)] = sid
        roots.append(ids[id(root)])
    return tuple(table), tuple(roots), ids


def _shared(table, roots):
    """Indices of the compound subtrees that occur more than once: those
    referenced by more than one parent entry or root.  A subtree inside a
    repeated one counts once, since it is emitted once, inside it."""
    refs = [0] * len(table)
    for _, _, kids in table:
        for c in kids:
            refs[c] += 1
    for r in roots:
        refs[r] += 1
    return frozenset(i for i, (tag, _, _) in enumerate(table)
                     if refs[i] > 1 and tag not in ("c", "r"))


def _emit(gen, root, ids, leaf_slots):
    """Slots of one expression, left operand first; a shared subtree is
    emitted at its first occurrence only."""
    vals = []
    for e in _postorder(root, lambda e: ids[id(e)] not in gen.memo):
        if isinstance(e, Const):
            vals.append([f"{e.value!r}"] + [None] * (gen.nslots - 1))
            continue
        if isinstance(e, Ref):
            vals.append(leaf_slots(e.name))
            continue
        sid = ids[id(e)]
        if sid in gen.memo:
            vals.append(gen.memo[sid])
            continue
        if isinstance(e, Neg):
            out = gen.neg(vals.pop())
        elif isinstance(e, Pow):
            out = gen.pow(vals.pop(), e.exponent)
        elif isinstance(e, Fun):
            out = gen.fun(vals.pop(), e.name)
        else:
            b = vals.pop()
            a = vals.pop()
            if isinstance(e, Add):
                out = gen.add(a, b, "+")
            elif isinstance(e, Sub):
                out = gen.add(a, b, "-")
            elif isinstance(e, Mul):
                out = gen.mul(a, b)
            else:
                out = gen.div(a, b)
        if sid in gen.shared:
            out = gen.memo[sid] = gen.bind(out)
        vals.append(out)
    return vals.pop()


# The generated functions by tag and arguments (see generated): the compiled
# kernels, their bodies, the functions built from many kernels (such as the
# nonholonomic field) and linsolve's eliminations.  Parameter values are
# call arguments, so systems that differ only in parameter values share
# them.  _TOKENS interns each Kernels key (Kernels.key).
_KERNELS, _TOKENS = {}, {}


def generated(tag, build, *args):
    """build(*args), made on first use and kept in the module cache under
    tag and args; a Kernels argument is keyed by its key, so it is shared by
    every Kernels of the same structure and names."""
    key = (tag,) + tuple(a.key if isinstance(a, Kernels) else a
                         for a in args)
    fn = _KERNELS.get(key)
    if fn is None:
        fn = _KERNELS[key] = build(*args)
    return fn


def compile_taylor(exprs, var_names, param_names, k, structure=None):
    """Compile a kernel f(vals, params, *dirs) -> slot tuple.

    exprs is one expression or a sequence of them; the tuple holds the 2**k
    slots of each expression in turn.  One generated function serves all of
    them and evaluates every repeated subtree once.  vals and each direction
    are positional sequences following var_names; params follows
    param_names.  Mixed leaf slots are structurally zero, which the
    generated code exploits.

    The source is compiled once and bound twice: the returned function runs
    on Python floats, and its `batched` attribute runs the same code on
    numpy arrays (see run_kernel).  Kernels are memoized by expression
    structure, names and k; structure, when given, is _structure(exprs),
    already computed (see Kernels).
    """
    if isinstance(exprs, Expr):
        exprs = (exprs,)
    return generated("taylor", _generate,
                     Kernels(exprs, var_names, param_names, structure), k)


class Kernels:
    """The compiled kernels of one sequence of expressions, by k and by the
    number of leading expressions they cover.  The structure is computed
    once, on first use: the table of the leading expressions is a prefix of
    the full one (each root is entered after its subtree), so every kernel
    reuses it and keys as compile_taylor would."""

    def __init__(self, exprs, var_names, param_names, structure=None):
        self.exprs = tuple(exprs)
        self.var_names = tuple(var_names)
        self.param_names = tuple(param_names)
        self._structure = structure
        self._kernels = {}

    @property
    def structure(self):
        if self._structure is None:
            self._structure = _structure(self.exprs)
        return self._structure

    @cached_property
    def key(self):
        """The key of these expressions in the module cache (generated): a
        token of the subtree table, the roots, the variable and parameter
        names, interned once per Kernels so that a lookup hashes no tree."""
        key = (*self.structure[:2], self.var_names, self.param_names)
        return _TOKENS.setdefault(key, len(_TOKENS))

    def head(self, count=None):
        """The Kernels of the leading `count` expressions (all by
        default), over the prefix of the structure that they cover."""
        if count is None or count == len(self.exprs):
            return self
        table, roots, ids = self.structure
        roots = roots[:count]
        return Kernels(self.exprs[:count], self.var_names, self.param_names,
                       (table[:max(roots, default=-1) + 1], roots, ids))

    def __call__(self, k, count=None):
        count = len(self.exprs) if count is None else count
        fn = self._kernels.get((k, count))
        if fn is None:
            head = self.head(count)
            fn = self._kernels[k, count] = compile_taylor(
                head.exprs, self.var_names, self.param_names, k,
                head.structure)
        return fn


def bind_source(source, name, filename, scalar=None, batched=None):
    """Compile source once and bind its function `name` twice: to the
    functions on Python floats (the returned function) and, as its
    `batched` attribute, to numpy's, with the same default arguments (one
    rounding and one fault rule, docs/exprlang.md).  scalar and batched
    add globals to each binding."""
    namespace = {**_FLOAT_GLOBALS, **(scalar or {})}
    exec(compile(source, filename, "exec"), namespace)
    fn = namespace[name]
    fn.__source__ = source
    fn.batched = types.FunctionType(fn.__code__,
                                    {**_NUMPY_GLOBALS, **(batched or {})},
                                    name, fn.__defaults__)
    return fn


def kernel_body(kernels, k, count=None):
    """(lines, slots): the body of the generated kernel of the first
    `count` expressions of kernels (a Kernels) along k directions, over the
    leaf names v[i], d{d}[i] and p[j], and the bound text of its 2**k slots
    per expression, None marking a structural zero.  Made once per
    structure, names and k, in the module cache."""
    return generated("body", _emit_body, kernels.head(count), k)


def _emit_body(kernels, k):
    if k > MAX_DIRECTIONS:
        raise ValueError(f"at most {MAX_DIRECTIONS} directions, not {k}")
    table, roots, ids = kernels.structure
    var_index = {name: i for i, name in enumerate(kernels.var_names)}
    param_index = {name: i for i, name in enumerate(kernels.param_names)}
    nslots = 1 << k
    gen = _Codegen(k, nslots, _shared(table, roots))

    def leaf_slots(name):
        if name in var_index:
            i = var_index[name]
            # a linear leaf: value and first slots; mixed slots vanish
            out = [None] * nslots
            out[0] = f"v[{i}]"
            for d in range(k):
                out[1 << d] = f"d{d}[{i}]"
            return out
        if name in param_index:
            out = [None] * nslots
            out[0] = f"p[{param_index[name]}]"
            return out
        raise UnboundNameError(f"unbound name {name!r}")

    slots = [s for e in kernels.exprs
             for s in gen.bind(_emit(gen, e, ids, leaf_slots))]
    return tuple(gen.tape.lines), tuple(slots)


def _generate(kernels, k):
    lines, slots = kernel_body(kernels, k)
    dirs = ", ".join(f"d{d}" for d in range(k))
    header = f"def _f(v, p{', ' + dirs if dirs else ''}):"
    ret = ", ".join("0.0" if s is None else s for s in slots)
    source = "\n".join([header, *lines, f"    return ({ret},)"])
    return bind_source(source, "_f", f"<taylor k={k}>")


_DOMAIN_FAULTS = (ZeroDivisionError, FloatingPointError, ValueError,
                  OverflowError)


def _guarded(fn, *args):
    """fn(*args), numpy's division by zero and invalid operations raised
    and overflow ignored; a domain fault raises EvalDomainError."""
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore"):
            return fn(*args)
    except _DOMAIN_FAULTS as exc:
        raise EvalDomainError(str(exc)) from exc


def _columns(parts, shape):
    """Per-coordinate views of arrays whose last axes, joined, give the
    variables, broadcast to the batch shape (0-d views for shape ())."""
    cols = []
    for part in parts:
        part = np.asarray(part, dtype=float)
        if part.shape[:-1] != shape:
            part = np.broadcast_to(part, shape + part.shape[-1:])
        cols += [part[..., i] for i in range(part.shape[-1])]
    return cols


def _gathered(entries, shape):
    """The inverse of _columns: entries (arrays of the batch shape, or
    floats broadcast to it) stacked on a trailing axis."""
    out = np.empty(shape + (len(entries),))
    for i, x in enumerate(entries):
        out[..., i] = x
    return out


def _stacked(entries, shape):
    """entries (arrays of the batch shape, or floats broadcast to it)
    stacked on a leading axis."""
    out = np.empty((len(entries),) + shape)
    for i, x in enumerate(entries):
        out[i] = x
    return out


def run(fn, point, consts, *more):
    """fn(point, consts, *more) for a kernel f(vals, params, *dirs) or a
    generated source.  point and each of more are sequences of arrays whose
    last axes, joined, follow fn's inputs; consts is passed as it is.  A 1-D
    point runs the float binding on a list of Python floats per input; a
    batched one, shape (..., d), the numpy binding (fn.batched) on
    per-coordinate columns broadcast to the batch shape, under _guarded.
    Domain faults raise EvalDomainError."""
    shape = np.shape(point[0])[:-1]
    if shape:
        return _guarded(fn.batched, _columns(point, shape), consts,
                        *[_columns(x, shape) for x in more])
    x, *rest = [sum([np.asarray(part, dtype=float).tolist() for part in parts],
                    []) for parts in (point, *more)]
    try:
        return fn(x, consts, *rest)
    except _DOMAIN_FAULTS as exc:
        raise EvalDomainError(str(exc)) from exc


def run_kernel(fn, point, params, dirs=()):
    """run on a kernel, its slots stacked on a leading axis at a batch:
    the slot tuple at a 1-D point, else an array of shape (nslots, ...)
    into which slots that do not depend on the point are broadcast."""
    slots = run(fn, point, params, *dirs)
    shape = np.shape(point[0])[:-1]
    return _stacked(slots, shape) if shape else slots


# ---------------------------------------------------------------------------
# Resolved expression functions


class ExprFunction:
    """An expression resolved against an ordered declaration set.

    Provides plain evaluation and exact jets of any order up to three
    directions at scalar points, its compiled kernels (which run_kernel
    also evaluates at batched points), and the tree walk over arbitrary
    leaf values.
    """

    def __init__(self, expr, var_names, param_names=()):
        if isinstance(expr, str):
            expr = parse(expr)
        self.expr = expr
        self.var_names = tuple(var_names)
        self.param_names = tuple(param_names)
        declared = set(self.var_names) | set(self.param_names)
        missing = free_names(expr) - declared
        if missing:
            raise UnboundNameError(
                f"unbound name(s) in expression: {', '.join(sorted(missing))}")
        # kernel(k): the compiled kernel for k directions (see Kernels)
        self.kernel = Kernels((expr,), self.var_names, self.param_names)

    def value(self, vals, params=()):
        return run(self.kernel(0), (vals,), tuple(params))[0]

    def taylor(self, vals, params, dirs):
        """Slots of the jet along the given directions (tuple per direction)."""
        return run(self.kernel(len(dirs)), (vals,), tuple(params),
                   *[(d,) for d in dirs])

    def taylor_env(self, env):
        """Tree evaluation with arbitrary leaf values (TaylorValues/arrays)."""
        return _guarded(tree_eval, self.expr, env)


def _as_float_map(mapping):
    return {k: float(v) for k, v in mapping.items()}


def eval_value(expr, point, params=None):
    """Plain evaluation with named bindings."""
    env = _as_float_map(point)
    if params:
        env.update(_as_float_map(params))
    return _guarded(tree_eval, expr, env)


def eval_jet2(expr, point, params=None, dir1=None, dir2=None):
    """Exact 2-jet of an expression along the plane spanned by two directions.

    Directions assign a rate to each variable; omitted variables move with
    rate zero, and parameters are constants.  Implemented by propagating
    truncated Taylor coefficients through the AST.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    params = params or {}
    dir1 = dir1 or {}
    dir2 = dir2 or {}
    env = {}
    for name, x in point.items():
        env[name] = TaylorValue.variable(
            float(x), (float(dir1.get(name, 0.0)), float(dir2.get(name, 0.0))), 2)
    for name, x in params.items():
        env[name] = TaylorValue.constant(float(x), 2)
    for d in (dir1, dir2):
        for name in d:
            if name not in point:
                raise UnboundNameError(
                    f"direction names unknown variable {name!r}")
    out = _guarded(tree_eval, expr, env)
    if not isinstance(out, TaylorValue):
        out = TaylorValue.constant(out, 2)
    return out.jet2()
