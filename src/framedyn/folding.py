"""Structural zeros and generator constants, folded where a generated line
is emitted (docs/exprlang.md, "Structural zeros").

A value on an exprlang.Tape is the text of a name, None for a structural
zero (a zero that a generator makes by construction) or a float for a
generator constant (a probe's 1.0).  A body line that reads such a value is
parsed into postfix form (postfix_form) and evaluated over the values
(fold): products with a structural zero are not formed, zero terms of a sum
are dropped, products with 1.0 become the other factor, and arithmetic on
generator constants is done at emission.  Literals, the user's and those of
the derivative formulas, are text and are never folded, but for a frame's
constant entries where a generator contracts with its rows (frame_values).
"""

from __future__ import annotations

import math
import re


def texts(values):
    """The text of each value on a tape that is returned or tested: a
    structural zero is 0.0 and a generator constant its repr."""
    return [text(x, 0) for x in values]


def frame_values(rows, zeros, ones):
    """Rows of a frame matrix's names as values on a tape: None at the flat
    indices in zeros (Frame.zeros), 1.0 at those in ones (Frame.ones)."""
    return [[None if k in zeros else 1.0 if k in ones else x
             for k, x in enumerate(row, i * len(row))]
            for i, row in enumerate(rows)]


def target(values):
    """The target that unpacks an input into values: _ for a constant."""
    return ", ".join(x if x.__class__ is str else "_" for x in values)


# The tokens of a generated line: a number, a name (a leaf such as v[0], a
# temporary or a function) or an operator.
TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:e[-+]?\d+)?)"
                   r"|([A-Za-z_]\w*(?:\[\d+\])?)|(\*\*|[-+*/(),]))")
# Python's binding power of each operator; "~" is unary minus, and the
# comma between a call's arguments (_pow(x, p)) binds loosest.
PREC = {",": 0, "+": 1, "-": 1, "*": 2, "/": 2, "~": 3, "**": 4}


def postfix_form(src):
    """The expression src of a generated line (Python arithmetic on
    numbers and names, with calls of one or two arguments) in postfix
    order, for fold: a str for a number or a name, a 1-tuple for an
    operator of PREC or a call of the function it names.  Made with an explicit
    stack, so a deeply nested line needs no recursion."""
    tokens = TOKEN.findall(src) + [("", "", "")]
    out, ops = [], []
    operand = False  # whether the last token ended an operand
    for (number, name, op), (_, _, after) in zip(tokens, tokens[1:]):
        if name and after == "(":
            ops.append(name)
        elif number or name:
            out.append(number or name)
            operand = True
        elif op == "(":
            ops.append(op)
        elif op == ")":
            while ops[-1] != "(":
                out.append((ops.pop(),))
            ops.pop()
            if ops and ops[-1] != "(" and ops[-1] not in PREC:
                out.append((ops.pop(),))
        elif not operand:
            ops.append("~")
        else:
            while (ops and ops[-1] in PREC
                   and (PREC[ops[-1]] > PREC[op]
                        or PREC[ops[-1]] == PREC[op] != 4)):
                out.append((ops.pop(),))
            ops.append(op)
            operand = False
    return out + [(op,) for op in reversed(ops)]


def fold(postfix, names):
    """The value of a postfix expression (postfix_form) over values on a
    tape (exprlang.Tape): None for a structural zero, a float for a
    generator constant, a str for a name or a literal, or (text, binding
    power) for a compound text.  Literals are text, never folded."""
    stack = []
    for item in postfix:
        if item.__class__ is str:
            stack.append(names.get(item, item))
            continue
        op, y = item[0], stack.pop()
        if op == "~":
            stack.append(negated(y))
        elif op in PREC:
            stack.append(binary(op, stack.pop(), y))
        else:
            stack.append((f"{op}({text(y, 0)})", 5))
    return stack.pop()


def negated(x):
    if x is None or x.__class__ is float:
        return x if x is None else -x
    return (f"-{text(x, 3)}", 3)


def binary(op, x, y):
    """x op y folded: a product with a structural zero is a structural
    zero; a sum or difference drops a structural-zero term (0 - y is -y),
    the other terms keeping their nesting; a product or a quotient with
    the generator constant 1.0 is the other operand; arithmetic on
    generator constants is done where its result is finite.  A structural
    zero that no rule removes (a divisor, a power's base) is the literal
    0.0 (text)."""
    if op in "+-" and (x is None or y is None):
        return x if y is None else y if op == "+" else negated(y)
    if op == "*" and (x is None or y is None):
        return None
    if op == "*" and x == 1.0 or op in "*/" and y == 1.0:
        return y if x == 1.0 else x
    if x.__class__ is float is y.__class__ and op != "**" and (
            op != "/" or y):
        z = x + y if op == "+" else x - y if op == "-" else (
            x * y if op == "*" else x / y)
        if math.isfinite(z):
            return z
    prec = PREC[op]
    left, right = ((text(x, 5), text(y, 3)) if op == "**"
                   else (text(x, prec), text(y, prec + 1)))
    return (f"{left} {op} {right}" if prec == 1 else f"{left}{op}{right}",
            prec)


def text(x, prec):
    """The text of a folded value as an operand that binds at least as
    tightly as prec."""
    if x is None:
        return "0.0"
    if x.__class__ is float:
        return repr(x) if math.copysign(1.0, x) > 0 else f"({x!r})"
    if x.__class__ is str:
        return x
    return x[0] if x[1] >= prec else f"({x[0]})"
