"""Text to exact scalars: the scene input grammar.

Python's parser reads the text, with `^` spelled `**` and all whitespace,
newlines included, folded to single spaces.  One evaluator accepts only
`+ - * /`, unary `+`/`-`, `**` with an integer-literal exponent (optionally
negated), integers written as decimal digits, `i`, the coordinate names,
and sin/cos of one integer-linear combination of the coordinates; any other
node raises ValueError, and nothing reaches `eval`.  Left operands are
evaluated first.

Against the earlier hand-written parser the language changed only here:
`x1**2` means `x1^2`; an exponent may be parenthesized (`x1^(2)`); unary
plus may follow an operator (`2*+x1`); `007` (a leading zero) is rejected;
and a unary minus after an operator binds looser than `^`, as at the start
of an expression, so `2*-x1^2` is -2*x1^2 (it was 2*x1^2).
"""

import ast

from .scalars import QQI_ONE, ScalarExpr


def _integer_linear(e: ScalarExpr, nvars):
    """Extract integer frequency vector from a linear polynomial argument."""
    if not (e.den.is_const() and e.den.const_value() == QQI_ONE):
        raise ValueError("trig argument must be an integer-linear combination of coordinates")
    freq = [0] * nvars
    for k, c in e.num.terms.items():
        if any(k[nvars:]) or sum(k) != 1:
            raise ValueError("trig argument must be an integer-linear combination of coordinates")
        j = k.index(1)
        if c.b or c.d != 1:
            raise ValueError("trig argument coefficients must be integers")
        freq[j] = c.a
    return tuple(freq)


def _literal(node, src) -> int:
    match node:
        case ast.Constant(int(v)) if ast.get_source_segment(src, node).isdigit():
            return v
    raise ValueError(f"expected an integer literal, found {ast.unparse(node)!r}")


def _scalar(node, names, src) -> ScalarExpr:
    nvars = len(names)
    match node:
        case ast.BinOp(left, ast.Pow(), ast.UnaryOp(ast.USub(), right)):
            return _scalar(left, names, src) ** -_literal(right, src)
        case ast.BinOp(left, ast.Pow(), right):
            return _scalar(left, names, src) ** _literal(right, src)
        case ast.BinOp(left, ast.Add(), right):
            return _scalar(left, names, src) + _scalar(right, names, src)
        case ast.BinOp(left, ast.Sub(), right):
            return _scalar(left, names, src) - _scalar(right, names, src)
        case ast.BinOp(left, ast.Mult(), right):
            return _scalar(left, names, src) * _scalar(right, names, src)
        case ast.BinOp(left, ast.Div(), right):
            return _scalar(left, names, src) / _scalar(right, names, src)
        case ast.UnaryOp(ast.USub(), operand):
            return -_scalar(operand, names, src)
        case ast.UnaryOp(ast.UAdd(), operand):
            return _scalar(operand, names, src)
        case ast.Constant():
            return ScalarExpr.from_qqi(nvars, _literal(node, src))
        case ast.Name("i"):
            return ScalarExpr.i(nvars)
        case ast.Name(name) if name in names:
            return ScalarExpr.coord(nvars, names.index(name))
        case ast.Call(ast.Name("sin" | "cos" as fn), [arg], []):
            freq = _integer_linear(_scalar(arg, names, src), nvars)
            return getattr(ScalarExpr, fn)(nvars, freq)
    raise ValueError(f"unsupported expression {ast.unparse(node)!r}")


def parse_scalar(text: str, names) -> ScalarExpr:
    """Parse the scene expression grammar into a canonical scalar."""
    src = " ".join(text.split()).replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}: {exc.msg}") from None
    return _scalar(tree.body, tuple(names), src)
