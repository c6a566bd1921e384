"""Pretty-printer: AST nodes back to VHDL-subset text.

Used for human-readable mutant descriptions ("``a and b`` -> ``a or b``")
and for round-trip tests of the parser.
"""

from __future__ import annotations

from repro.hdl import ast

_BINARY_PAREN_OPS = frozenset(
    {"and", "or", "nand", "nor", "xor", "xnor", "=", "/=", "<", "<=", ">",
     ">=", "+", "-", "*", "mod", "rem", "&"}
)


def expr_to_text(node: ast.Expr) -> str:
    """Render an expression; sub-expressions are parenthesized for clarity."""
    if isinstance(node, ast.Name):
        return node.ident
    if isinstance(node, ast.IntLit):
        return str(node.value)
    if isinstance(node, ast.BitLit):
        return f"'{node.value}'"
    if isinstance(node, ast.BitStringLit):
        return f'"{node.bits}"'
    if isinstance(node, ast.BoolLit):
        return "true" if node.value else "false"
    if isinstance(node, ast.EnumLit):
        return node.literal
    if isinstance(node, ast.Unary):
        if node.op == "not":
            return f"not {_sub(node.operand)}"
        return f"{node.op}{_sub(node.operand)}"
    if isinstance(node, ast.Binary):
        return f"{_sub(node.left)} {node.op} {_sub(node.right)}"
    if isinstance(node, ast.Index):
        return f"{expr_to_text(node.prefix)}({expr_to_text(node.index)})"
    if isinstance(node, ast.Slice):
        return (
            f"{expr_to_text(node.prefix)}({expr_to_text(node.left)} "
            f"downto {expr_to_text(node.right)})"
        )
    if isinstance(node, ast.Attribute):
        return f"{expr_to_text(node.prefix)}'{node.attr}"
    if isinstance(node, ast.Call):
        args = ", ".join(expr_to_text(a) for a in node.args)
        return f"{node.func}({args})"
    if isinstance(node, ast.OthersAggregate):
        return f"(others => {expr_to_text(node.value)})"
    raise TypeError(f"cannot print {type(node).__name__}")


def _sub(node: ast.Expr) -> str:
    text = expr_to_text(node)
    if isinstance(node, ast.Binary) and node.op in _BINARY_PAREN_OPS:
        return f"({text})"
    return text


def stmt_to_text(stmt: ast.Stmt, indent: int = 0) -> str:
    """Render a statement (recursively) with two-space indentation."""
    pad = "  " * indent
    if isinstance(stmt, ast.SignalAssign):
        return f"{pad}{expr_to_text(stmt.target)} <= {expr_to_text(stmt.value)};"
    if isinstance(stmt, ast.VarAssign):
        return f"{pad}{expr_to_text(stmt.target)} := {expr_to_text(stmt.value)};"
    if isinstance(stmt, ast.NullStmt):
        return f"{pad}null;"
    if isinstance(stmt, ast.If):
        lines = []
        for i, (cond, body) in enumerate(stmt.arms):
            word = "if" if i == 0 else "elsif"
            lines.append(f"{pad}{word} {expr_to_text(cond)} then")
            lines.extend(stmt_to_text(s, indent + 1) for s in body)
        if stmt.else_body:
            lines.append(f"{pad}else")
            lines.extend(stmt_to_text(s, indent + 1) for s in stmt.else_body)
        lines.append(f"{pad}end if;")
        return "\n".join(lines)
    if isinstance(stmt, ast.Case):
        lines = [f"{pad}case {expr_to_text(stmt.selector)} is"]
        for when in stmt.whens:
            if when.is_others:
                lines.append(f"{pad}  when others =>")
            else:
                choices = " | ".join(expr_to_text(c) for c in when.choices)
                lines.append(f"{pad}  when {choices} =>")
            lines.extend(stmt_to_text(s, indent + 2) for s in when.body)
        lines.append(f"{pad}end case;")
        return "\n".join(lines)
    if isinstance(stmt, ast.ForLoop):
        lines = [
            f"{pad}for {stmt.var} in {expr_to_text(stmt.low)} "
            f"{stmt.direction} {expr_to_text(stmt.high)} loop"
        ]
        lines.extend(stmt_to_text(s, indent + 1) for s in stmt.body)
        lines.append(f"{pad}end loop;")
        return "\n".join(lines)
    raise TypeError(f"cannot print {type(stmt).__name__}")
