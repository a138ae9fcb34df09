"""First-order language layer: signatures, terms, formulas, sequents.

Terms and formulas are hash-consed: the factory functions (`var`, `const`,
`app`, `atom`, ...) intern every node, so structurally equal objects are the
*same* Python object.  Equality is therefore identity, sharing is maximal,
and substitution preserves the DAG structure.

Main entry points
-----------------
    var/const/app/atom/conj/disj/imp/neg/forall/exists   node factories
    parse_term / parse_formula / parse_sequent           text -> objects
    term_str / formula_str / sequent_str                 objects -> text
    substitute(phi, v, t)                                capture-avoiding
    free_vars, dag_size, tree_size, int_term
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union


class LangError(Exception):
    pass


class ParseError(LangError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Signature:
    """A named first-order signature.

    functions and predicates map symbol -> arity (arity >= 1); constants is
    a tuple of nullary symbols.  Symbol names must not collide.
    """

    name: str
    constants: tuple = ()
    functions: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for s in list(self.constants) + list(self.functions) + list(self.predicates):
            if s in seen:
                raise LangError(f"duplicate symbol {s!r} in signature {self.name}")
            seen.add(s)
        for s, k in list(self.functions.items()) + list(self.predicates.items()):
            if k < 1:
                raise LangError(f"symbol {s!r} needs arity >= 1, got {k}")


def arith_signature() -> Signature:
    return Signature(
        "arith",
        constants=("0",),
        functions={"s": 1, "+": 2, "*": 2, "exp": 2},
        predicates={"=": 2, "F": 1},
    )


def group_signature(generators: Iterable[str], with_triviality: bool = False) -> Signature:
    gens = tuple(generators)
    preds = {"=": 2, "F": 1}
    if with_triviality:
        preds["T"] = 1
    return Signature(
        "group",
        constants=("e",) + gens,
        functions={"*": 2, "inv": 1},
        predicates=preds,
    )


def rational_signature() -> Signature:
    return Signature(
        "rat",
        constants=("0", "1", "inf"),
        functions={"+": 2, "*": 2, "neg": 1, "inv": 1},
        predicates={"=": 2, "F": 1},
    )


# ---------------------------------------------------------------------------
# Interned terms and formulas.  Construction must go through the factories.

_lock = threading.Lock()
_term_table: dict = {}
_formula_table: dict = {}


class Term:
    __slots__ = ()

    def __repr__(self):
        return term_str(self)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")


class Const(Term):
    __slots__ = ("sym",)

    def __init__(self, sym: str):
        object.__setattr__(self, "sym", sym)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")


class App(Term):
    __slots__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple):
        object.__setattr__(self, "sym", sym)
        object.__setattr__(self, "args", args)

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")


def _intern(table, key, make):
    with _lock:
        obj = table.get(key)
        if obj is None:
            obj = make()
            table[key] = obj
        return obj


def var(name: str) -> Var:
    return _intern(_term_table, ("v", name), lambda: Var(name))


def const(sym: str) -> Const:
    return _intern(_term_table, ("c", sym), lambda: Const(sym))


def app(sym: str, *args: Term) -> App:
    args = tuple(args)
    for a in args:
        if not isinstance(a, Term):
            raise LangError(f"non-term argument {a!r} to {sym}")
    return _intern(_term_table, ("a", sym, args), lambda: App(sym, args))


def mul(a: Term, b: Term) -> App:
    return app("*", a, b)


def plus(a: Term, b: Term) -> App:
    return app("+", a, b)


class Formula:
    __slots__ = ()

    def __repr__(self):
        return formula_str(self)


class Atom(Formula):
    __slots__ = ("pred", "args")

    def __init__(self, pred, args):
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)

    def __setattr__(self, *a):
        raise AttributeError("formulas are immutable")


class Not(Formula):
    __slots__ = ("body",)

    def __init__(self, body):
        object.__setattr__(self, "body", body)

    def __setattr__(self, *a):
        raise AttributeError("formulas are immutable")


class BinOp(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, *a):
        raise AttributeError("formulas are immutable")


class And(BinOp):
    __slots__ = ()


class Or(BinOp):
    __slots__ = ()


class Implies(BinOp):
    __slots__ = ()


class Quant(Formula):
    __slots__ = ("v", "body")

    def __init__(self, v, body):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "body", body)

    def __setattr__(self, *a):
        raise AttributeError("formulas are immutable")


class Forall(Quant):
    __slots__ = ()


class Exists(Quant):
    __slots__ = ()


def atom(pred: str, *args: Term) -> Atom:
    args = tuple(args)
    return _intern(_formula_table, ("at", pred, args), lambda: Atom(pred, args))


def neg(body: Formula) -> Not:
    return _intern(_formula_table, ("not", body), lambda: Not(body))


def conj(left: Formula, right: Formula) -> And:
    return _intern(_formula_table, ("and", left, right), lambda: And(left, right))


def disj(left: Formula, right: Formula) -> Or:
    return _intern(_formula_table, ("or", left, right), lambda: Or(left, right))


def imp(left: Formula, right: Formula) -> Implies:
    return _intern(_formula_table, ("imp", left, right), lambda: Implies(left, right))


def forall(v: str, body: Formula) -> Forall:
    return _intern(_formula_table, ("all", v, body), lambda: Forall(v, body))


def exists(v: str, body: Formula) -> Exists:
    return _intern(_formula_table, ("ex", v, body), lambda: Exists(v, body))


# ---------------------------------------------------------------------------
# Structural queries

_fv_cache: dict = {}


def free_vars(x) -> frozenset:
    """Free variable names of a term or formula (cached per object).

    Explicit stack: shared subterms can nest deeper than the interpreter
    allows to recurse.
    """
    hit = _fv_cache.get(x)
    if hit is not None:
        return hit
    stack = [x]
    while stack:
        y = stack[-1]
        if y in _fv_cache:
            stack.pop()
            continue
        if isinstance(y, Var):
            _fv_cache[y] = frozenset((y.name,))
            stack.pop()
            continue
        if isinstance(y, Const):
            _fv_cache[y] = frozenset()
            stack.pop()
            continue
        kids = _children(y)
        pending = [c for c in kids if c not in _fv_cache]
        if pending:
            stack.extend(pending)
            continue
        out = frozenset().union(*(_fv_cache[c] for c in kids)) if kids else frozenset()
        if isinstance(y, Quant):
            out = out - {y.v}
        _fv_cache[y] = out
        stack.pop()
    return _fv_cache[x]


def _children(x):
    if isinstance(x, (Var, Const)):
        return ()
    if isinstance(x, App):
        return x.args
    if isinstance(x, Atom):
        return x.args
    if isinstance(x, Not):
        return (x.body,)
    if isinstance(x, BinOp):
        return (x.left, x.right)
    if isinstance(x, Quant):
        return (x.body,)
    raise LangError(f"not a term or formula: {x!r}")


def dag_size(x) -> int:
    """Number of distinct nodes in the term/formula DAG."""
    seen = set()
    stack = [x]
    while stack:
        y = stack.pop()
        if id(y) in seen:
            continue
        seen.add(id(y))
        stack.extend(_children(y))
    return len(seen)


_tree_size_cache: dict = {}


def tree_size(x) -> int:
    """Node count of the fully unshared tree (no exp expansion)."""
    hit = _tree_size_cache.get(x)
    if hit is not None:
        return hit
    stack = [x]
    while stack:
        y = stack[-1]
        if y in _tree_size_cache:
            stack.pop()
            continue
        kids = _children(y)
        pending = [c for c in kids if c not in _tree_size_cache]
        if pending:
            stack.extend(pending)
            continue
        _tree_size_cache[y] = 1 + sum(_tree_size_cache[c] for c in kids)
        stack.pop()
    return _tree_size_cache[x]


# ---------------------------------------------------------------------------
# Substitution (capture-avoiding, sharing-preserving)


def fresh_name(base: str, avoid) -> str:
    cand = base
    while cand in avoid:
        cand += "'"
    return cand


def _subst_term(t: Term, mapping: dict, memo: dict) -> Term:
    hit = memo.get(t)
    if hit is not None:
        return hit
    # explicit stack: term sharing allows depth far beyond recursion limits
    stack = [t]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        if isinstance(u, Var):
            memo[u] = mapping.get(u.name, u)
            stack.pop()
            continue
        if isinstance(u, Const):
            memo[u] = u
            stack.pop()
            continue
        pending = [a for a in u.args if a not in memo]
        if pending:
            stack.extend(pending)
            continue
        args = tuple(memo[a] for a in u.args)
        memo[u] = u if all(a is b for a, b in zip(args, u.args)) else app(u.sym, *args)
        stack.pop()
    return memo[t]


# interned inputs make substitution a pure function of (node, mapping), so
# per-mapping memos persist for the process lifetime; repeated
# instantiations of the same lemma body then cost one dict probe per node
_mapping_memos: dict = {}


def _live_mapping(x, mapping: dict) -> dict:
    fv = free_vars(x)
    return {
        k: v
        for k, v in mapping.items()
        if k in fv and not (isinstance(v, Var) and v.name == k)
    }


def _shared_memo(mapping: dict) -> dict:
    key = tuple(sorted(mapping.items()))
    memo = _mapping_memos.get(key)
    if memo is None:
        memo = _mapping_memos[key] = {}
    return memo


def subst_term(t: Term, mapping: dict) -> Term:
    mapping = _live_mapping(t, mapping)
    if not mapping:
        return t
    return _subst_term(t, mapping, _shared_memo(mapping))


def _subst_formula(phi: Formula, mapping: dict, memo: dict) -> Formula:
    hit = memo.get(phi)
    if hit is not None:
        return hit
    if isinstance(phi, Atom):
        args = tuple(_subst_term(a, mapping, memo) for a in phi.args)
        out = phi if all(a is b for a, b in zip(args, phi.args)) else atom(phi.pred, *args)
    elif isinstance(phi, Not):
        out = neg(_subst_formula(phi.body, mapping, memo))
    elif isinstance(phi, And):
        out = conj(_subst_formula(phi.left, mapping, memo), _subst_formula(phi.right, mapping, memo))
    elif isinstance(phi, Or):
        out = disj(_subst_formula(phi.left, mapping, memo), _subst_formula(phi.right, mapping, memo))
    elif isinstance(phi, Implies):
        out = imp(_subst_formula(phi.left, mapping, memo), _subst_formula(phi.right, mapping, memo))
    elif isinstance(phi, Quant):
        inner = {k: v for k, v in mapping.items() if k != phi.v and k in free_vars(phi.body)}
        if not inner:
            out = phi
        else:
            bound = phi.v
            body = phi.body
            clash = set().union(*(free_vars(v) for v in inner.values()))
            if bound in clash:
                # rename the bound variable before substituting under it
                avoid = clash | free_vars(body) | set(inner)
                nb = fresh_name(bound, avoid)
                body = subst_formula(body, {bound: var(nb)})
                bound = nb
            make = forall if isinstance(phi, Forall) else exists
            out = make(bound, subst_formula(body, inner))
    else:
        raise LangError(f"not a formula: {phi!r}")
    memo[phi] = out
    return out


def subst_formula(phi: Formula, mapping: dict) -> Formula:
    mapping = _live_mapping(phi, mapping)
    if not mapping:
        return phi
    return _subst_formula(phi, mapping, _shared_memo(mapping))


def substitute(phi: Formula, v: str, t: Term) -> Formula:
    """Replace every free occurrence of v in phi by t, renaming as needed."""
    return subst_formula(phi, {v: t})


# ---------------------------------------------------------------------------
# Sequents


class Sequent:
    """Two-sided sequent with multiset semantics.

    The antecedent/succedent tuples keep construction order (useful for
    occurrence tracking), but equality and hashing ignore order.
    """

    __slots__ = ("ant", "succ", "_key")

    def __init__(self, ant: Iterable[Formula], succ: Iterable[Formula]):
        object.__setattr__(self, "ant", tuple(ant))
        object.__setattr__(self, "succ", tuple(succ))
        akey = tuple(sorted(map(id, self.ant)))
        skey = tuple(sorted(map(id, self.succ)))
        object.__setattr__(self, "_key", (akey, skey))

    def __setattr__(self, *a):
        raise AttributeError("sequents are immutable")

    def __eq__(self, other):
        return isinstance(other, Sequent) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return sequent_str(self)


# ---------------------------------------------------------------------------
# Printing

_TERM_PREC = {"+": 1, "*": 2}


def term_str(t: Term) -> str:
    return _term_str(t, 0)


def _term_str(t: Term, prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.sym
    if t.sym in _TERM_PREC and len(t.args) == 2:
        p = _TERM_PREC[t.sym]
        # right-associative: left child needs strictly higher precedence
        s = f"{_term_str(t.args[0], p + 1)} {t.sym} {_term_str(t.args[1], p)}"
        return f"({s})" if p < prec else s
    inner = ", ".join(_term_str(a, 0) for a in t.args)
    return f"{t.sym}({inner})"


def formula_str(phi: Formula) -> str:
    return _formula_str(phi, 0)


def _formula_str(phi: Formula, prec: int) -> str:
    if isinstance(phi, Atom):
        if phi.pred == "=" and len(phi.args) == 2:
            return f"{_term_str(phi.args[0], 0)} = {_term_str(phi.args[1], 0)}"
        inner = ", ".join(_term_str(a, 0) for a in phi.args)
        return f"{phi.pred}({inner})"
    if isinstance(phi, Implies):
        s = f"{_formula_str(phi.left, 2)} -> {_formula_str(phi.right, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(phi, Or):
        s = f"{_formula_str(phi.left, 3)} \\/ {_formula_str(phi.right, 2)}"
        return f"({s})" if prec > 2 else s
    if isinstance(phi, And):
        s = f"{_formula_str(phi.left, 4)} /\\ {_formula_str(phi.right, 3)}"
        return f"({s})" if prec > 3 else s
    if isinstance(phi, Not):
        return f"~{_formula_str(phi.body, 4)}"
    if isinstance(phi, Forall):
        return f"forall {phi.v} ({_formula_str(phi.body, 0)})"
    if isinstance(phi, Exists):
        return f"exists {phi.v} ({_formula_str(phi.body, 0)})"
    raise LangError(f"not a formula: {phi!r}")


def sequent_str(s: Sequent) -> str:
    left = ", ".join(formula_str(f) for f in s.ant)
    right = ", ".join(formula_str(f) for f in s.succ)
    if left and right:
        return f"{left} |- {right}"
    if left:
        return f"{left} |-"
    return f"|- {right}"


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<and>/\\)|(?P<or>\\/)|(?P<turn>\|-)"
    r"|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<punct>[(),=~*+]))"
)


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind)))
    toks.append(("eof", "", len(text)))
    return toks


def int_term(n: int, sig: Signature) -> Term:
    """A closed term denoting the nonnegative integer n in this signature."""
    if n < 0:
        raise LangError("int_term takes nonnegative integers")
    if str(n) in sig.constants:
        return const(str(n))
    if "s" in sig.functions and "0" in sig.constants:
        t = const("0")
        for _ in range(n):
            t = app("s", t)
        return t
    if "1" in sig.constants and "+" in sig.functions and "*" in sig.functions:
        # binary expansion over {0, 1, +, *}
        if n == 0:
            return const("0")
        if n == 1:
            return const("1")
        two = app("+", const("1"), const("1"))
        half = int_term(n // 2, sig)
        doubled = app("*", two, half)
        return app("+", doubled, const("1")) if n % 2 else doubled
    raise LangError(f"signature {sig.name} cannot express the numeral {n}")


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, val):
        kind, v, pos = self.next()
        if v != val:
            raise ParseError(f"expected {val!r}, found {v!r}", pos)

    def at(self, val):
        return self.peek()[1] == val

    # -- terms ------------------------------------------------------------
    def term(self) -> Term:
        return self.t_sum()

    def t_sum(self) -> Term:
        left = self.t_prod()
        if self.at("+"):
            self.next()
            return app("+", left, self.t_sum())
        return left

    def t_prod(self) -> Term:
        left = self.t_atom()
        if self.at("*"):
            self.next()
            return app("*", left, self.t_prod())
        return left

    def t_atom(self) -> Term:
        kind, v, pos = self.peek()
        if v == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if kind == "int":
            self.next()
            return int_term(int(v), self.sig)
        if kind != "name":
            raise ParseError(f"expected a term, found {v!r}", pos)
        self.next()
        if v in self.sig.functions:
            arity = self.sig.functions[v]
            self.expect("(")
            args = [self.term()]
            while self.at(","):
                self.next()
                args.append(self.term())
            self.expect(")")
            if len(args) != arity:
                raise ParseError(f"{v} expects {arity} arguments, got {len(args)}", pos)
            return app(v, *args)
        if v in self.sig.constants:
            return const(v)
        if v in self.sig.predicates:
            raise ParseError(f"predicate {v!r} used as a term", pos)
        return var(v)

    # -- formulas ----------------------------------------------------------
    def formula(self) -> Formula:
        left = self.f_or()
        if self.at("->"):
            self.next()
            return imp(left, self.formula())
        return left

    def f_or(self) -> Formula:
        left = self.f_and()
        if self.at("\\/"):
            self.next()
            return disj(left, self.f_or())
        return left

    def f_and(self) -> Formula:
        left = self.f_unary()
        if self.at("/\\"):
            self.next()
            return conj(left, self.f_and())
        return left

    def f_unary(self) -> Formula:
        kind, v, pos = self.peek()
        if v == "~":
            self.next()
            return neg(self.f_unary())
        if kind == "name" and v in ("forall", "exists") and v not in self.sig.predicates:
            self.next()
            k2, bound, p2 = self.next()
            if k2 != "name":
                raise ParseError("expected a variable after quantifier", p2)
            self.expect("(")
            body = self.formula()
            self.expect(")")
            return forall(bound, body) if v == "forall" else exists(bound, body)
        return self.f_primary()

    def _paren_is_formula(self) -> bool:
        # look past the matching ')' to see whether '=' follows (term case)
        depth = 0
        j = self.i
        while j < len(self.toks):
            v = self.toks[j][1]
            if v == "(":
                depth += 1
            elif v == ")":
                depth -= 1
                if depth == 0:
                    return self.toks[j + 1][1] not in ("=", "+", "*")
            elif v == "":
                break
            j += 1
        raise ParseError("unbalanced parentheses", self.peek()[2])

    def f_primary(self) -> Formula:
        kind, v, pos = self.peek()
        if v == "(" and self._paren_is_formula():
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if kind == "name" and v in self.sig.predicates and v != "=":
            save = self.i
            self.next()
            if self.at("("):
                self.next()
                args = [self.term()]
                while self.at(","):
                    self.next()
                    args.append(self.term())
                self.expect(")")
                if len(args) != self.sig.predicates[v]:
                    raise ParseError(f"{v} expects {self.sig.predicates[v]} arguments", pos)
                return atom(v, *args)
            self.i = save
        left = self.term()
        kind, v, pos = self.peek()
        if v != "=":
            raise ParseError("expected '=' to complete an atomic formula", pos)
        self.next()
        right = self.term()
        return atom("=", left, right)

    # -- sequents ----------------------------------------------------------
    def sequent(self) -> Sequent:
        ant = []
        if not self.at("|-"):
            ant.append(self.formula())
            while self.at(","):
                self.next()
                ant.append(self.formula())
        self.expect("|-")
        succ = []
        if self.peek()[0] != "eof":
            succ.append(self.formula())
            while self.at(","):
                self.next()
                succ.append(self.formula())
        return Sequent(ant, succ)

    def done(self):
        kind, v, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {v!r}", pos)


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    t = p.term()
    p.done()
    return t


def parse_formula(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    f = p.formula()
    p.done()
    return f


def parse_sequent(text: str, sig: Signature) -> Sequent:
    p = _Parser(text, sig)
    s = p.sequent()
    p.done()
    return s
