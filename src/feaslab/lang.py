"""First-order language layer: signatures, terms, formulas, sequents.

Terms and formulas are hash-consed: the factory functions (`var`, `const`,
`app`, `atom`, ...) intern every node, so structurally equal objects are the
*same* Python object.  Equality is therefore identity, sharing is maximal,
and substitution preserves the DAG structure.

Interning takes no lock and stays one object per structure across
threads.  A factory probes its table and, on a miss, checks that its
arguments are terms or formulas and its variable names strings
(LangError otherwise), builds a candidate and stores it with
`dict.setdefault`, which returns the object already stored when another
thread stored one first; that thread's object wins and the candidate is
dropped.  A variable is keyed by its name and a constant by its symbol.
An application or atom is keyed by its argument tuple, the very tuple
the node stores, in a table of its own symbol or predicate, so no key
tuple is built for it; the table of a new symbol is stored by
`setdefault` too.  The other formulas are keyed by a tuple of a tag and
their parts.  The keys are strings and tuples of strings and interned
nodes, which hash and compare in C (nodes by identity), so each probe
and each `setdefault` is one atomic dictionary operation: no thread can
see a key half stored, and no two objects can be stored under one key.

Main entry points
-----------------
    var/const/app/atom/conj/disj/imp/neg/forall/exists   node factories
    parse_term / parse_formula / parse_sequent           text -> objects
    term_str / formula_str / sequent_str                 objects -> text
    sequent_brief(s)                                     text, or its size
    substitute(phi, v, t)                                capture-avoiding
    fold(x, step, memo)                                  one value per DAG node
    free_vars, dag_size, tree_size, int_term

Every node keeps its free-variable names, computed by its constructor
from its children's sets.  The set objects are shared: every closed node
has one empty set, a node whose child holds all its variables has that
child's set, and so does a quantifier whose variable is not free in its
body.  Every walker that computes any other value per node (tree size,
substitution over (node, mapping) pairs, and the evaluators in
`semantics`) is a `fold`: one memoized, iterative post-order pass over
the DAG.  The walkers here take a new memo per call, and substitution
the caller's when one is given.  `_subst_memo` lasts for the process
and holds one entry per substitution call, its root pair's result.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from operator import attrgetter
from typing import Iterable, Optional, Union


class LangError(Exception):
    pass


class ParseError(LangError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


class Record:
    """Base of the package's small immutable records, which behave as
    frozen dataclasses do without importing `dataclasses`.  A subclass
    names its fields in `_fields`, keeps them in `__slots__` and fills
    them in `__init__` with `object.__setattr__`.  Two records are equal
    when they are of one class and their fields are equal; a record
    hashes as the tuple of its fields and shows as `Name(field=value,
    ...)`.  Assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        get = attrgetter(*cls._fields)
        # the fields as a tuple, which attrgetter returns only for two or more
        cls._key = property(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Signature(Record):
    """A named first-order signature.

    functions and predicates map symbol -> arity (arity >= 1), each a new
    empty dict by default; constants is a tuple of nullary symbols.
    Symbol names must not collide.
    """

    __slots__ = _fields = ("name", "constants", "functions", "predicates")

    def __init__(
        self,
        name: str,
        constants: tuple = (),
        functions: Optional[dict] = None,
        predicates: Optional[dict] = None,
    ):
        functions = {} if functions is None else functions
        predicates = {} if predicates is None else predicates
        seen = set()
        for s in list(constants) + list(functions) + list(predicates):
            if s in seen:
                raise LangError(f"duplicate symbol {s!r} in signature {name}")
            seen.add(s)
        for s, k in list(functions.items()) + list(predicates.items()):
            if k < 1:
                raise LangError(f"symbol {s!r} needs arity >= 1, got {k}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "predicates", predicates)


def arith_signature() -> Signature:
    return Signature(
        "arith",
        constants=("0",),
        functions={"s": 1, "+": 2, "*": 2, "exp": 2},
        predicates={"=": 2, "F": 1},
    )


def group_signature(generators: Iterable[str]) -> Signature:
    """The group signature over the generators, each a name the text
    syntax reads as one symbol."""
    gens = tuple(generators)
    for g in gens:
        if not _is_name(g):
            raise LangError(
                f"generator {g!r} is not a name: a letter or _, then letters, digits, _ or '"
            )
    return Signature(
        "group",
        constants=("e",) + gens,
        functions={"*": 2, "inv": 1},
        predicates={"=": 2, "F": 1},
    )


def rational_signature() -> Signature:
    return Signature(
        "rat",
        constants=("0", "1", "inf"),
        functions={"+": 2, "*": 2, "neg": 1, "inv": 1},
        predicates={"=": 2, "F": 1},
    )


# ---------------------------------------------------------------------------
# Interned terms and formulas.  Construction must go through the factories,
# which probe, then `setdefault` on a miss (see the module docstring).

_var_table: dict = {}  # name -> Var
_const_table: dict = {}  # symbol -> Const
_app_tables: dict = {}  # symbol -> {argument tuple -> App}
_atom_tables: dict = {}  # predicate -> {argument tuple -> Atom}
_formula_table: dict = {}  # (connective or quantifier tag, parts) -> formula


# The free-variable set of every closed term and formula.
_CLOSED = frozenset()


def _union(nodes) -> frozenset:
    """The union of the nodes' free-variable sets.  A node whose set holds
    all the others lends its own, so a parent shares its child's set
    wherever the child has every variable, and a closed node has _CLOSED."""
    out = _CLOSED
    for x in nodes:
        fv = x._fv
        if not fv <= out:
            out = fv if out <= fv else out | fv
    return out


class _Node:
    """A term or formula.  _fv holds its free-variable names, set once by
    its constructor from its children's (see _union)."""

    __slots__ = ("_fv",)


# Each slot's own setter passes by the raising __setattr__ and costs less
# than object.__setattr__, which looks the name up on every call.
_set_fv = _Node._fv.__set__


class Term(_Node):
    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("terms are immutable")

    def __repr__(self):
        return _brief("term", (self,), term_str, self)


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)
        _set_fv(self, frozenset((name,)))


_set_name = Var.name.__set__


class Const(Term):
    __slots__ = ("sym",)

    def __init__(self, sym: str):
        _set_const_sym(self, sym)
        _set_fv(self, _CLOSED)


_set_const_sym = Const.sym.__set__


class App(Term):
    __slots__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple):
        _set_app_sym(self, sym)
        _set_app_args(self, args)
        _set_fv(self, _union(args))


_set_app_sym = App.sym.__set__
_set_app_args = App.args.__set__


def _expect(cls, xs: tuple, head: str):
    """Raise LangError unless every x in xs is a cls, Term or Formula.  A
    factory asks only on a miss: a key found in its table holds nodes."""
    for x in xs:
        if not isinstance(x, cls):
            raise LangError(f"non-{cls.__name__.lower()} argument {x!r} to {head}")


def _expect_name(name, head: str):
    """Raise LangError unless name is a string; asked only on a miss."""
    if not isinstance(name, str):
        raise LangError(f"non-string name {name!r} to {head}")


def var(name: str) -> Var:
    obj = _var_table.get(name)
    if obj is None:
        _expect_name(name, "var")
        obj = _var_table.setdefault(name, Var(name))
    return obj


def const(sym: str) -> Const:
    obj = _const_table.get(sym)
    return obj if obj is not None else _const_table.setdefault(sym, Const(sym))


def app(sym: str, *args: Term) -> App:
    table = _app_tables.get(sym)
    if table is None:
        table = _app_tables.setdefault(sym, {})
    obj = table.get(args)
    if obj is None:
        _expect(Term, args, sym)
        obj = table.setdefault(args, App(sym, args))
    return obj


def mul(a: Term, b: Term) -> App:
    return app("*", a, b)


def plus(a: Term, b: Term) -> App:
    return app("+", a, b)


class Formula(_Node):
    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("formulas are immutable")

    def __repr__(self):
        return _brief("formula", (self,), formula_str, self)


class Atom(Formula):
    __slots__ = ("pred", "args")

    def __init__(self, pred, args):
        _set_pred(self, pred)
        _set_atom_args(self, args)
        _set_fv(self, _union(args))


_set_pred = Atom.pred.__set__
_set_atom_args = Atom.args.__set__


class Not(Formula):
    __slots__ = ("body",)

    def __init__(self, body):
        _set_not_body(self, body)
        _set_fv(self, body._fv)


_set_not_body = Not.body.__set__


class BinOp(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set_left(self, left)
        _set_right(self, right)
        _set_fv(self, _union((left, right)))


_set_left = BinOp.left.__set__
_set_right = BinOp.right.__set__


class And(BinOp):
    __slots__ = ()


class Or(BinOp):
    __slots__ = ()


class Implies(BinOp):
    __slots__ = ()


class Quant(Formula):
    __slots__ = ("v", "body")

    def __init__(self, v, body):
        _set_v(self, v)
        _set_quant_body(self, body)
        fv = body._fv
        if v in fv:
            fv = fv - {v} if len(fv) > 1 else _CLOSED
        _set_fv(self, fv)


_set_v = Quant.v.__set__
_set_quant_body = Quant.body.__set__


class Forall(Quant):
    __slots__ = ()


class Exists(Quant):
    __slots__ = ()


def atom(pred: str, *args: Term) -> Atom:
    table = _atom_tables.get(pred)
    if table is None:
        table = _atom_tables.setdefault(pred, {})
    obj = table.get(args)
    if obj is None:
        _expect(Term, args, pred)
        obj = table.setdefault(args, Atom(pred, args))
    return obj


def neg(body: Formula) -> Not:
    key = ("not", body)
    obj = _formula_table.get(key)
    if obj is None:
        _expect(Formula, (body,), "neg")
        obj = _formula_table.setdefault(key, Not(body))
    return obj


def conj(left: Formula, right: Formula) -> And:
    key = ("and", left, right)
    obj = _formula_table.get(key)
    if obj is None:
        _expect(Formula, (left, right), "conj")
        obj = _formula_table.setdefault(key, And(left, right))
    return obj


def disj(left: Formula, right: Formula) -> Or:
    key = ("or", left, right)
    obj = _formula_table.get(key)
    if obj is None:
        _expect(Formula, (left, right), "disj")
        obj = _formula_table.setdefault(key, Or(left, right))
    return obj


def imp(left: Formula, right: Formula) -> Implies:
    key = ("imp", left, right)
    obj = _formula_table.get(key)
    if obj is None:
        _expect(Formula, (left, right), "imp")
        obj = _formula_table.setdefault(key, Implies(left, right))
    return obj


def forall(v: str, body: Formula) -> Forall:
    key = ("all", v, body)
    obj = _formula_table.get(key)
    if obj is None:
        _expect(Formula, (body,), "forall")
        _expect_name(v, "forall")
        obj = _formula_table.setdefault(key, Forall(v, body))
    return obj


def exists(v: str, body: Formula) -> Exists:
    key = ("ex", v, body)
    obj = _formula_table.get(key)
    if obj is None:
        _expect(Formula, (body,), "exists")
        _expect_name(v, "exists")
        obj = _formula_table.setdefault(key, Exists(v, body))
    return obj


# ---------------------------------------------------------------------------
# Structural queries


def _children(x):
    cls = x.__class__
    if cls is App or cls is Atom:
        return x.args
    if cls is Var or cls is Const:
        return ()
    if isinstance(x, BinOp):
        return (x.left, x.right)
    if isinstance(x, (Not, Quant)):
        return (x.body,)
    raise LangError(f"not a term or formula: {x!r}")


_MISSING = object()  # memo values may be None


def fold(x, step, memo: dict, children=_children):
    """memo[x] = step(x, [memo[c] for c in children(x)]), computed for
    every node below x that memo lacks, children first.

    The walk is post-order over the DAG with an explicit stack, since
    shared terms nest far deeper than the interpreter allows to recurse.
    A node already in memo costs one probe, so a fold visits each
    distinct node once however often the tree repeats it.  Children are
    entered left to right, so the first exception `step` raises is the
    one a recursive left-to-right walk would raise; nodes finished
    before it stay in memo.  `children` gives the nodes a value depends
    on: by default the subterms and subformulas, but any acyclic graph
    can be walked once `children` is given (`kernel.serialize_proof`
    folds a proof DAG over its premises).
    """
    out = memo.get(x, _MISSING)
    if out is not _MISSING:
        return out
    stack = [(x, children(x))]  # nodes entered, not finished
    while stack:
        y, kids = stack[-1]
        for c in kids:
            if c not in memo:  # enter the first child not finished
                stack.append((c, children(c)))
                break
        else:
            stack.pop()
            memo[y] = step(y, list(map(memo.__getitem__, kids)))
    return memo[x]


def free_vars(x) -> frozenset:
    """Free variable names of a term or formula, kept on the node."""
    return x._fv


def dag_size(x) -> int:
    """Number of distinct nodes in the term/formula DAG."""
    memo: dict = {}
    fold(x, lambda y, vals: None, memo)
    return len(memo)


def _tree_step(x, sizes):
    return 1 + sum(sizes)


def tree_size(x) -> int:
    """Node count of the fully unshared tree (no exp expansion)."""
    return fold(x, _tree_step, {})


# ---------------------------------------------------------------------------
# Substitution (capture-avoiding, sharing-preserving)


def fresh_name(base: str, avoid) -> str:
    cand = base
    while cand in avoid:
        cand += "'"
    return cand


# Substitution is one fold over (node, key) pairs, where key is the sorted
# tuple of the (name, term) items that act on node: each name occurs free in
# node.  Interned inputs make the result a pure function of the pair, so a
# memo of pairs may serve any number of calls.  The process keeps one entry
# per call, the root pair's, in _subst_memo: a repeated instantiation of a
# lemma body costs one probe.  The pairs below the root go to the memo the
# caller passes, or else to a memo of the call.
_subst_memo: dict = {}


def _live(x, key: tuple) -> tuple:
    fv = free_vars(x)
    if len(key) == 1:
        return key if key[0][0] in fv else ()
    return tuple(kv for kv in key if kv[0] in fv)


def rebind(v: str, key: tuple, scope) -> tuple:
    """(name, key) for a binder of v over the terms and formulas in scope,
    under the substitution key: v leaves the key, and when a mapped term
    mentions v the binder takes a fresh name, avoiding the names around,
    and the key gains v := that name.  Renaming and substitution thus
    happen in one pass.  Quantifiers and eigenvariables bind alike."""
    key = tuple(kv for kv in key if kv[0] != v)
    clash = set().union(*(free_vars(t) for _, t in key))
    if v not in clash:
        return v, key
    avoid = clash.union(k for k, _ in key)
    for x in scope:
        avoid |= free_vars(x)
    nv = fresh_name(v, avoid)
    return nv, tuple(sorted(key + ((v, var(nv)),)))


_CONNECTIVE_FACTORIES = {Not: neg, And: conj, Or: disj, Implies: imp}


def _subst_children(pair):
    x, key = pair
    if not key:
        return ()
    if x.__class__ is Forall or x.__class__ is Exists:
        return ((x.body, _live(x.body, rebind(x.v, key, (x.body,))[1])),)
    return [(c, _live(c, key)) for c in _children(x)]


def _subst_step(pair, kids):
    x, key = pair
    if not key:
        return x
    cls = x.__class__
    if cls is Var:
        return key[0][1]  # the one live item names x
    if cls is App:
        return app(x.sym, *kids)
    if cls is Atom:
        return atom(x.pred, *kids)
    if cls is Forall:
        return forall(rebind(x.v, key, (x.body,))[0], kids[0])
    if cls is Exists:
        return exists(rebind(x.v, key, (x.body,))[0], kids[0])
    return _CONNECTIVE_FACTORIES[cls](*kids)


def subst_formula(x, mapping: dict, memo: Optional[dict] = None):
    """x, a term or formula, with each free variable named in mapping
    replaced by its term, renaming bound variables as needed.  The result
    is kept for the process under the root pair.  memo, when given, keeps
    the (node, key) pairs of the walk and may be shared by many calls;
    otherwise the walk uses a memo of its own."""
    fv = free_vars(x)
    key = tuple(
        sorted(
            (k, t) for k, t in mapping.items()
            if k in fv and not (t.__class__ is Var and t.name == k)
        )
    )
    if not key:
        return x
    pair = (x, key)
    out = _subst_memo.get(pair)
    if out is None:
        walk = {} if memo is None else memo
        out = _subst_memo.setdefault(pair, fold(pair, _subst_step, walk, _subst_children))
    return out


def subst_key(x, key: tuple, memo: dict):
    """x with the items of key substituted, as subst_formula does, for key
    a sorted tuple of (name, term) items, such as a proof substitution
    carries: only the items that name a free variable of x act, and no
    sort is made.  memo keeps the pairs of the walk."""
    key = _live(x, key)
    return fold((x, key), _subst_step, memo, _subst_children) if key else x


subst_term = subst_formula


def substitute(phi: Formula, v: str, t: Term) -> Formula:
    """Replace every free occurrence of v in phi by t, renaming as needed."""
    return subst_formula(phi, {v: t})


# ---------------------------------------------------------------------------
# Sequents


class Sequent:
    """Two-sided sequent with multiset semantics.

    The antecedent/succedent tuples keep construction order (useful for
    occurrence tracking), but equality and hashing ignore order.  The
    order-free key, the sorted ids of each side, is computed on the first
    comparison or hash: most sequents are never compared.
    """

    __slots__ = ("ant", "succ", "_key")

    def __init__(self, ant: Iterable[Formula], succ: Iterable[Formula]):
        _set_ant(self, tuple(ant))
        _set_succ(self, tuple(succ))

    def __setattr__(self, *a):
        raise AttributeError("sequents are immutable")

    def _order_free(self) -> tuple:
        """(sorted ids of the antecedent, sorted ids of the succedent)."""
        try:
            return self._key
        except AttributeError:
            key = (tuple(sorted(map(id, self.ant))), tuple(sorted(map(id, self.succ))))
            _set_key(self, key)
            return key

    def __eq__(self, other):
        return isinstance(other, Sequent) and self._order_free() == other._order_free()

    def __hash__(self):
        return hash(self._order_free())

    def __repr__(self):
        return sequent_brief(self)


# The slots' own setters pass by the raising __setattr__.
_set_ant = Sequent.ant.__set__
_set_succ = Sequent.succ.__set__
_set_key = Sequent._key.__set__


# ---------------------------------------------------------------------------
# Printing and parsing
#
# Both walk with explicit stacks, since shared terms nest far deeper than
# the interpreter allows to recurse.  A Printer renders a repeated subterm
# once and keeps its text; the parser reads the text it is given, so its
# time is linear in the text, which for a shared term is the tree.  Proof
# files are read without it (see `kernel.parse_proof`).

# Binding levels of the infix operators.  Every one associates to the
# right: its left operand binds at level + 1 and its right one at level.
_TERM_OPS = {"+": (" + ", 1), "*": (" * ", 2)}  # symbol -> (text, level)
# connective -> (factory, class, level)
_CONNECTIVES = {"->": (imp, Implies, 1), "\\/": (disj, Or, 2), "/\\": (conj, And, 3)}
_FORMULA_OPS = {cls: (f" {c} ", level) for c, (_, cls, level) in _CONNECTIVES.items()}
_NOT_LEVEL = 4  # the operand of ~ binds tighter than any infix operator


def _infix(x):
    if x.__class__ is App:
        return _TERM_OPS.get(x.sym) if len(x.args) == 2 else None
    return _FORMULA_OPS.get(x.__class__)


def _push_operand(stack, x, level: int):
    """Schedule x where the context binds at `level`: parenthesized when x
    is an infix node that binds looser."""
    op = _infix(x)
    if op is not None and op[1] < level:
        stack += (")", x, "(")
    else:
        stack.append(x)


def _push_call(stack, head: str, args: tuple):
    """Schedule `head(a1, ..., ak)`."""
    stack.append(")")
    for i in range(len(args) - 1, -1, -1):
        stack.append(args[i])
        if i:
            stack.append(", ")
    stack.append(head + "(")


class Printer:
    """Renders terms, formulas and sequents, each repeated node once.

    The constructor walks the DAG below `roots` once.  The printer keeps
    the text of every root and of every node reached from them more than
    once, so a subterm that occurs many times is rendered once, and the
    kept texts stay proportional to the output they stand for.
    """

    def __init__(self, roots: Iterable = ()):
        stack = list(roots)
        keep = set(stack)
        seen = set()
        while stack:
            x = stack.pop()
            if x in seen:
                keep.add(x)
            else:
                seen.add(x)
                stack.extend(_children(x))
        self._keep = keep
        self._texts: dict = {}

    def text(self, x: Union[Term, Formula]) -> str:
        """The text of a term or formula."""
        texts = self._texts
        hit = texts.get(x)
        if hit is not None:
            return hit
        keep = self._keep
        out: list = []
        outer: list = []  # the buffers interrupted by kept nodes
        stack = [x]
        while stack:
            y = stack.pop()
            cls = y.__class__
            if cls is str:
                out.append(y)
                continue
            if cls is Var:
                out.append(y.name)
                continue
            if cls is Const:
                out.append(y.sym)
                continue
            if cls is tuple:  # (node,): every piece of the kept node is in out
                s = "".join(out)
                texts[y[0]] = s
                out = outer.pop()
                out.append(s)
                continue
            hit = texts.get(y)
            if hit is not None:
                out.append(hit)
                continue
            if y in keep:
                stack.append((y,))
                outer.append(out)
                out = []
            op = _infix(y)
            if op is not None:
                left, right = y.args if cls is App else (y.left, y.right)
                _push_operand(stack, right, op[1])
                stack.append(op[0])
                _push_operand(stack, left, op[1] + 1)
            elif cls is App:
                _push_call(stack, y.sym, y.args)
            elif cls is Atom:
                if y.pred == "=" and len(y.args) == 2:
                    stack += (y.args[1], " = ", y.args[0])
                else:
                    _push_call(stack, y.pred, y.args)
            elif cls is Not:
                _push_operand(stack, y.body, _NOT_LEVEL)
                stack.append("~")
            elif cls is Forall or cls is Exists:
                q = "forall" if cls is Forall else "exists"
                stack += (")", y.body, f"{q} {y.v} (")
            else:
                raise LangError(f"not a term or formula: {y!r}")
        return "".join(out)

    def sequent(self, s: Sequent) -> str:
        left = ", ".join(map(self.text, s.ant))
        right = ", ".join(map(self.text, s.succ))
        if left and right:
            return f"{left} |- {right}"
        if left:
            return f"{left} |-"
        return f"|- {right}"


def term_str(t: Term) -> str:
    return Printer((t,)).text(t)


def formula_str(phi: Formula) -> str:
    return Printer((phi,)).text(phi)


def sequent_str(s: Sequent) -> str:
    return Printer(s.ant + s.succ).sequent(s)


# The most nodes a sequent may have, written out as a tree, for
# `sequent_brief` to print it.  A short proof of a huge value concludes a
# sequent whose tree has billions of nodes but whose DAG has a few dozen.
_MAX_PRINTED_NODES = 10**6


def digit_limit_error(digits: int) -> Optional[str]:
    """The refusal of a numeral of more digits than int() may read, or None."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        return f"numeral of {digits} digits exceeds the limit of {limit}"
    return None


def count_text(n: int) -> str:
    """n in decimal, exactly; unlike str(n), not limited by the
    interpreter's int-to-str digit limit (about 10^4 digits here).  The
    package writes every exact integer without a size bound with it."""
    return str(Decimal(n))


def _size_summary(what: str, nodes: int, distinct: int) -> str:
    """The one wording that names a text too large to print by its size."""
    return f"<{what} of {count_text(nodes)} nodes as a tree, {distinct} distinct>"


def _brief(what: str, roots: tuple, show, x) -> str:
    """show(x), or its size summary when its text would spell out more
    than _MAX_PRINTED_NODES nodes of the roots.  Messages name terms,
    formulas and sequents only through here, by `repr` or `sequent_brief`."""
    memo: dict = {}
    nodes = sum(fold(r, _tree_step, memo) for r in roots)
    if nodes <= _MAX_PRINTED_NODES:
        return show(x)
    return _size_summary(what, nodes, len(memo))


def sequent_brief(s: Sequent) -> str:
    """The text of s, or a one-line summary of its size when its text
    would spell out more than _MAX_PRINTED_NODES nodes."""
    return _brief("sequent", s.ant + s.succ, sequent_str, s)


_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<and>/\\)|(?P<or>\\/)|(?P<turn>\|-)"
    rf"|(?P<int>\d+)|(?P<name>{_NAME})"
    r"|(?P<punct>[(),=~*+]))"
)
_NAME_RE = re.compile(_NAME)
_PAREN_RE = re.compile(r"[()]")


def _is_name(name: str) -> bool:
    """Whether the text syntax reads name as one symbol or variable: an
    identifier and no quantifier keyword."""
    return _NAME_RE.fullmatch(name) is not None and name not in ("forall", "exists")


def is_variable_name(name: str, sig: Signature) -> bool:
    """Whether the text syntax reads name as a variable under sig: a name
    that is no symbol of sig."""
    return (
        _is_name(name)
        and name not in sig.constants
        and name not in sig.functions
        and name not in sig.predicates
    )


def _token(text: str, pos: int) -> tuple:
    """The token that starts at pos or after blanks: (kind, value, start, end)."""
    m = _TOKEN_RE.match(text, pos)
    if m is None:
        rest = text[pos:].strip()
        if rest:
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        return ("eof", "", len(text), len(text))
    k = m.lastindex
    return (m.lastgroup, m.group(k), m.start(k), m.end())


def _check_characters(text: str):
    """Raise the error for the first character that starts no token."""
    tok = _token(text, 0)
    while tok[0] != "eof":
        tok = _token(text, tok[3])


def _numeral_constant(n: int, sig: Signature) -> Optional[str]:
    """The constant of sig that is the numeral of n, if any, found by reading
    the constants: str(n) raises past the int-to-str digit limit."""
    numerals = (c for c in sig.constants if re.fullmatch("0|[1-9][0-9]*", c))
    return next((c for c in numerals if int(c) == n), None)


def _spells_unary(n: int, sig: Signature) -> bool:
    """Whether int_term writes n as n successors of 0 in sig."""
    return _numeral_constant(n, sig) is None and "s" in sig.functions and "0" in sig.constants


# The largest numeral literal the parser expands in unary: int_term builds
# one node per unit (10**6 takes seconds and hundreds of MB).  The printer
# writes s(...) and the constants, so printed text never needs a larger
# one, and proof files hold no literals.
_MAX_UNARY_LITERAL = 10_000


def int_term(n: int, sig: Signature) -> Term:
    """A closed term denoting the nonnegative integer n in this signature."""
    if n < 0:
        raise LangError("int_term takes nonnegative integers")
    c = _numeral_constant(n, sig)
    if c is not None:
        return const(c)
    if _spells_unary(n, sig):
        t = const("0")
        for _ in range(n):
            t = app("s", t)
        return t
    if "1" in sig.constants and "+" in sig.functions and "*" in sig.functions:
        # binary expansion over {0, 1, +, *}: (1 + 1) * m, plus 1 when odd
        if n == 0:
            return const("0")
        one = const("1")
        two = app("+", one, one)
        t = one
        for bit in bin(n)[3:]:
            t = app("*", two, t)
            if bit == "1":
                t = app("+", t, one)
        return t
    raise LangError(f"signature {sig.name} cannot express the numeral {n}")


class _Parser:
    """One string being parsed, one token at a time, under sig."""

    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.close: dict = {}  # '(' position -> matching ')' position or -1
        self.tok = _token(text, 0)

    def next(self) -> tuple:
        tok = self.tok
        self.tok = _token(self.text, tok[3])
        return tok

    def expect(self, val: str):
        _, v, pos, _ = self.next()
        if v != val:
            raise ParseError(f"expected {val!r}, found {v!r}", pos)

    def done(self):
        kind, v, pos, _ = self.tok
        if kind != "eof":
            raise ParseError(f"trailing input {v!r}", pos)

    def matching(self, pos: int) -> int:
        """Position of the ')' matching the '(' at pos, or -1.  One scan
        records every pair inside, so no parenthesis is scanned twice."""
        close = self.close
        if pos not in close:
            opens = []
            for m in _PAREN_RE.finditer(self.text, pos):
                if m.group() == "(":
                    opens.append(m.start())
                else:
                    close[opens.pop()] = m.start()
                    if not opens:
                        break
            for q in opens:
                close[q] = -1
        return close[pos]

    # -- terms ---------------------------------------------------------------
    def term(self) -> Term:
        sig = self.sig
        funcs, consts, preds = sig.functions, sig.constants, sig.predicates
        # open groups: (start, function or None, its arguments so far, and
        # the operands and operators of the enclosing term)
        frames = []
        vals, ops = [], []  # left operands and infix operators still open
        while True:
            kind, v, pos, _ = self.tok
            if v == "(":
                self.next()
                frames.append((pos, None, None, vals, ops))
                vals, ops = [], []
                continue
            elif kind == "int":
                self.next()
                t = int_term(self.literal(v, pos), sig)
            elif kind != "name":
                raise ParseError(f"expected a term, found {v!r}", pos)
            elif v in funcs:
                self.next()
                self.expect("(")
                frames.append((pos, v, [], vals, ops))
                vals, ops = [], []
                continue
            elif v in consts:
                self.next()
                t = const(v)
            elif v in preds:
                raise ParseError(f"predicate {v!r} used as a term", pos)
            else:
                self.next()
                t = var(v)
            # t is an operand: an infix operator continues its term, anything
            # else ends the term and perhaps the group around it
            while True:
                op = self.tok[1]
                if op == "+" or op == "*":
                    level = _TERM_OPS[op][1]
                    while ops and _TERM_OPS[ops[-1]][1] > level:
                        t = app(ops.pop(), vals.pop(), t)
                    vals.append(t)
                    ops.append(op)
                    self.next()
                    break
                while ops:
                    t = app(ops.pop(), vals.pop(), t)
                if not frames:
                    return t
                start, f, args, vals, ops = frames[-1]
                if f is not None:
                    args.append(t)
                    if self.tok[1] == ",":
                        self.next()
                        vals, ops = [], []
                        break
                self.expect(")")
                frames.pop()
                if f is not None:
                    if len(args) != funcs[f]:
                        raise ParseError(
                            f"{f} expects {funcs[f]} arguments, got {len(args)}", start
                        )
                    t = app(f, *args)

    def literal(self, v: str, pos: int) -> int:
        """The value of the numeral literal v at pos, refused when it is
        too long for int() or too large to spell in unary."""
        too_long = digit_limit_error(len(v))
        if too_long:
            raise ParseError(too_long, pos)
        n = int(v)
        if n > _MAX_UNARY_LITERAL and _spells_unary(n, self.sig):
            raise ParseError(f"numeral {v} is too large to spell in unary", pos)
        return n

    # -- formulas ------------------------------------------------------------
    def formula(self) -> Formula:
        preds = self.sig.predicates
        # open groups: (quantifier and variable, or None for parentheses,
        # and the operands, operators and pending negations around it)
        frames = []
        vals, ops, negs = [], [], 0
        while True:
            kind, v, pos, _ = self.tok
            if v == "~":
                self.next()
                negs += 1
                continue
            if kind == "name" and v in ("forall", "exists") and v not in preds:
                self.next()
                k2, bound, p2, _ = self.next()
                if k2 != "name":
                    raise ParseError("expected a variable after quantifier", p2)
                self.expect("(")
                frames.append(((v, bound), vals, ops, negs))
                vals, ops, negs = [], [], 0
                continue
            if v == "(" and self.paren_is_formula():
                self.next()
                frames.append((None, vals, ops, negs))
                vals, ops, negs = [], [], 0
                continue
            f = self.atomic()
            while True:
                for _ in range(negs):
                    f = neg(f)
                negs = 0
                op = self.tok[1]
                if op in _CONNECTIVES:
                    level = _CONNECTIVES[op][2]
                    while ops and _CONNECTIVES[ops[-1]][2] > level:
                        f = _CONNECTIVES[ops.pop()][0](vals.pop(), f)
                    vals.append(f)
                    ops.append(op)
                    self.next()
                    break
                while ops:
                    f = _CONNECTIVES[ops.pop()][0](vals.pop(), f)
                if not frames:
                    return f
                quant, vals, ops, negs = frames.pop()
                self.expect(")")
                if quant is not None:
                    q, bound = quant
                    f = forall(bound, f) if q == "forall" else exists(bound, f)

    def paren_is_formula(self) -> bool:
        # '=', '+' or '*' after the matching ')' makes the group a term
        pos = self.tok[2]
        end = self.matching(pos) + 1
        if end == 0:
            raise ParseError("unbalanced parentheses", pos)
        return _token(self.text, end)[1] not in ("=", "+", "*")

    def atomic(self) -> Atom:
        kind, v, pos, _ = self.tok
        preds = self.sig.predicates
        if kind == "name" and v in preds:
            save = self.tok
            self.next()
            if self.tok[1] == "(":
                self.next()
                args = [self.term()]
                while self.tok[1] == ",":
                    self.next()
                    args.append(self.term())
                self.expect(")")
                if len(args) != preds[v]:
                    raise ParseError(f"{v} expects {preds[v]} arguments", pos)
                return atom(v, *args)
            self.tok = save
        left = self.term()
        _, v, pos, _ = self.tok
        if v != "=":
            raise ParseError("expected '=' to complete an atomic formula", pos)
        self.next()
        return atom("=", left, self.term())

    # -- sequents ----------------------------------------------------------
    def sequent(self) -> Sequent:
        ant = []
        if self.tok[1] != "|-":
            ant.append(self.formula())
            while self.tok[1] == ",":
                self.next()
                ant.append(self.formula())
        self.expect("|-")
        succ = []
        if self.tok[0] != "eof":
            succ.append(self.formula())
            while self.tok[1] == ",":
                self.next()
                succ.append(self.formula())
        return Sequent(ant, succ)


def _read(text: str, sig: Signature, what):
    try:
        p = _Parser(text, sig)
        out = what(p)
        p.done()
    except LangError:
        # the first character that starts no token is the error to
        # report, wherever the other error lies
        _check_characters(text)
        raise
    return out


def parse_term(text: str, sig: Signature) -> Term:
    return _read(text, sig, _Parser.term)


def parse_formula(text: str, sig: Signature) -> Formula:
    return _read(text, sig, _Parser.formula)


def parse_sequent(text: str, sig: Signature) -> Sequent:
    return _read(text, sig, _Parser.sequent)
