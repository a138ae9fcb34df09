import os
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import feaslab
from feaslab.lang import (
    And,
    App,
    Atom,
    BinOp,
    Const,
    Forall,
    Implies,
    LangError,
    Not,
    Or,
    ParseError,
    Quant,
    Sequent,
    Var,
    arith_signature,
    app,
    atom,
    conj,
    const,
    dag_size,
    disj,
    exists,
    fold,
    forall,
    formula_str,
    free_vars,
    fresh_name,
    group_signature,
    imp,
    int_term,
    mul,
    neg,
    parse_formula,
    parse_sequent,
    parse_term,
    plus,
    rational_signature,
    sequent_brief,
    sequent_str,
    subst_formula,
    subst_key,
    subst_term,
    substitute,
    term_str,
    tree_size,
    var,
)
from feaslab.semantics import (
    eval_group_bs,
    eval_group_free,
    eval_nat,
    eval_rat,
)

SIG = arith_signature()


def test_interning_gives_identity():
    a = mul(plus(var("x"), const("0")), var("y"))
    b = mul(plus(var("x"), const("0")), var("y"))
    assert a is b
    assert atom("F", a) is atom("F", b)
    assert forall("x", atom("F", var("x"))) is forall("x", atom("F", var("x")))


_ZERO, _F0 = const("0"), atom("F", const("0"))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: app("s", 5), "non-term argument 5 to s"),
        (lambda: app("+", _ZERO, _F0), "non-term argument F(0) to +"),
        (lambda: atom("F", 5), "non-term argument 5 to F"),
        (lambda: atom("=", _ZERO, _F0), "non-term argument F(0) to ="),
        (lambda: neg(5), "non-formula argument 5 to neg"),
        (lambda: conj(_F0, 6), "non-formula argument 6 to conj"),
        (lambda: disj(None, _F0), "non-formula argument None to disj"),
        (lambda: imp(_ZERO, _F0), "non-formula argument 0 to imp"),
        (lambda: forall("x", "F(x)"), "non-formula argument 'F(x)' to forall"),
        (lambda: exists("x", var("x")), "non-formula argument x to exists"),
        (lambda: var(7), "non-string name 7 to var"),
        (lambda: forall(7, _F0), "non-string name 7 to forall"),
        (lambda: exists(None, _F0), "non-string name None to exists"),
    ],
)
def test_factories_refuse_arguments_of_the_wrong_kind(make, message):
    # asked on every miss, so a refused key is never stored
    for _ in range(2):
        with pytest.raises(LangError, match=re.escape(message)):
            make()


@pytest.mark.parametrize(
    "node, field",
    [
        (var("x"), "name"),
        (_ZERO, "sym"),
        (app("s", _ZERO), "args"),
        (_F0, "pred"),
        (neg(_F0), "body"),
        (conj(_F0, _F0), "left"),
        (forall("x", _F0), "v"),
    ],
)
def test_nodes_are_immutable(node, field):
    before = getattr(node, field)
    with pytest.raises(AttributeError):
        setattr(node, field, before)
    assert getattr(node, field) is before


def test_parse_term_round_trip():
    cases = [
        "0",
        "x",
        "s(s(0))",
        "x + y",
        "x * (y + 0)",
        "(x + y) * z",
        "exp(s(s(0)), x)",
        "x + y + z",  # right associative
    ]
    for text in cases:
        t = parse_term(text, SIG)
        assert parse_term(term_str(t), SIG) is t


def test_parse_formula_round_trip():
    cases = [
        "F(0)",
        "F(x) -> F(x * x)",
        "forall x (F(x) -> F(x * x))",
        "F(x) /\\ (F(y) \\/ ~F(0))",
        "exists y (x = y)",
        "forall x (forall y (x = y -> F(x + y)))",
    ]
    for text in cases:
        phi = parse_formula(text, SIG)
        assert parse_formula(formula_str(phi), SIG) is phi


def test_parse_sequent_round_trip():
    s = parse_sequent("F(x), F(y) |- F(x * y)", SIG)
    assert len(s.ant) == 2 and len(s.succ) == 1
    assert parse_sequent(sequent_str(s), SIG) == s


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_term("x +", SIG)
    with pytest.raises(ParseError):
        parse_term("f(x)", SIG)  # unknown symbol
    with pytest.raises(ParseError):
        parse_formula("F(x", SIG)
    with pytest.raises(ParseError):
        parse_formula("G(x)", SIG)


def test_int_term_values():
    assert term_str(int_term(0, SIG)) == "0"
    assert term_str(int_term(3, SIG)) == "s(s(s(0)))"
    # the largest literal spelled in unary, and a long one spelled in binary
    assert parse_term("10000", SIG) is int_term(10_000, SIG)
    assert parse_term("9" * 100, SIGNATURES["rat"]) is int_term(10**100 - 1, SIGNATURES["rat"])


def test_precedence_printing():
    t = parse_term("(x + y) * z", SIG)
    assert term_str(t) == "(x + y) * z"
    t2 = parse_term("x + y * z", SIG)
    assert term_str(t2) == "x + y * z"


def test_free_vars():
    phi = parse_formula("forall x (F(x) -> F(x * y))", SIG)
    assert free_vars(phi) == frozenset({"y"})
    assert free_vars(parse_term("x + 0", SIG)) == frozenset({"x"})
    assert free_vars(const("0")) == frozenset()


def test_substitute_simple():
    phi = parse_formula("F(x) -> F(x * x)", SIG)
    got = substitute(phi, "x", int_term(2, SIG))
    assert got is parse_formula("F(s(s(0))) -> F(s(s(0)) * s(s(0)))", SIG)


def test_substitute_bound_variable_untouched():
    phi = parse_formula("forall x (F(x) -> F(y))", SIG)
    got = substitute(phi, "x", const("0"))
    assert got is phi


def test_substitute_capture_avoidance():
    # substituting y := x under "all x" must rename the binder
    phi = parse_formula("forall x (x = y)", SIG)
    got = substitute(phi, "y", var("x"))
    assert got is parse_formula("forall x' (x' = x)", SIG)


def test_subst_term_identity_mapping_is_noop():
    t = parse_term("x * x + y", SIG)
    assert subst_term(t, {"x": var("x")}) is t
    assert subst_term(t, {"z": const("0")}) is t


def test_substitution_preserves_sharing():
    x = var("x")
    w = mul(x, x)
    for _ in range(40):
        w = mul(w, w)
    out = subst_term(w, {"x": const("0")})
    # the 2^41-leaf tree must stay a 40-ish node DAG
    assert dag_size(out) <= dag_size(w) + 2
    assert isinstance(out, App)


def test_free_variable_sets_are_shared():
    # one empty set for every closed node; a node whose child holds all its
    # variables, or a quantifier whose variable is not free, shares the set
    x, y = var("x"), var("y")
    closed = [
        const("0"),
        app("s", const("0")),
        atom("F", const("0")),
        forall("x", atom("F", x)),
        exists("y", conj(atom("=", y, y), neg(atom("F", const("0"))))),
    ]
    assert free_vars(closed[0]) == frozenset()
    assert all(free_vars(c) is free_vars(closed[0]) for c in closed)
    assert free_vars(app("+", x, const("0"))) is free_vars(x)
    assert free_vars(forall("y", atom("F", x))) is free_vars(atom("F", x))
    xy = app("*", x, y)
    assert free_vars(xy) == frozenset({"x", "y"})
    assert free_vars(imp(atom("F", y), atom("F", xy))) is free_vars(xy)
    assert free_vars(forall("y", atom("F", xy))) == frozenset({"x"})


def test_deep_shared_terms_do_not_recurse():
    # depth beyond any recursion limit, built by squaring
    t = var("x")
    for _ in range(5000):
        t = mul(t, t)
    assert free_vars(t) == frozenset({"x"})
    assert dag_size(t) == 5001
    assert tree_size(t) == 2 ** 5001 - 1
    out = subst_term(t, {"x": const("0")})
    assert free_vars(out) == frozenset()


def test_sequent_multiset_equality():
    a, b = atom("F", const("0")), atom("F", var("x"))
    assert Sequent((a, b), (a,)) == Sequent((b, a), (a,))
    assert Sequent((a, a), (b,)) != Sequent((a,), (b,))
    assert hash(Sequent((a, b), ())) == hash(Sequent((b, a), ()))


_SEQUENT_POOL = [atom("F", t) for t in (const("0"), var("x"), var("y"), var("z"))]
_formula_tuples = st.lists(st.sampled_from(_SEQUENT_POOL), max_size=5).map(tuple)


def _eager_key(s: Sequent) -> tuple:
    """The order-free key every Sequent once computed on construction."""
    return (tuple(sorted(map(id, s.ant))), tuple(sorted(map(id, s.succ))))


@settings(max_examples=300, deadline=None)
@given(_formula_tuples, _formula_tuples, _formula_tuples, _formula_tuples)
def test_lazy_sequent_key_matches_the_eager_one(a1, s1, a2, s2):
    x, y = Sequent(a1, s1), Sequent(a2, s2)
    same = _eager_key(x) == _eager_key(y)
    assert (x == y) == same == (y == x)
    assert (x != y) == (not same)
    assert hash(x) == hash(_eager_key(x))
    if same:
        assert hash(x) == hash(y)
    # the key, once computed, serves every later comparison
    assert (x == y) == same and x == Sequent(a1[::-1], s1[::-1])
    assert x != (a1, s1)


def _interned_batch(prefix: str) -> list:
    """420 new terms and formulas, all named after prefix, 120 of them
    under function symbols and predicates named after it too."""
    out = []
    for i in range(60):
        x = var(f"{prefix}{i}")
        t = app("s", mul(x, const("0")))
        f = atom("F", t)
        g = forall(f"{prefix}{i}", imp(f, conj(f, neg(atom("=", t, x)))))
        h = app(f"{prefix}f{i}", x, t)
        out += [x, t, f, g, exists(f"{prefix}{i}", disj(g, f)), h, atom(f"{prefix}P{i}", h)]
    return out


def test_interning_across_threads():
    # 4 threads intern the same few hundred new terms and formulas at
    # once, switching threads often, some under symbols that no table has
    # seen; every structure comes back as one object, the one a later
    # call in one thread finds
    threads = 4
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(3):
            prefix = f"threads{r}_v"
            barrier = threading.Barrier(threads, timeout=60)
            results = [None] * threads

            def work(k):
                barrier.wait()
                results[k] = _interned_batch(prefix)

            workers = [threading.Thread(target=work, args=(k,)) for k in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
            again = _interned_batch(prefix)
            assert len(again) == 420
            for objs in zip(again, *results):
                assert all(o is objs[0] for o in objs)
    finally:
        sys.setswitchinterval(old)


class _MissTogether(dict):
    """A table on which each miss waits until `parties` threads have
    missed, so that the threads build their candidates for a key at once."""

    def __init__(self, parties: int):
        super().__init__()
        self._barrier = threading.Barrier(parties, timeout=10)

    def get(self, key, default=None):
        out = super().get(key, default)
        if out is None:
            self._barrier.wait()
        return out


def test_racing_misses_come_back_as_one_object(monkeypatch):
    # two threads miss every key together, in every table, on the table
    # of a new symbol and of a new predicate too; the object stored first
    # is the one both get
    lang = feaslab.lang
    tables = {
        name: _MissTogether(2)
        for name in ("_var_table", "_const_table", "_app_tables", "_atom_tables", "_formula_table")
    }
    tables["_app_tables"]["race_f"] = _MissTogether(2)
    tables["_atom_tables"]["race_P"] = _MissTogether(2)
    for name, table in tables.items():
        monkeypatch.setattr(lang, name, table)

    def batch():
        x, c = var("race_x"), const("race_c")
        t = app("race_f", x, c)
        u = app("race_g", t)  # a symbol with no table yet
        f, g = atom("race_P", u), atom("race_Q", t)  # race_Q has no table yet
        return [x, c, t, u, f, g, neg(f), conj(f, g), forall("race_x", g)]

    results = [None, None]

    def work(k):
        results[k] = batch()

    workers = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert results[0] is not None and results[1] is not None
    for a, b, again in zip(*results, batch()):
        assert a is b is again


def test_interning_keeps_symbols_and_predicates_apart():
    # one argument tuple under two symbols or predicates is two nodes
    a, b = var("x"), const("0")
    assert app("+", a, b) is not app("*", a, b)
    assert app("*", a, b).sym == "*" and app("+", a, b).sym == "+"
    assert atom("F", a) is not atom("T", a)
    assert atom("T", a).pred == "T" and atom("F", a).pred == "F"
    assert var("0") is not const("0")


def test_sequents_immutable():
    s = Sequent((), (atom("F", const("0")),))
    with pytest.raises(AttributeError):
        s.ant = ()


def test_signatures_expose_expected_symbols():
    g = group_signature(("x", "y"))
    assert "inv" in g.functions
    r = rational_signature()
    assert "inv" in r.functions and "neg" in r.functions


terms = st.recursive(
    st.sampled_from([var("x"), var("y"), const("0")]),
    lambda kids: st.builds(mul, kids, kids) | st.builds(plus, kids, kids)
    | st.builds(lambda a: app("s", a), kids),
    max_leaves=20,
)


@given(terms)
def test_term_print_parse_is_identity(t):
    assert parse_term(term_str(t), SIG) is t


@given(terms, terms)
def test_subst_then_eval_free_vars(t, u):
    got = subst_term(t, {"x": u})
    fv = free_vars(got)
    if "x" in free_vars(t):
        assert fv == (free_vars(t) - {"x"}) | free_vars(u)
    else:
        assert got is t


def ref_subst(x, mapping):
    """Capture-avoiding substitution by plain recursion, a fresh memo per
    call: the implementation `subst_formula` replaced, kept as its oracle."""
    fv = free_vars(x)
    live = {
        k: v for k, v in mapping.items() if k in fv and not (isinstance(v, Var) and v.name == k)
    }
    return _ref_subst(x, live, {}) if live else x


def _ref_subst(x, mapping, memo):
    hit = memo.get(x)
    if hit is not None:
        return hit
    if isinstance(x, Var):
        out = mapping.get(x.name, x)
    elif isinstance(x, Const):
        out = x
    elif isinstance(x, App):
        out = app(x.sym, *(_ref_subst(a, mapping, memo) for a in x.args))
    elif isinstance(x, Atom):
        out = atom(x.pred, *(_ref_subst(a, mapping, memo) for a in x.args))
    elif isinstance(x, Not):
        out = neg(_ref_subst(x.body, mapping, memo))
    elif isinstance(x, BinOp):
        make = {And: conj, Or: disj, Implies: imp}[type(x)]
        out = make(_ref_subst(x.left, mapping, memo), _ref_subst(x.right, mapping, memo))
    else:
        assert isinstance(x, Quant)
        inner = {k: v for k, v in mapping.items() if k != x.v and k in free_vars(x.body)}
        if not inner:
            out = x
        else:
            bound, body = x.v, x.body
            clash = set().union(*(free_vars(v) for v in inner.values()))
            if bound in clash:
                nb = fresh_name(bound, clash | free_vars(body) | set(inner))
                body = ref_subst(body, {bound: var(nb)})
                bound = nb
            make = forall if isinstance(x, Forall) else exists
            out = make(bound, ref_subst(body, inner))
    memo[x] = out
    return out


# -- text layer: printer and parser under every signature -------------------

SIGNATURES = {
    "arith": SIG,
    "group": group_signature(("x", "y"), with_triviality=True),
    "rat": rational_signature(),
}
VARS = ("u", "v", "w")
# the names fresh_name picks for u, so that renamed binders meet them
PRIMED = VARS + ("u'", "u''")


def sig_terms(sig, names=VARS):
    leaves = st.sampled_from([var(v) for v in names] + [const(c) for c in sig.constants])
    funcs = sorted(sig.functions.items())

    def apps(kids):
        return st.sampled_from(funcs).flatmap(
            lambda fk: st.tuples(*[kids] * fk[1]).map(lambda args: app(fk[0], *args))
        )

    return st.recursive(leaves, apps, max_leaves=12)


def squared(t, k):
    for _ in range(k):
        t = mul(t, t)
    return t


def sig_terms_shared(sig, names=VARS):
    # squaring shares every stage: the printed text doubles per stage
    return st.builds(squared, sig_terms(sig, names), st.integers(0, 5))


def sig_formulas(sig, names=VARS):
    preds = sorted(sig.predicates.items())
    atoms = st.sampled_from(preds).flatmap(
        lambda pk: st.tuples(*[sig_terms_shared(sig, names)] * pk[1]).map(
            lambda args: atom(pk[0], *args)
        )
    )

    def compound(kids):
        return (
            st.builds(imp, kids, kids)
            | st.builds(disj, kids, kids)
            | st.builds(conj, kids, kids)
            | st.builds(neg, kids)
            | st.builds(forall, st.sampled_from(names), kids)
            | st.builds(exists, st.sampled_from(names), kids)
        )

    return st.recursive(atoms, compound, max_leaves=6)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subst_matches_the_recursive_reference(name, data):
    # mapped terms mention the variables the formulas bind: captures happen,
    # and the fresh names of renamed binders are in use already
    sig = SIGNATURES[name]
    mapping = data.draw(
        st.dictionaries(st.sampled_from(PRIMED), sig_terms(sig, PRIMED), max_size=3)
    )
    phi = data.draw(sig_formulas(sig, PRIMED))
    assert subst_formula(phi, mapping) is ref_subst(phi, mapping)
    t = data.draw(sig_terms_shared(sig, PRIMED))
    assert subst_term(t, mapping) is ref_subst(t, mapping)


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subst_with_a_shared_memo_matches_the_recursive_reference(name, data):
    # one memo serves calls under several mappings, through subst_formula
    # and through subst_key, whose sorted key may name variables that are
    # not free and map a name to its own variable
    sig = SIGNATURES[name]
    mappings = data.draw(
        st.lists(
            st.dictionaries(st.sampled_from(PRIMED), sig_terms(sig, PRIMED), max_size=3),
            min_size=2,
            max_size=3,
        )
    )
    roots = (data.draw(sig_formulas(sig, PRIMED)), data.draw(sig_terms_shared(sig, PRIMED)))
    memo: dict = {}
    for mapping in mappings + mappings:
        key = tuple(sorted(mapping.items()))
        for x in roots:
            want = ref_subst(x, mapping)
            assert subst_formula(x, mapping, memo) is want
            assert subst_key(x, key, memo) is want


def test_the_process_keeps_one_substitution_entry_per_call(monkeypatch):
    monkeypatch.setattr(feaslab.lang, "_subst_memo", {})
    x = var("x")
    t = x
    for _ in range(50):
        t = app("s", mul(t, x))
    phi = forall("y", imp(atom("F", t), atom("=", t, var("y"))))
    zero, y = const("0"), var("y")
    out = subst_formula(phi, {"x": zero})
    assert feaslab.lang._subst_memo == {(phi, (("x", zero),)): out}
    assert subst_formula(phi, {"x": zero}) is out
    # the root pair holds its mapping: another term is another entry
    renamed = subst_formula(phi, {"x": y})
    assert renamed is not out and renamed.v == "y'"
    assert len(feaslab.lang._subst_memo) == 2
    # a memo of the caller's takes the walk below the root, and the
    # process still keeps the root pair
    memo: dict = {}
    one = const("1")
    assert subst_formula(phi, {"x": one}, memo) is ref_subst(phi, {"x": one})
    assert len(memo) == dag_size(phi) and len(feaslab.lang._subst_memo) == 3
    assert subst_formula(phi, {"x": one}, {}) is feaslab.lang._subst_memo[phi, (("x", one),)]


def _fv_step(x, vals):
    if x.__class__ is Var:
        return frozenset((x.name,))
    out = frozenset().union(*vals)
    return out - {x.v} if isinstance(x, Quant) else out


def ref_free_vars(x) -> dict:
    """{node: its free variables} for every node below x, by a fold over
    the children: the way free variables were computed before each node
    kept its own set, kept as its oracle."""
    memo: dict = {}
    fold(x, _fv_step, memo)
    return memo


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_free_vars_match_the_fold_reference(name, data):
    # the formulas bind the variables their terms use, and substitution
    # captures and renames binders, so nested and primed binders occur
    sig = SIGNATURES[name]
    mapping = data.draw(
        st.dictionaries(st.sampled_from(PRIMED), sig_terms(sig, PRIMED), max_size=3)
    )
    phi = data.draw(sig_formulas(sig, PRIMED))
    t = data.draw(sig_terms_shared(sig, PRIMED))
    for root in (phi, t, subst_formula(phi, mapping), subst_term(t, mapping)):
        for node, fv in ref_free_vars(root).items():
            assert free_vars(node) == fv


@pytest.mark.parametrize("name", sorted(SIGNATURES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_text_round_trip_is_identity(name, data):
    sig = SIGNATURES[name]
    t = data.draw(sig_terms_shared(sig))
    assert parse_term(term_str(t), sig) is t
    phi = data.draw(sig_formulas(sig))
    assert parse_formula(formula_str(phi), sig) is phi
    ant = data.draw(st.lists(sig_formulas(sig), max_size=3))
    succ = data.draw(st.lists(sig_formulas(sig), max_size=3))
    seq = Sequent(ant, succ)
    back = parse_sequent(sequent_str(seq), sig)
    assert back.ant == seq.ant and back.succ == seq.succ


@pytest.fixture
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def chains(sig, depth):
    """Terms and formulas `depth` levels deep: a unary chain, a left- and a
    right-nested product, and nested negations and implications."""
    f = sorted(k for k, a in sig.functions.items() if a == 1)[0]
    leaf = var("u")
    unary = left = right = leaf
    phi = psi = atom("F", leaf)
    for i in range(depth):
        unary = app(f, unary)
        left = mul(left, var(VARS[i % 3]))
        right = mul(var(VARS[i % 3]), right)
        phi = neg(phi)
        psi = imp(psi, atom("F", var(VARS[i % 3])))
    return (unary, left, right), (phi, psi)


# a constant each chain's variables are closed with, and the evaluators of
# the closed chains
CLOSED_CHAINS = {
    "arith": (const("0"), (eval_nat,)),
    "group": (const("x"), (eval_group_bs, eval_group_free)),
    "rat": (const("1"), (eval_rat,)),
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_deep_chains_round_trip_without_recursion(name, default_recursion_limit):
    sig = SIGNATURES[name]
    depth = 20_000
    leaf, evaluators = CLOSED_CHAINS[name]
    closing = {v: leaf for v in VARS}
    terms, formulas = chains(sig, depth)
    for t, size in zip(terms, (depth + 1, 2 * depth + 1, 2 * depth + 1)):
        assert parse_term(term_str(t), sig) is t
        assert tree_size(t) == size and free_vars(t) <= set(VARS)
        closed = subst_term(t, closing)
        assert tree_size(closed) == size
        assert free_vars(closed) == frozenset()
        for evaluate in evaluators:
            evaluate(closed)
    if name == "arith":
        assert eval_nat(subst_term(terms[0], closing)) == depth
    for phi, size in zip(formulas, (depth + 2, 3 * depth + 2)):
        assert parse_formula(formula_str(phi), sig) is phi
        assert tree_size(phi) == size and free_vars(phi) <= set(VARS)
        closed = subst_formula(phi, closing)
        assert tree_size(closed) == size and free_vars(closed) == frozenset()
    # quantifiers over distinct variables; the innermost one captures
    nest = atom("F", var("u"))
    for i in range(depth):
        nest = forall(f"b{i}", nest)
    assert parse_formula(formula_str(nest), sig) is nest
    assert free_vars(nest) == frozenset({"u"}) and tree_size(nest) == depth + 2
    closed = subst_formula(nest, closing)
    assert free_vars(closed) == frozenset() and tree_size(closed) == depth + 2
    renamed = subst_formula(nest, {"u": var("b0")})
    inner = renamed
    for i in range(depth - 1, 0, -1):
        assert inner.v == f"b{i}"
        inner = inner.body
    assert inner is forall("b0'", atom("F", var("b0")))
    if name == "arith":
        # every binder captures: each is renamed, in one pass
        depth = 50_000
        nest = atom("F", plus(var("x"), var("y")))
        for _ in range(depth):
            nest = forall("y", nest)
        inner = subst_formula(nest, {"x": var("y")})
        for _ in range(depth):
            assert inner.v == "y'"
            inner = inner.body
        assert inner is atom("F", plus(var("y"), var("y'")))
    # a squaring chain shares each stage twice: long text, small DAG
    sq = squared(var("u"), 16)
    assert parse_term(term_str(sq), sig) is sq


def test_memo_is_per_signature():
    group = SIGNATURES["group"]
    text = "(x * y) * (x * y) * s(0)"
    u = parse_term(text, SIG)
    assert u is parse_term("(x * y) * ((x * y) * s(0))", SIG)
    assert u.args[0].args[0] is var("x")
    with pytest.raises(ParseError):
        parse_term(text, group)  # no s, no 0
    g = parse_term("(x * y) * (x * y)", group)
    assert g.args[0].args[0] is const("x")


def test_sequent_brief_prints_up_to_a_node_limit(monkeypatch):
    import feaslab.lang as lang

    t = squared(var("u"), 3)  # 15 nodes as a tree, 4 distinct
    s = Sequent([atom("F", var("u"))], [atom("F", t)])  # 2 + 16 nodes
    assert sequent_brief(s) == sequent_str(s)
    monkeypatch.setattr(lang, "_MAX_PRINTED_NODES", 18)
    assert sequent_brief(s) == sequent_str(s)
    assert repr(s) == sequent_str(s) and repr(t) == term_str(t)
    monkeypatch.setattr(lang, "_MAX_PRINTED_NODES", 17)
    assert sequent_brief(s) == "<sequent of 18 nodes as a tree, 6 distinct>"
    assert repr(s) == sequent_brief(s)
    assert repr(s.succ[0]) == formula_str(s.succ[0])
    monkeypatch.setattr(lang, "_MAX_PRINTED_NODES", 15)
    assert repr(s.succ[0]) == "<formula of 16 nodes as a tree, 5 distinct>"
    assert repr(t) == term_str(t)
    monkeypatch.setattr(lang, "_MAX_PRINTED_NODES", 14)
    assert repr(t) == "<term of 15 nodes as a tree, 4 distinct>"


# the reprs of a matrix-power proof's conclusion, its formula and its
# largest term, which are about 10**39 nodes as trees, in a process whose
# address space is capped: a repr that writes the tree out fails there
REPR_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from feaslab.generators import gen_matrix_power
from feaslab.lang import Term, fold, tree_size
from feaslab.semantics import Mat2
s = gen_matrix_power(Mat2(2, 1, 1, 1), 6, mode="quantifier").proof.conclusion
nodes = {}
fold(s.succ[0], lambda y, vals: None, nodes)
t = max((y for y in nodes if isinstance(y, Term)), key=tree_size)
print(repr(s))
print(repr(s.succ[0]))
print(repr(t))
"""


def test_repr_of_a_huge_tree_is_a_summary():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(feaslab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", REPR_SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert [line.split(" of ")[0] for line in lines] == ["<sequent", "<formula", "<term"]
    assert all(line.endswith(" distinct>") and len(line) < 100 for line in lines)


# messages and positions as the recursive-descent parser gave them
MALFORMED = [
    ("term", "arith", "x +", "expected a term, found '' (at position 3)"),
    ("term", "arith", "f(x)", "trailing input '(' (at position 1)"),
    ("term", "arith", "s x", "expected '(', found 'x' (at position 2)"),
    ("term", "arith", "s(x", "expected ')', found '' (at position 3)"),
    ("term", "arith", "s(x, y)", "s expects 1 arguments, got 2 (at position 0)"),
    ("term", "arith", "exp(x)", "exp expects 2 arguments, got 1 (at position 0)"),
    ("term", "arith", "(x + y", "expected ')', found '' (at position 6)"),
    ("term", "arith", "F(x)", "predicate 'F' used as a term (at position 0)"),
    ("term", "arith", "x $ y", "unexpected character '$' (at position 1)"),
    ("term", "arith", "x + (y * ) $", "unexpected character '$' (at position 10)"),
    ("term", "arith", "x y", "trailing input 'y' (at position 2)"),
    ("term", "rat", "1 + -", "unexpected character '-' (at position 3)"),
    ("term", "arith", "s(s(0)) * s(s(0)) +", "expected a term, found '' (at position 19)"),
    ("term", "arith", "(x + 0) * (x + 0) * (x + 0", "expected ')', found '' (at position 26)"),
    (
        "term", "arith", "exp(s(0), s(0)) + exp(s(0), s(0), 0)",
        "exp expects 2 arguments, got 3 (at position 18)",
    ),
    ("formula", "arith", "F(x", "expected ')', found '' (at position 3)"),
    ("formula", "arith", "G(x)", "expected '=' to complete an atomic formula (at position 1)"),
    ("formula", "arith", "F(x, y)", "F expects 1 arguments (at position 0)"),
    ("formula", "arith", "F + x = y", "predicate 'F' used as a term (at position 0)"),
    ("formula", "arith", "x + y", "expected '=' to complete an atomic formula (at position 5)"),
    ("formula", "arith", "forall (F(x))", "expected a variable after quantifier (at position 7)"),
    ("formula", "arith", "forall x F(x)", "expected '(', found 'F' (at position 9)"),
    ("formula", "arith", "forall x (F(x)", "expected ')', found '' (at position 14)"),
    ("formula", "arith", "(F(x) -> F(y)", "unbalanced parentheses (at position 0)"),
    ("formula", "arith", "((x + y) = z", "unbalanced parentheses (at position 0)"),
    ("formula", "arith", "~", "expected a term, found '' (at position 1)"),
    ("formula", "arith", "F(x) -> ", "expected a term, found '' (at position 8)"),
    ("formula", "arith", "F(x) /\\\\ F(y)", "unexpected character '\\\\' (at position 7)"),
    (
        "formula", "arith", "F(s(0)) -> F(s(0)) /\\ s(0) = s(0) $",
        "unexpected character '$' (at position 33)",
    ),
    ("formula", "group", "T(e, e)", "T expects 1 arguments (at position 0)"),
    ("sequent", "arith", "F(x) F(y)", "expected '|-', found 'F' (at position 5)"),
    ("sequent", "arith", "F(x) |- F(y) |- F(z)", "trailing input '|-' (at position 13)"),
    ("sequent", "arith", "F(x), |- F(y)", "expected a term, found '|-' (at position 6)"),
    ("sequent", "arith", "F(x) |- F(y) F(z)", "trailing input 'F' (at position 13)"),
    (
        "sequent", "arith", "|- s(s(0)) = s(s(0)), ' ",
        "unexpected character \"'\" (at position 21)",
    ),
    # numeral literals too large to spell in unary, or too long for int()
    ("term", "arith", "s(10001)", "numeral 10001 is too large to spell in unary (at position 2)"),
    (
        "formula", "arith", "F(0) -> F(111111111)",
        "numeral 111111111 is too large to spell in unary (at position 10)",
    ),
    (
        "term", "rat", "1 + " + "1" * 20_000,
        f"numeral of 20000 digits exceeds the limit of {sys.get_int_max_str_digits()} "
        "(at position 4)",
    ),
]


@pytest.mark.parametrize("kind, name, text, message", MALFORMED)
def test_malformed_inputs_keep_their_messages(kind, name, text, message):
    parse = {"term": parse_term, "formula": parse_formula, "sequent": parse_sequent}[kind]
    with pytest.raises(ParseError) as exc:
        parse(text, SIGNATURES[name])
    assert str(exc.value) == message


def test_numeral_the_signature_cannot_express():
    with pytest.raises(LangError, match="cannot express the numeral 3"):
        parse_term("inv(x) * 3", SIGNATURES["group"])
    # a bad character still outranks it, as when the text was tokenized first
    with pytest.raises(ParseError, match="unexpected character"):
        parse_term("inv(x) * 3 $", SIGNATURES["group"])
