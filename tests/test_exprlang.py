import math

import numpy as np
import pytest

from framedyn.exprlang import (Add, Const, Div, EvalDomainError, ExprFunction,
                               ExprSyntaxError, Fun, Mul, Neg, Pow, Ref,
                               UnboundNameError, UnknownFunctionError,
                               compile_taylor, eval_jet2, eval_value, parse,
                               run_kernel, tree_eval)
from framedyn.jets import TaylorValue


class TestParse:
    def test_ast_shape_product_sum(self):
        assert parse("q1*u2 + u3") == Add(Mul(Ref("q1"), Ref("u2")), Ref("u3"))

    def test_ast_shape_unary_minus_over_product(self):
        got = parse("-(R/2)*cos(theta)")
        want = Neg(Mul(Div(Ref("R"), Const(2.0)), Fun("cos", Ref("theta"))))
        assert got == want

    def test_precedence_and_associativity(self):
        assert parse("a - b - c") == Sub2("a", "b", "c")
        assert parse("a + b*c") == Add(Ref("a"), Mul(Ref("b"), Ref("c")))
        assert parse("a/b/c") == Div(Div(Ref("a"), Ref("b")), Ref("c"))
        assert parse("-a + b") == Add(Neg(Ref("a")), Ref("b"))
        assert parse("a * -b") == Mul(Ref("a"), Neg(Ref("b")))

    def test_pow_requires_integer_literal(self):
        assert parse("pow(q1, 2)") == Pow(Ref("q1"), 2)
        assert parse("pow(q1, -3)") == Pow(Ref("q1"), -3)
        with pytest.raises(ExprSyntaxError):
            parse("pow(q1, 2.5)")
        with pytest.raises(ExprSyntaxError):
            parse("pow(q1, u2)")

    def test_numbers(self):
        assert parse("2.5e-3") == Const(2.5e-3)
        assert parse(".5") == Const(0.5)
        assert parse("1e5") == Const(1e5)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("q1 + \n* 2")
        assert ei.value.line == 2
        assert ei.value.col == 1
        assert "expected" in str(ei.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse("sin(q1")
        assert "')'" in str(ei.value)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError) as ei:
            parse("sinh(q1)")
        assert "sinh" in str(ei.value)

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("q1 q2")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse("q1 @ 2")


def Sub2(a, b, c):
    from framedyn.exprlang import Sub
    return Sub(Sub(Ref(a), Ref(b)), Ref(c))


class TestEvalJet2:
    def test_bilinear_product(self):
        j = eval_jet2("q1*u2", {"q1": 2, "u2": 3}, {}, {"q1": 1}, {"u2": 1})
        assert j.as_tuple() == (6.0, 3.0, 2.0, 1.0)

    def test_sine_at_origin(self):
        j = eval_jet2("sin(q1)", {"q1": 0}, {}, {"q1": 1}, {"q1": 1})
        assert j.as_tuple() == (0.0, 1.0, 1.0, 0.0)

    def test_pow_times_velocity(self):
        j = eval_jet2("pow(q1,2)*u2", {"q1": 1, "u2": 2}, {},
                      {"q1": 1}, {"q1": 1})
        assert j.as_tuple() == (2.0, 4.0, 4.0, 4.0)
        h = 1e-5
        f = lambda q1: q1 ** 2 * 2.0
        d12 = (f(1 + 2 * h) - 2 * f(1) + f(1 - 2 * h)) / (4 * h * h)
        assert j.d12 == pytest.approx(d12, rel=1e-6)

    def test_trig_identity(self):
        e = parse("pow(sin(q1), 2) + pow(cos(q1), 2)")
        for x in np.linspace(-3, 3, 17):
            assert eval_value(e, {"q1": x}) == pytest.approx(1.0, abs=1e-15)

    def test_parameters_are_constant(self):
        j = eval_jet2("R*q1", {"q1": 2.0}, {"R": 3.0}, {"q1": 1}, {"q1": 1})
        assert j.as_tuple() == (6.0, 3.0, 3.0, 0.0)

    def test_zero_directions_zero_derivatives(self):
        j = eval_jet2("exp(q1)*sin(q1)", {"q1": 0.8}, {}, {}, {})
        assert j.d1 == 0.0 and j.d2 == 0.0 and j.d12 == 0.0
        assert j.value == pytest.approx(math.exp(0.8) * math.sin(0.8))

    def test_swap_directions_swaps_d1_d2(self):
        point = {"q1": 0.4, "u1": -1.2}
        d1, d2 = {"q1": 1.0, "u1": 0.3}, {"u1": 1.0}
        a = eval_jet2("sin(q1)*u1 + pow(u1,3)", point, {}, d1, d2)
        b = eval_jet2("sin(q1)*u1 + pow(u1,3)", point, {}, d2, d1)
        assert (a.d1, a.d2) == (b.d2, b.d1)
        assert a.value == b.value and a.d12 == b.d12

    def test_deterministic_bit_identical(self):
        args = ("exp(q1/3)*tan(u1) - sqrt(q1+2)", {"q1": 0.37, "u1": 0.21},
                {}, {"q1": 0.83}, {"u1": -0.4})
        a = eval_jet2(*args)
        b = eval_jet2(*args)
        assert a.as_tuple() == b.as_tuple()

    def test_unbound_name(self):
        with pytest.raises(UnboundNameError):
            eval_jet2("q1 + zz", {"q1": 1.0}, {}, {}, {})

    def test_domain_errors(self):
        with pytest.raises(EvalDomainError):
            eval_value(parse("1/q1"), {"q1": 0.0})
        with pytest.raises(EvalDomainError):
            eval_value(parse("log(q1)"), {"q1": -1.0})
        with pytest.raises(EvalDomainError):
            eval_value(parse("sqrt(q1)"), {"q1": -4.0})

    def test_overflow_gives_inf(self):
        # one fault rule on every entry point, as in a batch: an overflow
        # gives inf and raises nothing
        for src, x in (("exp(x)", 1000.0), ("pow(x, 3)", 1e200)):
            f = ExprFunction(src, ["x"])
            batch = np.full((3, 1), x)
            assert eval_value(parse(src), {"x": x}) == math.inf
            assert eval_jet2(src, {"x": x}, {}, {"x": 1.0},
                             {}).value == math.inf
            assert f.taylor_env({"x": x}) == math.inf
            assert f.value((x,)) == math.inf
            assert f.taylor((x,), (), ((1.0,),))[0] == math.inf
            assert f.taylor_env({"x": batch[:, 0]}).tolist() == [math.inf] * 3
            for k in range(2):
                got = run_kernel(f.kernel(k), (batch,), (), [(batch,)] * k)
                assert got[0].tolist() == [math.inf] * 3

    @pytest.mark.parametrize("src,x", [
        ("log(x)", -1.0), ("sqrt(x)", -4.0), ("1/x", 0.0),
        ("pow(x, -2)", 0.0), ("tan(x)", math.inf)])
    def test_domain_fault_raises_at_a_point_and_at_a_batch(self, src, x):
        f = ExprFunction(src, ["x"])
        batch = np.array([[0.5], [x], [2.0]])
        calls = [lambda: eval_value(parse(src), {"x": x}),
                 lambda: eval_jet2(src, {"x": x}, {}, {"x": 1.0}, {}),
                 lambda: f.taylor_env({"x": x}),
                 lambda: f.taylor_env({"x": batch[:, 0]})]
        for k in range(2):
            calls += [lambda k=k: run_kernel(f.kernel(k), (batch[1],), (),
                                             [(np.ones(1),)] * k),
                      lambda k=k: run_kernel(f.kernel(k), (batch,), (),
                                             [(np.ones((3, 1)),)] * k)]
        for call in calls:
            with pytest.raises(EvalDomainError):
                call()


class TestExprFunction:
    def test_unbound_name_at_build(self):
        with pytest.raises(UnboundNameError):
            ExprFunction("q1 + zz", ["q1"])

    def test_compiled_matches_tree_walk(self, rng):
        exprs = [
            "exp(q1/2)*sin(q1*u2) - sqrt(u2+3)/tan(q1+2) + pow(u2,-2)",
            "-(q1 - u2*(q1 + 2))*cos(u2) + log(q1*q1 + 1)",
            "pow(sin(q1),3)*pow(u2,2) - q1/(u2*u2 + 1)",
        ]
        for src in exprs:
            f = ExprFunction(src, ["q1", "u2"])
            for _ in range(20):
                vals = tuple(rng.uniform(0.2, 1.5, 2))
                dirs = tuple(tuple(rng.normal(size=2)) for _ in range(2))
                got = f.taylor(vals, (), dirs)
                env = {
                    "q1": TaylorValue.variable(
                        vals[0], (dirs[0][0], dirs[1][0]), 2),
                    "u2": TaylorValue.variable(
                        vals[1], (dirs[0][1], dirs[1][1]), 2),
                }
                want = tree_eval(f.expr, env).c
                assert got == tuple(want)

    def test_batched_tree_matches_scalar_compiled(self, rng):
        f = ExprFunction("sin(a)*b + pow(b,2)/(a*a + 1)", ["a", "b"])
        pts = rng.normal(size=(40, 2))
        d1 = rng.normal(size=(40, 2))
        env = {
            "a": TaylorValue.variable(pts[:, 0], (d1[:, 0],), 1),
            "b": TaylorValue.variable(pts[:, 1], (d1[:, 1],), 1),
        }
        batch = f.taylor_env(env)
        for i in range(40):
            got = f.taylor(tuple(pts[i]), (), (tuple(d1[i]),))
            # one rounding on floats and on arrays (docs/exprlang.md)
            assert got == (batch.c[0][i], batch.c[1][i])


def _builtin_expressions():
    from framedyn import builtin
    seen = []
    for name in ("nonholonomic_particle", "vertical_disk", "carriage"):
        sysd = builtin(name)
        names = list(sysd.coords) + list(sysd.vel_names) + [
            f"v{i+1}" for i in range(sysd.m)]
        seen.append((sysd.lagrangian_expr, names, sysd.params))
        for row in sysd.frame_exprs:
            for e in row:
                seen.append((e, names, sysd.params))
        for ref in sysd.references.values():
            for e in (ref if isinstance(ref, list) else [ref]):
                seen.append((e, names, sysd.params))
        for e in sysd.builtin_k or []:
            seen.append((e, names, sysd.params))
    return seen


def test_jets_match_finite_differences_on_builtin_expressions():
    """d1, d2, d12 vs central finite differences, 1000 random samples."""
    rng = np.random.default_rng(11)
    pool = _builtin_expressions()
    h = 1e-5
    checked = 0
    while checked < 1000:
        src, names, params = pool[rng.integers(len(pool))]
        f = ExprFunction(src, names, tuple(params))
        pvals = tuple(params.values())
        x = rng.uniform(-1.5, 1.5, len(names))
        w1 = rng.normal(size=len(names))
        w2 = rng.normal(size=len(names))
        jet = f.taylor(tuple(x), pvals, (tuple(w1), tuple(w2)))

        def val(y):
            return f.value(tuple(y), pvals)

        f0 = abs(val(x))
        d1 = (val(x + h * w1) - val(x - h * w1)) / (2 * h)
        d2 = (val(x + h * w2) - val(x - h * w2)) / (2 * h)
        d12 = (val(x + h * (w1 + w2)) - val(x + h * (w1 - w2))
               - val(x - h * (w1 - w2)) + val(x - h * (w1 + w2))) / (4 * h * h)
        # First differences carry an eps|f|/h roundoff floor (negligible);
        # the second difference carries eps|f|/h^2, which at h = 1e-5 is a
        # few 1e-6 |f| all by itself.  The comparison is rel-1e-6 above the
        # reference's own floor.
        eps_floor = 4 * 2.3e-16 / (h * h) * max(1.0, f0)
        for got, fd in ((jet[1], d1), (jet[2], d2)):
            assert abs(got - fd) <= 1e-6 * max(1.0, abs(got), abs(fd))
        assert abs(jet[3] - d12) <= (1e-6 * max(1.0, abs(jet[3]), abs(d12))
                                     + eps_floor)
        checked += 1


def _frames_under_test():
    """Every built-in frame and the carriage frame with D rotated by theta."""
    from framedyn import BUILTIN_NAMES, builtin, change_of_D_basis
    sysd = builtin("carriage")
    rotated = change_of_D_basis(
        sysd.frame(), sysd.split(),
        [["cos(theta)", "-sin(theta)"], ["sin(theta)", "cos(theta)"]])
    return [builtin(name).frame() for name in BUILTIN_NAMES] + [rotated]


class TestFusedCompilation:
    """compile_taylor over a sequence: one function, every slot exact."""

    @staticmethod
    def _check_exact(exprs, var_names, params, rng, samples=20):
        pnames, pvals = tuple(params), tuple(params.values())
        fns = [ExprFunction(e, var_names, pnames) for e in exprs]
        for k in range(4):
            fused = compile_taylor(exprs, var_names, pnames, k)
            for _ in range(samples):
                vals = tuple(rng.uniform(-1.5, 1.5, len(var_names)).tolist())
                dirs = [tuple(rng.normal(size=len(var_names)).tolist())
                        for _ in range(k)]
                got = fused(vals, pvals, *dirs)
                if k == 0:
                    want = tuple(f.value(vals, pvals) for f in fns)
                else:
                    want = tuple(x for f in fns
                                 for x in f.taylor(vals, pvals, dirs))
                assert got == want

    def test_frames_match_per_expression_slots(self, rng):
        for frame in _frames_under_test():
            exprs = [c.expr for f in frame.fields for c in f.components]
            self._check_exact(exprs, frame.coords, frame.params, rng)

    def test_repeated_subtrees(self, rng):
        exprs = [parse(s) for s in (
            "r*cos(theta)*sin(theta)", "-sin(theta)", "pow(sin(theta), 2)/r",
            "sin(theta) + exp(r*sin(theta))", "sin(theta)")]
        self._check_exact(exprs, ("theta", "r"), {}, rng)
        src = compile_taylor(exprs, ("theta", "r"), (), 1).__source__
        assert src.count("_sin(") == 1
        assert src.count("_exp(") == 1

    def test_signed_zero_literals_stay_apart(self):
        exprs = [Mul(Const(-0.0), Ref("x")), Mul(Const(0.0), Ref("x"))]
        neg, pos = compile_taylor(exprs, ("x",), (), 0)((1.0,), ())
        assert math.copysign(1.0, neg) == -1.0
        assert math.copysign(1.0, pos) == 1.0

    def test_long_sum_compiles(self):
        # Each term of a sum nests the generated source one level deeper;
        # a 300-term sum must still compile and match the tree walk.
        f = ExprFunction(" + ".join(f"x*{i}.5" for i in range(300)), ["x"])
        x = np.array([0.7, -1.3, 2.1])
        grads = (np.array([1.0, 0.5, -0.3]), np.array([-2.0, 0.25, 1.5]))
        for k in range(3):
            tv = f.taylor_env({"x": TaylorValue.variable(x, grads[:k], k)})
            for i in range(len(x)):
                want = tuple(float(np.broadcast_to(c, x.shape)[i])
                             for c in tv.c)
                dirs = [(float(g[i]),) for g in grads[:k]]
                assert f.taylor((float(x[i]),), (), dirs) == want
                assert f.value((float(x[i]),), ()) == want[0]


def test_deep_sum_all_routes():
    # A left-leaning 3,000-term sum: no route may recurse once per term, and
    # all three must add the terms left to right.
    f = ExprFunction(" + ".join(f"x*{i}.5" for i in range(3000)), ["x"])
    assert f.value((0.7,), ()) == f.taylor((0.7,), (), ())[0]
    x = np.array([0.7, -1.3, 2.1])
    grads = (np.array([1.0, 0.5, -0.3]), np.array([-2.0, 0.25, 1.5]))
    for k in range(3):
        tv = f.taylor_env({"x": TaylorValue.variable(x, grads[:k], k)})
        batched = run_kernel(f.kernel(k), (x[:, None],), (),
                             [(g[:, None],) for g in grads[:k]])
        for i in range(len(x)):
            want = tuple(float(np.broadcast_to(c, x.shape)[i]) for c in tv.c)
            dirs = [(float(g[i]),) for g in grads[:k]]
            assert f.taylor((float(x[i]),), (), dirs) == want
            assert tuple(batched[:, i].tolist()) == want


def _tree_slots(expr, var_names, point, params, dirs, k):
    """Slots of the tree walk over TaylorValue.variable leaves, broadcast
    to the batch."""
    env = {name: TaylorValue.variable(point[:, i],
                                      tuple(d[:, i] for d in dirs), k)
           for i, name in enumerate(var_names)}
    env.update({name: TaylorValue.constant(val, k)
                for name, val in params.items()})
    out = tree_eval(expr, env)
    slots = out.c if isinstance(out, TaylorValue) else (
        (out,) + (0.0,) * ((1 << k) - 1))
    return [np.broadcast_to(s, point.shape[:1]) for s in slots]


class TestBatchedKernels:
    """The numpy binding of a kernel equals the tree walk slot for slot."""

    @staticmethod
    def _check(exprs, var_names, params, rng, lo=-1.5, hi=1.5):
        pvals = tuple(params.values())
        for k in range(4):
            nslots = 1 << k
            fn = compile_taylor(exprs, var_names, tuple(params), k)
            point = rng.uniform(lo, hi, (64, len(var_names)))
            dirs = [rng.normal(size=point.shape) for _ in range(k)]
            got = run_kernel(fn, (point,), pvals, [(d,) for d in dirs])
            assert got.shape == (len(exprs) * nslots, 64)
            for e, expr in enumerate(exprs):
                want = _tree_slots(expr, var_names, point, params, dirs, k)
                for j, w in enumerate(want):
                    assert np.array_equal(got[e * nslots + j], w), (
                        expr, k, j)

    def test_frames(self, rng):
        for frame in _frames_under_test():
            exprs = [c.expr for f in frame.fields for c in f.components]
            self._check(exprs, frame.coords, frame.params, rng)

    def test_lagrangians(self, rng):
        from framedyn import BUILTIN_NAMES, builtin
        for name in BUILTIN_NAMES:
            L = builtin(name).lagrangian()
            names = L.coords + L.vel_names
            self._check([L.expr], names, L.params, rng)
            # and through Lagrangian.taylor, the call site
            q = rng.uniform(-1.5, 1.5, (64, L.n))
            u = rng.normal(size=(64, L.n))
            for k in range(4):
                dirs = [(rng.normal(size=q.shape), rng.normal(size=q.shape))
                        for _ in range(k)]
                want = _tree_slots(
                    L.expr, names, np.concatenate([q, u], axis=1), L.params,
                    [np.concatenate(d, axis=1) for d in dirs], k)
                got = L.taylor(q, u, dirs)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_mixed_expressions(self, rng):
        exprs = [parse(s) for s in (
            "exp(q1/2)*sin(q1*u2) - sqrt(u2+3)/tan(q1+2) + pow(u2,-2)",
            "-(q1 - u2*(q1 + 2))*cos(u2) + log(q1*q1 + 1)",
            "pow(sin(q1),3)*pow(u2,2) - q1/(u2*u2 + 1)")]
        self._check(exprs, ("q1", "u2"), {}, rng, lo=0.2, hi=1.5)

    def test_parameter_only_subtrees_round_as_math(self, rng):
        # Subtrees of parameters alone see Python floats, which take the
        # math functions on every route.  Pick c and d where numpy rounds
        # exp, tan and log differently, so a numpy call would show.
        cs = rng.uniform(0.1, 1.4, 4000)
        differ = ((np.exp(cs) != [math.exp(c) for c in cs.tolist()])
                  & (np.tan(cs) != [math.tan(c) for c in cs.tolist()]))
        ds = rng.uniform(0.1, 10.0, 4000)
        dlog = np.log(ds) != [math.log(d) for d in ds.tolist()]
        assert differ.any() and dlog.any()
        params = {"c": float(cs[differ][0]), "d": float(ds[dlog][0])}
        self._check([parse("exp(c)*x + tan(c)*log(d)")], ("x",), params, rng)

    @pytest.mark.parametrize("src, bad", [
        ("log(x) + y", -1.0), ("sqrt(x)*y", -1.0), ("y/x", 0.0)])
    def test_domain_fault_in_one_entry(self, rng, src, bad):
        f = ExprFunction(src, ["x", "y"])
        point = rng.uniform(0.5, 1.5, (64, 2))
        for k in range(2):
            dirs = [(np.ones(2),)] * k
            run_kernel(f.kernel(k), (point,), (), dirs)
            point[17, 0] = bad
            with pytest.raises(EvalDomainError):
                run_kernel(f.kernel(k), (point,), (), dirs)
            point[17, 0] = 1.0


class TestKernelCache:
    def test_parameter_values_share_kernels(self, rng):
        from framedyn import builtin
        a, b = builtin("carriage"), builtin("carriage", {"l": 0.0})
        Fa, Fb = a.frame(), b.frame()
        La, Lb = a.lagrangian(), b.lagrangian()
        q = rng.uniform(-1, 1, 5)
        assert not np.array_equal(La.value(q, q), Lb.value(q, q))
        for k in range(3):
            assert Fa._kernels(k) is Fb._kernels(k)
            assert La.fn.kernel(k) is Lb.fn.kernel(k)
            for ca, cb in zip(Fa.fields[4].components,
                              Fb.fields[4].components):
                assert ca.kernel(k) is cb.kernel(k)

    def test_signed_zero_literals_get_their_own_kernels(self):
        x = Ref("x")
        pos = compile_taylor(Mul(Const(0.0), x), ("x",), (), 1)
        neg = compile_taylor(Mul(Const(-0.0), x), ("x",), (), 1)
        assert pos is not neg
        assert math.copysign(1.0, pos((1.0,), (), (1.0,))[1]) == 1.0
        assert math.copysign(1.0, neg((1.0,), (), (1.0,))[1]) == -1.0

    def test_variable_order_is_part_of_the_key(self):
        e = parse("x - 2*y")
        xy = compile_taylor(e, ("x", "y"), (), 0)
        yx = compile_taylor(e, ("y", "x"), (), 0)
        assert xy is not yx
        assert xy is compile_taylor(parse("x - 2*y"), ("x", "y"), (), 0)
        assert xy((1.0, 3.0), ()) == (-5.0,)
        assert yx((1.0, 3.0), ()) == (1.0,)

    def test_leading_kernels_reuse_the_full_structure(self, monkeypatch):
        # A frame's structure key is computed once; the kernel of its first
        # `count` fields keys exactly as a fresh compile of those fields.
        import framedyn.exprlang as exprlang
        from framedyn.exprlang import _structure

        for frame in _frames_under_test():
            n = frame.n
            exprs = [c.expr for f in frame.fields for c in f.components]
            table, roots, _ = _structure(exprs)
            for count in range(n + 1):
                want_table, want_roots, _ = _structure(exprs[:count * n])
                got_roots = roots[:count * n]
                assert got_roots == want_roots
                assert table[:max(got_roots, default=-1) + 1] == want_table
        calls = []
        real = exprlang._structure
        monkeypatch.setattr(exprlang, "_structure",
                            lambda exprs: calls.append(1) or real(exprs))
        frame = _frames_under_test()[-1]
        for k in range(3):
            for count in (frame.n, 2, 1):
                fn = frame._kernels(k, count * frame.n)
                assert fn is compile_taylor(
                    [c.expr for f in frame.fields[:count]
                     for c in f.components], frame.coords,
                    tuple(frame.params), k)
        # one structure for the frame, one per fresh compile_taylor above
        assert len(calls) == 1 + 9
