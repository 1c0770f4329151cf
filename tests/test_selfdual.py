import functools
import random
from collections import Counter

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from gtrscodes import (
    ConstructionError,
    ConstructionResult,
    GTRSError,
    InvariantError,
    LinearCode,
    check_self_dual_criterion,
    classify_eta,
    code,
    construct_class1,
    construct_class2,
    generator_matrix,
    is_mds_plus,
    plus_gtrs,
    sweep_constructions,
    u_vector,
    zeta_roots,
)
from gtrscodes.linalg import Matrix
from gtrscodes.selfdual import (_candidates, _code_keys, _finished,
                                _polynomial_route, _step_head, _step_key,
                                _x_data, _zeta_inverses, canonical_x_subsets)

from conftest import (exhaustive_class, field_q2, poly_route_oracle,
                      reference_rref, sweep_cache)


def test_criterion_on_bundled_instance(gf49):
    from gtrscodes.reference import OMEGA_LOG
    w = gf49.pow(gf49.generator, OMEGA_LOG)
    alpha = [1, 2, 3, 4, 5, 6]
    v = [gf49.pow(w, 4), 1, gf49.pow(w, 11), 3, gf49.pow(w, 9), w]
    params = plus_gtrs(gf49, alpha, v, gf49.pow(w, 4), 3)
    assert check_self_dual_criterion(params)
    # oracle: direct Hermitian Gram check on the assembled code
    assert code(params).is_hermitian_self_dual()
    # perturbing eta breaks it
    broken = plus_gtrs(gf49, alpha, v, 1, 3)
    assert not check_self_dual_criterion(broken)
    assert not code(broken).is_hermitian_self_dual()


def test_criterion_returns_the_self_dual_code(gf49):
    res = construct_class1(gf49, 1, [0, 1, 2, 3])
    eta = res.eta_list[0][0]
    params = res.params(eta)
    assert check_self_dual_criterion(params).equals(code(params))
    perturbed = res.params(gf49.add(eta, 1))
    assert check_self_dual_criterion(perturbed) is None


def test_criterion_errors(gf49):
    with pytest.raises(GTRSError):
        check_self_dual_criterion(plus_gtrs(gf49, [1, 2, 3], [1, 1, 1], 5, 1))
    a = 1 + 2 + 3 + 4
    params = plus_gtrs(gf49, [1, 2, 3, 4], [1, 1, 1, 1],
                       gf49.neg(gf49.inv(gf49.scalar(a))), 2)
    with pytest.raises(GTRSError):
        check_self_dual_criterion(params)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16])
def test_zeta_roots_count(q):
    f = field_q2(q)
    roots = zeta_roots(f)
    assert len(roots) == q
    assert all(r != 0 for r in roots)
    for r in roots:
        val = f.add(f.add(f.pow(r, q), f.pow(r, q - 1)), 1)
        assert val == 0
    # oracle: full scan of the unit group
    scan = {x for x in range(1, f.order)
            if f.add(f.add(f.pow(x, q), f.pow(x, q - 1)), 1) == 0}
    assert set(roots) == scan


def test_zeta_roots_gf4():
    f = field_q2(2)
    w = f.generator
    assert set(zeta_roots(f)) == {w, f.mul(w, w)}


def test_classify_eta(gf49):
    # a*eta + 2 = 0 holds (a = 1, eta = 1 in characteristic 3), but neither
    # locator attains the half-sum -1/eta = 2, so the [2,1,2] code is MDS
    assert classify_eta(field_q2(3), (0, 1), 1) == "MDS"
    # against exhaustive distance on a family that has an NMDS member
    res = construct_class1(gf49, 0, gf49.subfield_elements()[:6])
    labels = {}
    for eta, _lbl in res.eta_list:
        c = code(res.params(eta))
        labels[eta] = classify_eta(gf49, res.alpha, eta)
        assert labels[eta] == exhaustive_class(c)
    assert labels[3] == "NMDS"


def test_class1_zero_sum_family(gf49):
    res = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    assert res.a == 0
    etas = [e for e, _ in res.eta_list]
    assert len(etas) == 6
    # exactly the solutions of eta^6 = -1
    for e in etas:
        assert gf49.pow(e, 6) == gf49.neg(1)
    assert sorted(gf49.log[e] for e in etas) == [4, 12, 20, 28, 36, 44]
    assert all(lbl == "MDS" for _, lbl in res.eta_list)
    for eta, _lbl in res.eta_list:
        c = code(res.params(eta))
        assert c.is_hermitian_self_dual()
        assert c.min_distance() == 4


def test_class1_nonzero_sum(gf49):
    res = construct_class1(gf49, 1, gf49.subfield_elements()[:6])
    assert res.a != 0
    # the zeta-equation substitution yields q = 7 candidates before the filter
    assert len(res.eta_list) + res.filtered == 7
    labels = [lbl for _, lbl in res.eta_list]
    assert labels.count("NMDS") <= 1
    for eta, lbl in res.eta_list:
        c = code(res.params(eta))
        assert c.is_hermitian_self_dual()
        assert c.min_distance() == (3 if lbl == "NMDS" else 4)


def test_class1_u_in_subfield(gf49):
    for a_l in gf49.subfield_elements():
        res = construct_class1(gf49, a_l, gf49.subfield_elements()[:4])
        for u in u_vector(gf49, res.alpha):
            assert gf49.in_subfield(u) and u != 0


def test_class1_errors(gf49):
    sub = gf49.subfield_elements()
    with pytest.raises(ConstructionError):
        construct_class1(gf49, 0, sub[:3])            # odd length
    with pytest.raises(ConstructionError):
        construct_class1(gf49, 0, list(sub) + [1])    # repeat / too long
    with pytest.raises(ConstructionError):
        construct_class1(gf49, gf49.generator, sub[:4])  # label outside subfield
    gf16 = field_q2(4)
    with pytest.raises(ConstructionError):
        # the four elements of GF(4) sum to zero: a = 0 in characteristic 2
        construct_class1(gf16, 0, gf16.subfield_elements())


def test_class2_zero_sum_family(gf49):
    res = construct_class2(gf49, 0, 4, gf49.subfield_elements()[1:])
    assert res.a == 0
    w = gf49.generator
    beta = gf49.pow(w, 4)
    for e, lbl in res.eta_list:
        assert gf49.pow(e, 6) == gf49.neg(gf49.pow(beta, -6))
        assert lbl == "MDS"
    assert len(res.eta_list) == 6
    for eta, _lbl in res.eta_list:
        c = code(res.params(eta))
        assert c.is_hermitian_self_dual()
        assert c.min_distance() == 4


def test_class2_nonzero_sum(gf49):
    res = construct_class2(gf49, 1, 3, gf49.subfield_elements()[:6])
    for eta, lbl in res.eta_list:
        c = code(res.params(eta))
        assert c.is_hermitian_self_dual()
        assert lbl == ("MDS" if is_mds_plus(gf49, res.alpha, eta, res.k)
                       else "NMDS")


def test_class2_locators_form_shifted_line(gf49):
    res = construct_class2(gf49, 2, 5, gf49.subfield_elements()[:4])
    beta = gf49.pow(gf49.generator, 5)
    expect = [gf49.add(2, gf49.mul(beta, x)) for x in res.x_subset]
    assert list(res.alpha) == expect


def test_class2_errors(gf49):
    sub = gf49.subfield_elements()
    with pytest.raises(ConstructionError):
        construct_class2(gf49, 0, 0, sub[:4])     # m out of range
    with pytest.raises(ConstructionError):
        construct_class2(gf49, 0, 8, sub[:4])     # m > q
    # m = q is the largest admissible direction exponent
    res = construct_class2(gf49, 0, 7, sub[1:])
    beta = gf49.pow(gf49.generator, 7)
    assert all(gf49.in_subfield(gf49.div(x, beta)) for x in res.alpha)


def test_scaling_freedom(gf49):
    res = construct_class1(gf49, 1, gf49.subfield_elements()[:6])
    eta = res.eta_list[0][0]
    for c_log in (1, 9, 25):
        c = gf49.exp[c_log]
        scaled = plus_gtrs(gf49, res.alpha,
                           [gf49.mul(c, vi) for vi in res.v], eta, res.k)
        assert check_self_dual_criterion(scaled)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_sweep_soundness(q):
    results = sweep_cache(q)
    assert results
    for res in results:
        assert isinstance(res, ConstructionResult)
        for eta, lbl in res.eta_list:
            c = code(res.params(eta))
            assert c.is_hermitian_self_dual()
            assert lbl == ("MDS" if is_mds_plus(res.field, res.alpha, eta,
                                                res.k) else "NMDS")


def test_sweep_char2_class1_nonempty():
    f = field_q2(4)
    results = sweep_constructions(f, n_values=[2, 4], classes=("I",))
    assert results
    for res in results:
        assert res.a != 0
        assert all(lbl == "MDS" for _, lbl in res.eta_list)


def test_sweep_q7_contains_row1_family():
    results = sweep_cache(7)
    f = results[0].field
    hit = [r for r in results
           if r.construction == "I" and r.n == 6 and r.a == 0]
    assert hit
    etas = {e for r in hit for e, _ in r.eta_list}
    assert all(f.pow(e, 6) == f.neg(1) for e in etas)


def count_calls(monkeypatch, module, names):
    """A Counter of the calls made through each named binding of module;
    for `_polynomial_route` also of its verdicts, under "verdicts"."""
    calls = Counter()

    def counter(name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            if name == "_polynomial_route":
                calls["verdicts"] += len(args[-1])
            return real(*args)
        return counted

    for name in names:
        monkeypatch.setattr(module, name, counter(name))
    return calls


def repeated_rows(results):
    """Per result, in sweep order, the etas whose code an earlier row of the
    same sweep already had (by generator RREF)."""
    seen = set()
    out = []
    for res in results:
        out.append([])
        for eta, _ in res.eta_list:
            key = generator_matrix(res.params(eta)).row_space_key()
            if key in seen:
                out[-1].append(eta)
            seen.add(key)
    return out


def test_sweep_verifies_each_kept_code_once(gf49, monkeypatch):
    # the full criterion runs once per distinct code; the polynomial route
    # gives one verdict per row, on the row's own datum, in one call inside
    # each full criterion and one per result with a repeated code
    import gtrscodes.selfdual as selfdual
    real_route = selfdual._polynomial_route
    routed = Counter()

    def route(field, alpha, v, k, a, etas):
        routed.update((alpha, v, eta) for eta in etas)
        return real_route(field, alpha, v, k, a, etas)

    monkeypatch.setattr(selfdual, "_polynomial_route", route)
    calls = count_calls(monkeypatch, selfdual,
                        ("check_self_dual_criterion", "_polynomial_route",
                         "u_vector"))
    results = sweep_constructions(gf49)
    codes = {generator_matrix(r.params(eta)).row_space_key()
             for r in results for eta, _ in r.eta_list}
    rows = Counter((r.alpha, r.v, eta)
                   for r in results for eta, _ in r.eta_list)
    with_repeats = sum(map(bool, repeated_rows(results)))
    assert (len(codes), sum(rows.values()), with_repeats) == (36, 138, 20)
    assert calls["check_self_dual_criterion"] == len(codes)
    assert calls["_polynomial_route"] == len(codes) + with_repeats
    # one u_vector call per x subset (6) and one per route call
    assert (calls["_polynomial_route"], calls["u_vector"]) == (56, 62)
    assert calls["verdicts"] == sum(rows.values())
    assert routed == rows
    # a failed check on a kept code still stops the sweep
    monkeypatch.setattr(selfdual, "check_self_dual_criterion",
                        lambda params: False)
    with pytest.raises(InvariantError):
        sweep_constructions(gf49)


@pytest.mark.parametrize("q", [7, 8])
def test_sweep_does_x_subset_work_once_per_subset(q, monkeypatch):
    # the multipliers cost one u_vector call per distinct x subset (each
    # polynomial route call makes one more), the zeta roots one call per
    # sweep, and only the kept codes are labelled
    import gtrscodes.selfdual as selfdual
    calls = count_calls(monkeypatch, selfdual,
                        ("u_vector", "zeta_roots", "classify_eta",
                         "_polynomial_route"))
    field = field_q2(q)
    results = sweep_constructions(field)
    subsets = {x for n in range(2, min(q, 8) + 1, 2)
               for x in canonical_x_subsets(field, n)}
    rows = sum(len(r.eta_list) for r in results)
    assert calls["u_vector"] - calls["_polynomial_route"] == len(subsets)
    assert calls["zeta_roots"] <= 1
    assert calls["classify_eta"] == calls["verdicts"] == rows > 0
    assert calls["_polynomial_route"] < rows


def test_sweep_sums_the_locators_once_per_use(gf49, monkeypatch):
    # the polynomial route takes the sum it is given: a sweep sums
    # locators once per row (its label), once per full criterion and once
    # per x subset, and not again per route call
    import gtrscodes.selfdual as selfdual
    calls = count_calls(monkeypatch, selfdual,
                        ("alpha_sum", "classify_eta",
                         "check_self_dual_criterion", "_x_data"))
    sweep_constructions(gf49)
    assert (calls["classify_eta"], calls["check_self_dual_criterion"],
            calls["_x_data"]) == (138, 36, 6)
    assert calls["alpha_sum"] == 138 + 36 + 6


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
def test_sweep_labels_follow_each_rows_own_locators(q):
    # rows are labelled after deduplication, so each label must come from
    # the row's own locators, rebuilt here from its class, a_l, m and x
    # subset: the subset criterion decides, and no code is built
    results = sweep_cache(q)
    assert results
    f = results[0].field
    w = f.generator
    labels = Counter()
    for res in results:
        if res.construction == "I":
            alpha = tuple(f.add(f.mul(res.a_l, w), xi) for xi in res.x_subset)
        else:
            beta = f.pow(w, res.m)
            alpha = tuple(f.add(res.a_l, f.mul(beta, xi)) for xi in res.x_subset)
        assert res.alpha == alpha
        for eta, lbl in res.eta_list:
            assert lbl == ("MDS" if is_mds_plus(f, alpha, eta, res.k)
                           else "NMDS")
            labels[lbl] += 1
    assert labels["NMDS"] > 0 or q in (3, 4, 8)


def candidate_steps(field):
    """Every (a_l, m, x_data, step) that the sweep's candidate step accepts
    over GF(q^2), the constructions it keeps or not."""
    q = field.q
    sub = field.subfield_elements()
    zinv = _zeta_inverses(field)
    for n in range(2, min(q, 8) + 1, 2):
        for x in canonical_x_subsets(field, n):
            x_data = _x_data(field, x)
            for a_l in sub:
                for m in [None, *range(1, q + 1)]:
                    try:
                        cand = _candidates(
                            field, _step_head(field, a_l, m, x_data), zinv)
                    except ConstructionError:
                        continue
                    yield a_l, m, x_data, cand


def built_constructions(field):
    """Every finished result of an accepted candidate step, kept or not,
    verified as a sweep verifies: one full criterion per distinct code."""
    memo, verified = {}, set()
    for a_l, m, x_data, cand in candidate_steps(field):
        yield _finished(field, a_l, m, x_data, cand,
                        _code_keys(field, x_data, cand, memo), verified)


def sigma(field, cand, k, inv_eta):
    """The key value (eta^-1 + k*c) / beta of one candidate of the step
    `cand` on the coset c + beta * GF(q)."""
    c, beta = cand[:2]
    kc = field.mul(field.scalar(k), c)
    return field.div(field.add(inv_eta, kc), beta)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_row_space_keys_match_generator_rref(q):
    # one memo for every accepted step, as in a sweep: most keys then come
    # from another construction's code, so this checks the plain-form key
    # against the oracle (q = 4 and q = 8 add by XOR); the sweep shares a
    # Gram verdict by key, so each eta's key must be its own
    f = field_q2(q)
    memo, verified = {}, set()
    zero = Counter()
    per_x = {}
    for a_l, m, x_data, cand in candidate_steps(f):
        keys = _code_keys(f, x_data, cand, memo)
        res = _finished(f, a_l, m, x_data, cand, keys, verified)
        c, beta = cand[:2]
        assert res.a == functools.reduce(f.add, res.alpha, 0)
        kc = f.mul(f.scalar(res.k), c)
        for (eta, _), inv_eta, key in zip(res.eta_list, cand[3], keys,
                                          strict=True):
            assert f.mul(eta, inv_eta) == 1
            g = generator_matrix(res.params(eta))
            red, rank, _ = reference_rref(f, g.data, g.cols)
            s = sigma(f, cand, res.k, inv_eta)
            assert memo[(res.x_subset, s)] == key == red[:rank]
            denom = f.add(1, f.mul(kc, eta))
            assert (s == 0) == (denom == 0)
            if denom:
                # the inverse of the plain twist beta*eta / (1 + k*c*eta)
                assert f.mul(s, f.div(f.mul(beta, eta), denom)) == 1
            zero[s == 0] += 1
            per_x.setdefault(res.x_subset, set()).add((s, key))
    # both cases occur for odd q; the characteristic-2 grids reach no
    # sigma = 0 candidate
    assert zero[False] > 0 and (zero[True] > 0) == (q % 2 == 1)
    assert len(memo) == sum(map(len, per_x.values()))
    # on one x subset sigma names the code: equal sigma exactly when equal
    # RREF
    for pairs in per_x.values():
        assert len({s for s, _ in pairs}) == len({k for _, k in pairs}) \
            == len(pairs)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_step_key_names_the_sigma_set(q):
    # the premise of the key, read from the listed candidates alone: every
    # sigma of one x subset lies on the line Tr(sigma) = -sum(x); a step
    # with B != 0 fills it and drops no candidate, and a step with B = 0
    # lacks exactly k*c/beta and (k*c - a)/beta and drops one candidate
    # exactly when a != 0. Then every step with candidates gets a key, and
    # on one x subset two steps share it exactly when their sets of sigma
    # are equal
    f = field_q2(q)
    per_x, lines = {}, {}
    steps = 0
    for a_l, m, x_data, cand in candidate_steps(f):
        x, _, sum_x = x_data
        head = _step_head(f, a_l, m, x_data)
        c, beta, a, big_b = head
        k = len(x) // 2
        sigmas = frozenset(sigma(f, cand, k, inv_eta) for inv_eta in cand[3])
        assert len(sigmas) == len(cand[3]) > 0
        if x not in lines:
            lines[x] = frozenset(
                y for y in range(f.order)
                if f.add(y, f.frobenius(y)) == f.neg(sum_x))
            assert len(lines[x]) == q
        assert sigmas <= lines[x]
        if big_b:
            assert (sigmas, cand[4]) == (lines[x], 0)
        else:
            kc = f.mul(f.scalar(k), c)
            gone = {f.div(kc, beta), f.div(f.sub(kc, a), beta)}
            assert gone <= lines[x]
            assert (sigmas, cand[4]) == (lines[x] - gone, int(a != 0))
        key = _step_key(f, len(x), head)
        per_x.setdefault(x, set()).add((key, sigmas))
        steps += 1
    for pairs in per_x.values():
        assert len({key for key, _ in pairs}) == len(pairs) \
            == len({sigmas for _, sigmas in pairs})
    # keys are shared, and for q > 2 one x subset has several
    assert steps > sum(map(len, per_x.values()))
    assert max(map(len, per_x.values())) > (q > 2)


def test_sweep_lists_candidates_once_per_sigma_set(monkeypatch):
    # one pass of q = 3..13: every step is keyed, 180 list their candidates
    # (one per distinct x subset and sigma set), and the later work is as
    # before: one key generator per plain form, one criterion (and with it
    # one generator) per distinct code, one route verdict per row
    import gtrscodes.gtrs as gtrs
    import gtrscodes.selfdual as selfdual
    built = count_calls(monkeypatch, gtrs, ("generator_matrix",))
    calls = count_calls(monkeypatch, selfdual,
                        ("_step_key", "_candidates", "_code_keys",
                         "generator_matrix", "_finished",
                         "check_self_dual_criterion", "_polynomial_route",
                         "classify_eta"))
    rows = sum(len(r.eta_list) for q in (3, 5, 7, 9, 11, 13)
               for r in sweep_constructions(field_q2(q)))
    assert (calls["_step_key"], calls["_candidates"], calls["_code_keys"]) \
        == (3712, 180, 180)
    assert (calls["generator_matrix"], built["generator_matrix"]) \
        == (332, 285)
    assert (calls["_finished"], calls["check_self_dual_criterion"],
            calls["_polynomial_route"]) == (157, 285, 412)
    assert rows == calls["classify_eta"] == calls["verdicts"] == 1337


def test_sweep_builds_one_generator_per_kept_code(gf49, monkeypatch):
    # one generator per distinct plain form (x subset, sigma) for the key,
    # plus one per distinct code for the full criterion, which makes its
    # code through gtrs.code
    import gtrscodes.gtrs as gtrs
    import gtrscodes.selfdual as selfdual
    plain = {(x_data[0], sigma(gf49, cand, len(x_data[0]) // 2, inv_eta))
             for _, _, x_data, cand in candidate_steps(gf49)
             for inv_eta in cand[3]}
    calls = []

    def counted(params):
        calls.append(params)
        return generator_matrix(params)

    monkeypatch.setattr(gtrs, "generator_matrix", counted)
    monkeypatch.setattr(selfdual, "generator_matrix", counted)
    results = sweep_constructions(gf49)
    monkeypatch.undo()
    codes = {generator_matrix(r.params(eta)).row_space_key()
             for r in results for eta, _ in r.eta_list}
    assert (len(codes), len(plain)) == (36, 42)
    assert len(calls) == len(codes) + len(plain)


@pytest.mark.parametrize("q, steps, accepted, kept", [(7, 336, 336, 25),
                                                       (8, 504, 428, 17)])
def test_sweep_and_construct_agree(q, steps, accepted, kept, monkeypatch):
    # the sweep and construct_class1/2 share the candidate step and the
    # builder: every swept result is the one construct gives for its own
    # (a_l, m, x subset); every accepted step is keyed, candidates are listed
    # only for a new key, and only the kept steps are materialized
    import gtrscodes.selfdual as selfdual
    f = field_q2(q)
    calls = count_calls(monkeypatch, selfdual,
                        ("_step_head", "_step_key", "_candidates", "_finished"))
    results = sweep_constructions(f)
    monkeypatch.undo()
    listed = {7: 25, 8: 22}[q]
    assert (calls["_step_head"], calls["_step_key"], calls["_candidates"],
            calls["_finished"]) == (steps, accepted, listed, kept)
    assert len(results) == kept
    # the sweep's grid: steps that raise nothing
    assert sum(1 for _ in candidate_steps(f)) == accepted
    for res in results:
        if res.m is None:
            built = construct_class1(f, res.a_l, res.x_subset)
        else:
            built = construct_class2(f, res.a_l, res.m, res.x_subset)
        assert built.to_dict() == res.to_dict()
        assert built.filtered == res.filtered


def test_sweep_checks_a_repeated_code_on_its_own_datum(gf49, monkeypatch):
    # a row whose code was verified before takes the stored Gram verdict,
    # but its own polynomial verdict is still read: one repeated row whose
    # verdict disagrees, the first or the last, stops the sweep
    import gtrscodes.selfdual as selfdual
    real_criterion = selfdual.check_self_dual_criterion
    real_route = selfdual._polynomial_route
    full = []

    def criterion(params):
        full.append(params)
        try:
            return real_criterion(params)
        finally:
            full.pop()

    monkeypatch.setattr(selfdual, "check_self_dual_criterion", criterion)
    repeated = sum(map(len, repeated_rows(sweep_constructions(gf49))))
    assert repeated == 138 - 36
    for target in (0, repeated - 1):
        given = []

        def route(field, alpha, v, k, a, etas):
            verdicts = real_route(field, alpha, v, k, a, etas)
            if full:
                return verdicts
            out = [ok != (len(given) + i == target)
                   for i, ok in enumerate(verdicts)]
            given.extend(verdicts)
            return out

        monkeypatch.setattr(selfdual, "_polynomial_route", route)
        with pytest.raises(InvariantError, match="disagree"):
            sweep_constructions(gf49)
        assert target < len(given) and all(given)


def test_construct_runs_the_full_criterion_on_every_eta(gf49, monkeypatch):
    # no verdict is shared between the etas of one construction, nor
    # between calls: each eta runs the criterion, and with it one polynomial
    # route call on that eta alone
    import gtrscodes.selfdual as selfdual
    calls = count_calls(monkeypatch, selfdual,
                        ("check_self_dual_criterion", "_polynomial_route"))
    listed = 0
    for build in (lambda: construct_class1(gf49, 1, [0, 1, 2, 3]),
                  lambda: construct_class2(gf49, 0, 2, [1, 2, 3, 4, 5, 6])):
        for _ in range(2):
            listed += len(build().eta_list)
    assert (calls["check_self_dual_criterion"], calls["_polynomial_route"],
            calls["verdicts"]) == (listed,) * 3
    assert listed > 4


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_polynomial_route_matches_the_oracle_on_swept_data(q):
    # every eta of every construction the sweep builds, kept or not
    checked = 0
    for res in built_constructions(field_q2(q)):
        etas = [eta for eta, _ in res.eta_list]
        assert (_polynomial_route(res.field, res.alpha, res.v, res.k, res.a,
                                  etas)
                == [poly_route_oracle(res.params(eta)) for eta in etas])
        checked += len(etas)
    assert checked > 0


def random_route_data(field, rng):
    """Seeded single-twist data with n = 2k: locators on a random line
    c + beta * x over a subfield subset x, with the multipliers of the
    construction times norm-1 scalars, or fully random locators and
    multipliers; each with every eta the route accepts."""
    q = field.q
    sub = field.subfield_elements()
    circle = field.power_roots(q + 1, 1)
    for trial in range(24):
        n = rng.randrange(2, min(q, 8) + 1, 2)
        if trial % 2:
            alpha = rng.sample(range(field.order), n)
            v = [rng.randrange(1, field.order) for _ in alpha]
        else:
            x = rng.sample(sub, n)
            c, beta = rng.randrange(field.order), rng.randrange(1, field.order)
            alpha = [field.add(c, field.mul(beta, xi)) for xi in x]
            v = [field.mul(field.solve_norm(ui), rng.choice(circle))
                 for ui in u_vector(field, x)]
        a = functools.reduce(field.add, alpha, 0)
        etas = [eta for eta in range(1, field.order)
                if field.add(1, field.mul(a, eta))]
        yield alpha, v, n // 2, a, etas


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_polynomial_route_matches_the_oracle_on_random_data(q):
    field = field_q2(q)
    verdicts = Counter()
    for alpha, v, k, a, etas in random_route_data(field, random.Random(q)):
        got = _polynomial_route(field, alpha, v, k, a, etas)
        assert got == [poly_route_oracle(plus_gtrs(field, alpha, v, eta, k))
                       for eta in etas]
        verdicts.update(got)
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_polynomial_route_gives_each_listed_eta_its_own_verdict(gf49):
    # one call on a list of etas, a repeated one among them, answers as one
    # call per eta, in the same order
    res = construct_class1(gf49, 1, [0, 1, 2, 3])
    good = [eta for eta, _ in res.eta_list]
    a = res.a
    bad = [eta for eta in (1, 5, 17) if gf49.add(1, gf49.mul(a, eta))]
    etas = [good[0], *bad, good[-1], bad[0], good[0]]
    single = [_polynomial_route(gf49, res.alpha, res.v, res.k, a, [eta])[0]
              for eta in etas]
    assert _polynomial_route(gf49, res.alpha, res.v, res.k, a, etas) == single
    assert single == [poly_route_oracle(res.params(eta)) for eta in etas]
    assert True in single and False in single


def test_sweep_refuses_an_unknown_class_without_lengths():
    for lengths in ([], [2]):
        with pytest.raises(ConstructionError, match="unknown class 'III'"):
            sweep_constructions(field_q2(3), lengths, classes=("III",))


def test_sweep_refuses_a_bad_length_before_building(gf49, monkeypatch):
    import gtrscodes.selfdual as selfdual
    calls = count_calls(monkeypatch, selfdual,
                        ("_step_head", "_candidates", "_finished"))
    for lengths in ([4, 5], [5]):
        with pytest.raises(ConstructionError, match="invalid sweep length 5"):
            sweep_constructions(gf49, lengths)
    assert calls["_step_head"] == calls["_candidates"] == \
        calls["_finished"] == 0


def test_sweep_builds_a_repeated_length_once(gf49, monkeypatch):
    # every value is still checked: a bad length among repeats is refused;
    # each of the 112 steps is keyed once, and 8 list their candidates
    import gtrscodes.selfdual as selfdual
    calls = count_calls(monkeypatch, selfdual, ("_step_key", "_candidates"))
    once = sweep_constructions(gf49, [4])
    assert (calls["_step_key"], calls["_candidates"]) == (112, 8)
    twice = sweep_constructions(gf49, [4, 4])
    assert (calls["_step_key"], calls["_candidates"]) == (224, 16)
    assert [r.to_dict() for r in twice] == [r.to_dict() for r in once]
    with pytest.raises(ConstructionError, match="invalid sweep length 5"):
        sweep_constructions(gf49, [4, 4, 5])


def plain_code(field, res, eta):
    """The single-twist code on the x subset that the code of eta equals:
    rows v*x^j (j < k-1) and v*(x^(k-1) + eta'*x^k) with eta' = beta*eta /
    (1 + k*c*eta), or v*x^k when that denominator is 0. Returns the code
    and whether the denominator was 0."""
    w = field.generator
    c, beta = ((field.mul(res.a_l, w), 1) if res.m is None
               else (res.a_l, field.pow(w, res.m)))
    k = res.k
    denom = field.add(1, field.mul(field.mul(field.scalar(k), c), eta))
    rows = [[field.mul(vi, field.pow(xi, j))
             for xi, vi in zip(res.x_subset, res.v)] for j in range(k - 1)]
    if denom:
        tw = field.div(field.mul(beta, eta), denom)
        last = [field.add(field.pow(xi, k - 1), field.mul(tw, field.pow(xi, k)))
                for xi in res.x_subset]
    else:
        last = [field.pow(xi, k) for xi in res.x_subset]
    rows.append([field.mul(vi, y) for vi, y in zip(res.v, last)])
    return LinearCode(Matrix(field, rows, cols=res.n)), denom == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_swept_codes_are_plain_twists_on_x(data):
    q = data.draw(st.sampled_from([3, 4, 5, 7, 8, 9]), label="q")
    f = field_q2(q)
    sub = f.subfield_elements()
    n = data.draw(st.sampled_from(range(2, q + 1, 2)), label="n")
    x = data.draw(st.permutations(sub), label="order")[:n]
    a_l = data.draw(st.sampled_from(sub), label="a_l")
    m = data.draw(st.sampled_from([None, *range(1, q + 1)]), label="m")
    x_data = _x_data(f, x)
    try:
        cand = _candidates(f, _step_head(f, a_l, m, x_data),
                           _zeta_inverses(f))
    except ConstructionError:
        reject()
    res = _finished(f, a_l, m, x_data, cand, range(len(cand[3])), set())
    assert res.v == tuple(f.solve_norm(u) for u in u_vector(f, x))
    for eta, _ in res.eta_list:
        plain, zero = plain_code(f, res, eta)
        if zero:
            event("x^k row")
        assert code(res.params(eta)).equals(plain)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_plain_twist_x_k_row(q):
    # 1 + k*c*eta = 0 leaves the last row v*x^k
    f = field_q2(q)
    hits = 0
    for res in built_constructions(f):
        for eta, _ in res.eta_list:
            plain, zero = plain_code(f, res, eta)
            if zero:
                assert code(res.params(eta)).equals(plain)
                hits += 1
    assert hits > 0


def test_serialization(gf49):
    res = construct_class1(gf49, 0, gf49.subfield_elements()[1:])
    d = res.to_dict()
    assert d["class"] == "I" and d["q"] == 7 and d["n"] == 6
    assert len(d["eta_list"]) == 6
    assert all(item["class"] == "MDS" for item in d["eta_list"])
