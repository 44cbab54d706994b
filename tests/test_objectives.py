import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcontrast import tensor as T
from groupcontrast.gradcheck import finite_difference_check
from groupcontrast.objectives import (LossBreakdown, club_param_penalty,
                                      combine_terms, init_varnet_params,
                                      interspace_penalty_nonparam, js_mi_loss,
                                      js_terms, js_terms_nodewise,
                                      total_loss_nonparam, total_loss_param,
                                      varnet_likelihood_loss)
from groupcontrast.seeding import stream_rng
from groupcontrast.tensor import ContractError, Tape, Tensor, backward


def sp(x):
    return np.logaddexp(0.0, x)


def unit_rows(rng, b, d):
    x = rng.standard_normal((b, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_groups(seed, b, p, d):
    rng = np.random.default_rng(seed)
    return [Tensor(unit_rows(rng, b, d)) for _ in range(p)]


def test_js_loss_zero_scores_closed_form():
    # zero embeddings give every discriminator score 0, so both halves
    # contribute SP(0) = ln 2
    zeros = [Tensor(np.zeros((3, 4))) for _ in range(2)]
    loss = js_mi_loss(zeros, [Tensor(np.zeros((3, 4))) for _ in range(2)])
    assert loss.item() == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_js_terms_perfect_alignment_direction():
    # identical orthogonal unit rows: positives score 1, negatives 0
    b, d = 3, 4
    eye_rows = np.eye(d)[:b]
    groups = [Tensor(eye_rows)]
    pos, neg = js_terms(groups, [Tensor(eye_rows.copy())])
    assert pos.item() == pytest.approx(sp(-1.0), abs=1e-12)
    assert neg.item() == pytest.approx(sp(0.0), abs=1e-12)


def test_js_matches_bruteforce_enumeration():
    b, p, d = 4, 3, 5
    u = random_groups(10, b, p, d)
    r = random_groups(11, b, p, d)
    loss = js_mi_loss(u, r).item()

    total_pos = 0.0
    total_neg = 0.0
    for k in range(p):
        for i in range(b):
            total_pos += sp(-float(u[k].values[i] @ r[k].values[i]))
            for j in range(b):
                if j != i:
                    total_neg += sp(float(u[k].values[i] @ r[k].values[j]))
    ref = total_pos / (p * b) + total_neg / (p * b * (b - 1))
    assert loss == pytest.approx(ref, abs=1e-12)


def test_js_symmetric_under_batch_permutation():
    b, p, d = 5, 2, 4
    u = random_groups(12, b, p, d)
    r = random_groups(13, b, p, d)
    perm = np.random.default_rng(14).permutation(b)
    u2 = [Tensor(g.values[perm]) for g in u]
    r2 = [Tensor(g.values[perm]) for g in r]
    assert js_mi_loss(u, r).item() == pytest.approx(
        js_mi_loss(u2, r2).item(), abs=1e-12)


def test_js_monotonic_in_positive_score():
    u = random_groups(15, 3, 1, 4)
    r = random_groups(16, 3, 1, 4)
    # align one positive pair; the positive half of the loss must drop
    bumped = u[0].values.copy()
    bumped[0] = r[0].values[0]
    assert float(u[0].values[0] @ r[0].values[0]) < 1.0
    p0, _ = js_terms(u, r)
    p1, _ = js_terms([Tensor(bumped)], r)
    assert p1.item() < p0.item()


def test_js_requires_two_graphs():
    g = [Tensor(np.ones((1, 3)))]
    with pytest.raises(ContractError):
        js_terms(g, [Tensor(np.ones((1, 3)))])


def test_js_group_count_mismatch():
    with pytest.raises(ContractError):
        js_terms(random_groups(0, 3, 2, 4), random_groups(1, 3, 3, 4))


def test_group_width_mismatch_rejected_by_every_loss():
    # widths 2 + 1 + 3 add up to p * d = 6, so a plain reshape would pass
    rng = np.random.default_rng(5)
    ragged = [Tensor(unit_rows(rng, 3, w)) for w in (2, 1, 3)]
    var_params = init_varnet_params(stream_rng(5, "init"), 2)
    nodes = Tensor(unit_rows(rng, 6, 2))
    with pytest.raises(ContractError):
        js_terms(ragged, ragged)
    with pytest.raises(ContractError):
        js_terms_nodewise(ragged, nodes, np.repeat(np.arange(3), 2))
    with pytest.raises(ContractError):
        interspace_penalty_nonparam(ragged)
    with pytest.raises(ContractError):
        club_param_penalty(ragged, var_params)
    with pytest.raises(ContractError):
        varnet_likelihood_loss(ragged, var_params)


def test_nodewise_js_matches_bruteforce():
    rng = np.random.default_rng(17)
    b, p, d = 3, 2, 4
    owner = np.array([0, 0, 1, 1, 1, 2])
    n = 6
    u = random_groups(18, b, p, d)
    r_nodes = Tensor(unit_rows(rng, n, d))
    pos, neg = js_terms_nodewise(u, r_nodes, owner)

    tp, tn, n_pos, n_neg = 0.0, 0.0, 0, 0
    for k in range(p):
        for g in range(b):
            for v in range(n):
                s = float(u[k].values[g] @ r_nodes.values[v])
                if owner[v] == g:
                    tp += sp(-s)
                    n_pos += 1
                else:
                    tn += sp(s)
                    n_neg += 1
    assert pos.item() == pytest.approx(tp / n_pos, abs=1e-12)
    assert neg.item() == pytest.approx(tn / n_neg, abs=1e-12)


@given(b=st.integers(2, 9), p=st.integers(1, 4), d=st.integers(1, 6),
       seed=st.integers(0, 2**16))
def test_js_terms_agree_with_nodewise_on_one_node_per_graph(b, p, d, seed):
    # with each view-r group equal to one node per graph, the cross-view and
    # the node-wise terms score the same pairs: values and gradients agree
    rng = np.random.default_rng(seed)
    u_values = [rng.standard_normal((b, d)) for _ in range(p)]
    r_values = rng.standard_normal((b, d))
    results = []
    for nodewise in (False, True):
        tape = Tape()
        u = [tape.leaf(v) for v in u_values]
        r = tape.leaf(r_values)
        pos, neg = (js_terms_nodewise(u, r, np.arange(b)) if nodewise
                    else js_terms(u, [r] * p))
        grads = backward(tape, T.add(pos, neg))
        results.append((pos.item(), neg.item(),
                        [grads[leaf.node_id] for leaf in u + [r]]))
    (pos_a, neg_a, grads_a), (pos_b, neg_b, grads_b) = results
    assert abs(pos_a - pos_b) <= 1e-12 and abs(neg_a - neg_b) <= 1e-12
    for ga, gb in zip(grads_a, grads_b):
        np.testing.assert_allclose(ga, gb, rtol=0, atol=1e-12)


def test_nodewise_js_gradients_pass_oracle():
    # GroupIG's training loss, gradients to both the groups and the nodes
    rng = np.random.default_rng(34)
    b, p, d = 3, 3, 4
    owner = np.array([0, 0, 1, 1, 1, 2, 2])
    params = {f"u{k}": rng.standard_normal((b, d)) for k in range(p)}
    params["r"] = rng.standard_normal((7, d))

    def fn(leaves):
        pos, neg = js_terms_nodewise([leaves[f"u{k}"] for k in range(p)],
                                     leaves["r"], owner)
        return T.add(pos, neg)

    assert finite_difference_check(fn, params) <= 1e-4


def test_nodewise_js_step_allocation_budget():
    # one forward and backward at the groupig-param benchmark's shape (128
    # graphs of 14 nodes, 4 groups, width 40): the (B*p, N) score block is
    # 7.3 MB. The scores, the softplus output and its stored logistic must be
    # live at once; a fresh temporary per elementwise step, as the plain
    # expressions make, pushes the peak past 4 blocks
    b, p, nodes_per_graph, d = 128, 4, 14, 40
    n = b * nodes_per_graph
    block = b * p * n * 8
    rng = np.random.default_rng(0)
    u_values = [unit_rows(rng, b, d) for _ in range(p)]
    r_values = unit_rows(rng, n, d)
    owner = np.repeat(np.arange(b), nodes_per_graph)

    def forward_backward():
        tape = Tape()
        u = [tape.leaf(v) for v in u_values]
        pos, neg = js_terms_nodewise(u, tape.leaf(r_values), owner)
        backward(tape, T.add(pos, neg))

    forward_backward()          # first-call set-up stays out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        forward_backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * block, f"peak {peak / block:.2f} blocks"


def test_interspace_identical_groups_closed_form():
    # identical unit rows: every cross-group dot is 1, SP(1) = ln(1 + e)
    rows = unit_rows(np.random.default_rng(19), 4, 5)
    groups = [Tensor(rows.copy()) for _ in range(3)]
    val = interspace_penalty_nonparam(groups).item()
    assert val == pytest.approx(np.log(1.0 + np.e), abs=1e-12)


def test_interspace_matches_bruteforce():
    b, p, d = 4, 3, 5
    groups = random_groups(20, b, p, d)
    val = interspace_penalty_nonparam(groups).item()
    total, pairs = 0.0, 0
    for k in range(p):
        for l in range(k + 1, p):
            for i in range(b):
                total += sp(float(groups[k].values[i] @ groups[l].values[i]))
            pairs += 1
    assert val == pytest.approx(total / (pairs * b), abs=1e-12)


def test_interspace_invariant_under_group_permutation():
    groups = random_groups(21, 3, 4, 5)
    shuffled = [groups[i] for i in (2, 0, 3, 1)]
    assert interspace_penalty_nonparam(groups).item() == pytest.approx(
        interspace_penalty_nonparam(shuffled).item(), abs=1e-12)


def test_interspace_monotonic_in_cross_group_score():
    groups = random_groups(22, 3, 2, 5)
    base = interspace_penalty_nonparam(groups).item()
    aligned = [groups[0], Tensor(groups[0].values.copy())]
    assert interspace_penalty_nonparam(aligned).item() > base or \
        np.allclose(groups[0].values, groups[1].values)


def test_interspace_single_group_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        val = interspace_penalty_nonparam(random_groups(23, 3, 1, 4))
    assert val.item() == 0.0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_club_penalty_matches_bruteforce(p):
    b, d = 4, 5
    groups = random_groups(35 + p, b, p, d)
    var_params = init_varnet_params(stream_rng(35, "init"), d)

    def net(x, name):
        w = {k.split(".")[-1]: v for k, v in var_params.items()
             if k.startswith(f"var.{name}.")}
        return np.maximum(x @ w["w1"] + w["b1"], 0.0) @ w["w2"] + w["b2"]

    total, pairs = 0.0, 0
    for k in range(p):
        mu = net(groups[k].values, "mu")
        lv = net(groups[k].values, "lv")
        for l in range(p):
            if l != k:
                total += (-lv - (groups[l].values - mu) ** 2 / np.exp(lv)).sum()
                pairs += 1
    val = club_param_penalty(groups, var_params).item()
    assert val == pytest.approx(total / (pairs * b), abs=1e-12)


def test_club_penalty_only_reaches_embeddings():
    groups_np = [unit_rows(np.random.default_rng(24 + k), 3, 4)
                 for k in range(2)]
    var_params = init_varnet_params(stream_rng(24, "init"), 4)
    tape = Tape()
    emb_leaves = [tape.leaf(g) for g in groups_np]
    var_leaves = {k: tape.leaf(v) for k, v in var_params.items()}
    loss = club_param_penalty(emb_leaves, var_leaves)
    grads = backward(tape, loss)
    assert any(np.abs(grads[l.node_id]).max() > 0 for l in emb_leaves)
    for leaf in var_leaves.values():
        assert np.allclose(grads[leaf.node_id], 0.0)


def test_varnet_loss_only_reaches_varnets():
    groups_np = [unit_rows(np.random.default_rng(26 + k), 3, 4)
                 for k in range(2)]
    var_params = init_varnet_params(stream_rng(26, "init"), 4)
    tape = Tape()
    emb_leaves = [tape.leaf(g) for g in groups_np]
    var_leaves = {k: tape.leaf(v) for k, v in var_params.items()}
    loss = varnet_likelihood_loss(emb_leaves, var_leaves)
    grads = backward(tape, loss)
    for leaf in emb_leaves:
        assert np.allclose(grads[leaf.node_id], 0.0)
    total = sum(np.abs(grads[l.node_id]).sum() for l in var_leaves.values())
    assert total > 0


def test_varnet_loss_is_negated_club_expression():
    groups = random_groups(27, 3, 2, 4)
    var_params = init_varnet_params(stream_rng(27, "init"), 4)
    penalty = club_param_penalty(groups, var_params).item()
    nll = varnet_likelihood_loss(groups, var_params).item()
    assert nll == pytest.approx(-penalty, abs=1e-12)


def test_club_requires_two_groups():
    var_params = init_varnet_params(stream_rng(28, "init"), 4)
    with pytest.raises(ContractError):
        club_param_penalty(random_groups(28, 3, 1, 4), var_params)


def test_combine_terms_and_breakdown_identity():
    pos, neg, inter = Tensor(0.4), Tensor(0.3), Tensor(0.2)
    total, bd = combine_terms(pos, neg, inter, 0.5)
    assert total.item() == pytest.approx(0.4 + 0.3 + 0.5 * 0.2, abs=1e-12)
    assert bd.total == total.item()
    with pytest.raises(ContractError):
        combine_terms(pos, neg, inter, -0.1)
    with pytest.raises(ContractError):
        LossBreakdown(0.4, 0.3, 0.2, 0.5, 999.0)


def test_total_losses_run_and_sum():
    u = random_groups(29, 4, 3, 5)
    r = random_groups(30, 4, 3, 5)
    total, bd = total_loss_nonparam(u, r, 0.5)
    assert total.item() == pytest.approx(
        bd.intra_positive + bd.intra_negative + 0.5 * bd.inter_penalty, abs=1e-12)
    var_params = init_varnet_params(stream_rng(31, "init"), 5)
    total_p, bd_p = total_loss_param(u, r, 0.5, var_params)
    assert np.isfinite(total_p.item())
    assert bd_p.intra_positive == pytest.approx(bd.intra_positive, abs=1e-12)


def test_club_derivation_constant():
    # for L2-normalized vectors and unit variance the exact Gaussian
    # log-density differs from the dot-product form by a fixed constant
    rng = np.random.default_rng(32)
    d = 40
    diffs = []
    for _ in range(1000):
        a = unit_rows(rng, 1, d)[0]
        b = unit_rows(rng, 1, d)[0]
        log_density = -d / 2.0 * np.log(2.0 * np.pi) - ((b - a) ** 2).sum() / 2.0
        diffs.append(log_density - (float(a @ b) - 1.0))
    assert np.std(diffs) < 1e-9


def test_loss_gradients_pass_oracle():
    b, p, d = 3, 3, 5
    rng = np.random.default_rng(33)
    params = {f"u{k}": rng.standard_normal((b, d)) for k in range(p)}
    params.update({f"r{k}": rng.standard_normal((b, d)) for k in range(p)})

    def fn(leaves):
        u = [leaves[f"u{k}"] for k in range(p)]
        r = [leaves[f"r{k}"] for k in range(p)]
        total, _ = total_loss_nonparam(u, r, 0.5)
        return total

    assert finite_difference_check(fn, params) <= 1e-4
