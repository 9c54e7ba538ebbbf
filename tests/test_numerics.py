import decimal
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hybridstream import (baseline, dhbm, dhda, estimators, numerics,
                         recognition)
from hybridstream.numerics import (add_product, check_type, cut_masks,
                                   make_rng, one_hot, sigmoid,
                                   sigmoid_prime_from_output, softmax,
                                   weighted_rows)
from test_dhda import corrupted_forward


def test_sigmoid_symmetry():
    v = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(v) + sigmoid(-v), 1.0, atol=1e-12)


def test_sigmoid_extremes_no_overflow():
    s = sigmoid(np.array([-745.0, 745.0, 0.0]))
    assert s[0] >= 0.0 and s[1] <= 1.0 and s[2] == 0.5


def masked_sigmoid(v):
    """The sign-masked sigmoid, exp() only on -|v|, that the clamped one
    replaced: the oracle, within the agreement of
    assert_matches_masked_oracle."""
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def assert_matches_masked_oracle(got, v):
    """`got` agrees with masked_sigmoid(v) by input range: the same bits for
    v >= 0 (signed zeros and +inf included); within 5 ulp for -709 <= v < 0,
    where each form lies within about 2.5 ulp of the exact value; within
    1.3e-308 below -709 (-inf included), where the clamped form stops at
    1 / (1 + e**709), about 1.2e-308, and the oracle falls to 0; NaN for
    NaN."""
    want = masked_sigmoid(v)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(v))
    pos, mid, low = v >= 0, (v >= -709.0) & (v < 0), v < -709.0
    assert_same_bits(got[pos], want[pos])
    # both sides are positive there, so their int64 views count ulps
    ulps = np.abs(got[mid].view(np.int64) - want[mid].view(np.int64))
    assert (ulps <= 5).all(), ulps.max()
    assert (np.abs(got[low] - want[low]) <= 1.3e-308).all()


@pytest.mark.parametrize("shape", [(1,), (7,), (20, 24), (10, 784)])
def test_sigmoid_bits_match_masked_oracle(shape):
    v = make_rng(sum(shape) + 1).normal(0.0, 8.0, shape)
    assert_matches_masked_oracle(sigmoid(v), v)
    # written into a given array, or into v itself, with the bits of the
    # returned array
    want = sigmoid(v)
    out = np.empty_like(v)
    assert sigmoid(v, out=out) is out
    assert_same_bits(out, want)
    w = v.copy()
    assert sigmoid(w, out=w) is w
    assert_same_bits(w, want)
    # strided and transposed inputs take the same per-element expressions
    if v.ndim == 2:
        assert_same_bits(sigmoid(v.T), want.T)
        assert_same_bits(sigmoid(v[:, ::3]), want[:, ::3])


def test_sigmoid_bits_match_masked_oracle_at_extremes():
    # either side of the clamp at -709 and of exp's overflow at about 709.78
    v = np.array([0.0, -0.0, 708.0, -708.0, 709.0, -709.0, -709.5, 745.0,
                  -745.0, 800.0, -800.0, -1e308, np.inf, -np.inf])
    assert_matches_masked_oracle(sigmoid(v), v)
    for i in range(len(v)):
        assert_matches_masked_oracle(sigmoid(v[i:i + 1]), v[i:i + 1])
    floor = 1.0 / (1.0 + math.exp(709.0))
    assert (sigmoid(v[v <= -709.0]) == floor).all()
    assert 1.2e-308 < floor < 1.3e-308


def test_sigmoid_within_4_ulp_of_a_decimal_reference():
    # each point's exact sigmoid to 40 digits, from the float as it is
    v = make_rng(11).uniform(-709.0, 40.0, 4000)
    one = decimal.Decimal(1)
    with decimal.localcontext(prec=40):
        for vi, got in zip(v.tolist(), sigmoid(v).tolist()):
            exact = one / (one + (-decimal.Decimal(vi)).exp())
            error = abs(decimal.Decimal(got) - exact)
            assert error <= 4 * decimal.Decimal(math.ulp(float(exact))), vi


def wrapper_softmax(v):
    """The softmax that called np.max/np.sum and divided out of place: the
    oracle of the in-place form."""
    shifted = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


# signed zeros, infinities, exp's overflow edge and subnormals
EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, 750.0, -750.0, 5e-324, -5e-324,
               2.2e-308, -1e-310]
FLOATS = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats(allow_nan=False, allow_infinity=True))
SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, max_side=12)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, SHAPES, elements=FLOATS))
def test_sigmoid_bits_match_masked_oracle_at_any_value(v):
    got = sigmoid(v)
    assert_matches_masked_oracle(got, v)
    w = v.copy()
    assert_same_bits(sigmoid(w, out=w), got)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, SHAPES, elements=FLOATS), st.booleans())
def test_softmax_bits_match_wrapper_oracle(v, equal_rows):
    if equal_rows:
        # every row holds one value repeated: exp(0) / n per entry
        v = np.repeat(v[..., :1], v.shape[-1], axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = softmax(v), wrapper_softmax(v)
    assert_same_bits(got, want)


def test_sigmoid_nan_propagates():
    assert np.isnan(sigmoid(np.array([np.nan]))[0])
    out = sigmoid(np.array([np.nan, 1.0]))
    assert np.isnan(out[0]) and out[1] == masked_sigmoid(np.array([1.0]))[0]


def test_softmax_rows_sum_to_one():
    rng = make_rng(0)
    v = rng.normal(0, 5, (4, 7))
    p = softmax(v)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()


def test_softmax_shift_invariance():
    v = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(softmax(v), softmax(v + 1000.0), atol=1e-12)


def test_bernoulli_mask_rate():
    (m,), = cut_masks(make_rng(1), [([(1000, 100)], 0.5, False)])
    assert set(np.unique(m)) <= {0.0, 1.0}
    # 3 sigma of Binomial(1e5, 0.5)
    assert abs(m.mean() - 0.5) < 3 * 0.5 / np.sqrt(100_000)


def test_bernoulli_mask_rejects_bad_prob():
    # a probability outside [0, 1] in any group, or no generator, is refused
    # and the generator is left where it was
    for p in (1.5, -0.1, float("nan")):
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="mask probability"):
            cut_masks(rng, [([(2, 2)], 0.5, False), ([(2, 2)], p, True)])
        assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="rng"):
        cut_masks(None, [([(2, 2)], 0.5, False)])


def test_cut_masks_have_the_bits_of_a_draw_per_group():
    # the DHDA's three groups from one draw, and one complement group alone:
    # each group's masks are the compares of a draw of its own, taken in
    # order, a complement group's at or above p, and the generator ends
    # where a draw per group leaves it
    dropout, corruption = ([(3, 4), (3, 2)], 0.5, False), ([(3, 5)], 0.2, True)
    for groups in ([dropout, corruption, dropout], [corruption]):
        rng, ref = make_rng(8), make_rng(8)
        cut = cut_masks(rng, groups)
        for masks, (shapes, p, complement) in zip(cut, groups, strict=True):
            for mask, shape in zip(masks, shapes, strict=True):
                u = ref.random(shape)
                want = u >= p if complement else u < p
                assert mask.dtype == np.float64
                assert np.array_equal(mask, want.astype(np.float64))
        assert rng.random() == ref.random()


def put_along_axis_one_hot(indices, n_classes):
    """The put_along_axis form identity-row indexing replaced: the oracle."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (n_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def test_one_hot():
    oh = one_hot(np.array([0, 2]), 3)
    assert np.array_equal(oh, [[1, 0, 0], [0, 0, 1]])
    assert np.array_equal(one_hot(1, 3), [0, 1, 0])
    rng = make_rng(3)
    for indices in (rng.integers(0, 10, 20), rng.integers(0, 10, (4, 5)),
                    np.array([], dtype=np.int64), 7):
        got, want = one_hot(indices, 10), put_along_axis_one_hot(indices, 10)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


# the largest and smallest finite magnitudes, the smallest normal and 1
EDGE_WEIGHTS = np.array([np.finfo(np.float64).max, np.finfo(np.float64).tiny,
                         np.finfo(np.float64).smallest_subnormal, 1.0, 0.0])


def finite_weights(rng, shape):
    """Finite float64 weights of every exponent: uniform bit patterns, a
    non-finite one redrawn as a normal, with about a quarter of the entries
    an edge weight of either sign.  Adding +0.0 turns a -0.0 into +0.0,
    which a one-hot product reads as +0.0 (-0.0 plus the +0.0 terms)."""
    w = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64).view(np.float64)
    bad = ~np.isfinite(w)
    w[bad] = rng.normal(size=np.count_nonzero(bad))
    edge = rng.random(shape) < 0.25
    w[edge] = (rng.choice(EDGE_WEIGHTS, size=np.count_nonzero(edge))
               * rng.choice([-1.0, 1.0], size=np.count_nonzero(edge)))
    return w + 0.0


@settings(max_examples=200, deadline=None)
@given(c=st.integers(1, 12), h=st.integers(1, 120),
       label_shape=st.sampled_from([(), (1,), (10,), (64,)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_one_hot_product_has_the_gathered_bits(c, h, label_shape, seed):
    # the Gibbs sweep's class term: a one-hot row times the class-weight
    # block's transpose U' (sum H_l up to 120 rows) adds only exact zeros to
    # U's column, for a batch of labels and for one label (the 1-D
    # single-configuration form), and class_drive subtracts it from the
    # negated b_hidden
    rng = make_rng(seed)
    U = finite_weights(rng, (h, c))
    y = rng.integers(0, c, size=label_shape)
    assert_same_bits(one_hot(y, c).dot(U.T), U.T.take(y, axis=0))
    params = dhbm.HybridParams.from_dims(1, [h], c)
    params.U[...] = U
    params.b_hidden[...] = finite_weights(rng, h)
    with np.errstate(over="ignore"):
        assert_same_bits(dhbm.class_drive(params, one_hot(y, c)),
                         -params.b_hidden - U.T.take(y, axis=0))


@pytest.mark.parametrize("beta", [0.3, 0.0])
def test_weighted_rows_weigh_each_side_by_its_mean(beta):
    # lr/n_lab on each labeled row and lr*beta/n_unlab on each unlabeled
    # one; at beta 0 the unlabeled rows are left out, and a batch that keeps
    # every row comes back as the same arrays
    x = np.arange(10.0).reshape(5, 2)
    labels = np.array([-1, 2, -1, 0, -1])
    kept_x, kept_labels, lab, w, n_lab = weighted_rows(x, labels, 0.6, beta)
    assert n_lab == 2
    if beta:
        assert kept_x is x and kept_labels is labels
        assert np.array_equal(w, [0.06, 0.3, 0.06, 0.3, 0.06])
    else:
        assert np.array_equal(kept_x, x[[1, 3]])
        assert np.array_equal(kept_labels, [2, 0])
        assert np.array_equal(w, [0.3, 0.3])
    assert np.array_equal(lab, kept_labels >= 0)
    # a labeled batch keeps every row at any beta
    x_lab, labeled = x[:2], np.array([1, 0])
    got = weighted_rows(x_lab, labeled, 0.6, beta)
    assert got[0] is x_lab and got[1] is labeled


def test_weighted_rows_keep_no_unlabeled_row_at_beta_zero():
    # an unlabeled batch at beta 0 keeps no row; at beta > 0 its rows share
    # lr*beta, the empty labeled side counted as 1
    x = np.ones((4, 3))
    kept_x, kept_labels, lab, w, n_lab = weighted_rows(x, np.full(4, -1), 0.5,
                                                       0.0)
    assert kept_x.shape == (0, 3) and len(kept_labels) == len(lab) == len(w) == 0
    assert n_lab == 0
    assert np.array_equal(weighted_rows(x, np.full(4, -1), 0.5, 0.2)[3],
                          np.full(4, 0.025))


@pytest.mark.parametrize("value", [
    3.0, 7, [1, 2, 3], np.zeros(0), np.arange(6.0).reshape(2, 3),
    np.arange(24, dtype=np.int32).reshape(2, 3, 4),
    np.arange(12.0).reshape(3, 4)[:, ::2]],
    ids=["0-d", "0-d-int", "1-d-list", "1-d-empty", "2-d", "3-d-int",
         "2-d-strided"])
def test_as_rows_keeps_atleast_2ds_shapes(value):
    want = np.atleast_2d(np.asarray(value, dtype=np.float64))
    got = numerics.as_rows(value)
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("x", [np.ones((3, 4)), np.ones((3, 4))[:, 1:]],
                         ids=["contiguous", "view"])
def test_as_rows_returns_a_2d_float64_array_itself(x):
    # predict keeps the batch it was given, and update() reuses that pass
    # only for the same array object
    assert numerics.as_rows(x) is x
    assert numerics.as_rows(x.astype(np.float32)).dtype == np.float64


def test_make_rng_reproducible():
    assert make_rng(42).random(5).tolist() == make_rng(42).random(5).tolist()


@pytest.mark.parametrize("kind, value", [
    (int, 3), (int, np.int64(-2)), (int, np.uint8(7)), (float, 0.5),
    (float, 2), (float, np.float32(1.5)), (float, np.int64(4)), (bool, False),
    (str, "led"), (list, ["mlp-pl"]), (dict, {})])
def test_check_type_takes_values_of_the_type(kind, value):
    check_type("field", value, kind)


@pytest.mark.parametrize("kind, value, need", [
    (int, 2.0, "an integer"), (int, True, "an integer"), (int, "3", "an integer"),
    (float, float("nan"), "finite"), (float, -float("inf"), "finite"),
    (float, False, "finite"), (float, "0.5", "finite"), (float, None, "finite"),
    (bool, 1, "a bool"), (str, 3, "a str"), (list, "mlp-pl", "a list")])
def test_check_type_names_the_field_it_refuses(kind, value, need):
    with pytest.raises(ValueError, match=f"^field must be {need}.*got"):
        check_type("field", value, kind)


@pytest.mark.parametrize("kind, value, least, need", [
    (int, 0, 1, "an integer and >= 1"), (int, 1.5, 1, "an integer and >= 1"),
    (float, -0.5, 0, r"finite \(a real, not a bool\) and >= 0")])
def test_check_type_refuses_a_value_below_its_least(kind, value, least, need):
    check_type("field", least, kind, least)
    with pytest.raises(ValueError, match=f"^field must be {need}, got"):
        check_type("field", value, kind, least)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 64), depth=st.integers(1, 400),
       cols=st.integers(1, 48), transposed=st.booleans(),
       band_bytes=st.integers(8, 1 << 12), seed=st.integers(0, 1000))
@example(rows=1, depth=20, cols=784, transposed=True, band_bytes=8, seed=0)
@example(rows=7, depth=10, cols=16, transposed=True, band_bytes=128, seed=1)
@example(rows=256, depth=20, cols=784, transposed=True,
         band_bytes=numerics.BAND_BYTES, seed=2)
@example(rows=256, depth=10, cols=784, transposed=False,
         band_bytes=numerics.BAND_BYTES, seed=3)
@example(rows=64, depth=10, cols=64, transposed=True,
         band_bytes=numerics.BAND_BYTES, seed=4)
@example(rows=96, depth=10, cols=96, transposed=True,
         band_bytes=numerics.BAND_BYTES, seed=5)
@example(rows=128, depth=10, cols=128, transposed=True,
         band_bytes=numerics.BAND_BYTES, seed=6)
@example(rows=181, depth=10, cols=181, transposed=True,
         band_bytes=numerics.BAND_BYTES, seed=7)
def test_add_product_is_out_plus_the_product(rows, depth, cols, transposed,
                                             band_bytes, seed):
    # the banded add leaves the bits of out + a @ b: bands with a remainder
    # row, a transposed `a` (the gradient functions pass hw.T), a one-row
    # `out`, criterion 7's 256x784 layer at the module's band size, and
    # whole blocks from 64x64 to 181x181
    rng = make_rng(seed)
    a = rng.normal(size=(depth, rows)).T if transposed \
        else rng.normal(size=(rows, depth))
    b = (rng.random((depth, cols)) < 0.5).astype(np.float64) if seed % 2 \
        else rng.random((depth, cols))
    out = rng.normal(size=(rows, cols))
    want = out + a @ b
    with mock.patch.object(numerics, "BAND_BYTES", band_bytes):
        assert add_product(out, a, b) is out
    assert np.array_equal(out.view(np.int64), want.view(np.int64))


def test_add_product_bands_criterion_7s_wide_layer():
    # a 256x784 layer over a batch of 20 rows goes in even bands of about
    # BAND_BYTES, which the test above shows leave the bits
    sizes = np.diff(numerics._band_edges(np.empty((256, 784)), 20))
    assert len(sizes) > 1 and sizes.max() - sizes.min() <= 1
    assert sizes.max() * 784 * 8 <= numerics.BAND_BYTES + 784 * 8


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 300), cols=st.integers(1, 100),
       depth=st.integers(1, 500), band_bytes=st.integers(8, 1 << 16))
def test_band_edges_split_evenly_into_bands_of_two_rows_or_more(
        rows, cols, depth, band_bytes):
    with mock.patch.object(numerics, "BAND_BYTES", band_bytes):
        edges = numerics._band_edges(np.empty((rows, cols)), depth)
    if edges is None:   # taken whole
        assert (rows * cols * 8 <= band_bytes or rows < 4
                or cols % numerics.BAND_COLUMNS
                or depth > numerics.BAND_MAX_DEPTH)
        return
    sizes = np.diff(edges)
    assert edges[0] == 0 and edges[-1] == rows
    assert sizes.max() - sizes.min() <= 1 and sizes.min() >= 2
    assert cols % numerics.BAND_COLUMNS == 0
    assert depth <= numerics.BAND_MAX_DEPTH
    # about band_bytes each, unless the two-row least sets the count
    assert (sizes.max() - 1) * cols * 8 < band_bytes or sizes.min() == 2


def test_add_product_adds_a_vector_product():
    # the bias gradients add a row-weight vector times a batch; a vector is
    # taken whole at any band size
    rng = make_rng(5)
    w, below, out = rng.normal(size=7), rng.random((7, 16)), rng.normal(size=16)
    want = out + w @ below
    with mock.patch.object(numerics, "BAND_BYTES", 8):
        add_product(out, w, below)
    assert np.array_equal(out.view(np.int64), want.view(np.int64))


# The step's products as the @ operator spelled them before every one on the
# predict/update path went through np.dot, and each add-into as the whole
# ``out += a @ b`` that add_product's bands keep (see the tests above): the
# oracles of the np.dot forms, bit for bit
def operator_class_drive(params, y):
    if y is None:
        return params.b_hidden
    drive = y @ params.U.T
    np.add(drive, params.b_hidden, out=drive)
    return drive


def operator_cond_h(params, l, drive, below, above=None):
    lo, hi = params.edges[l:l + 2]
    pre = below @ params.layers[l].W.T
    np.add(pre, drive[..., lo:hi], out=pre)
    if l + 1 < params.n_layers:
        np.add(pre, above @ params.layers[l + 1].W, out=pre)
    return sigmoid(pre, out=pre)


def operator_cond_x(params, h, l=0):
    lp = params.layers[l]
    pre = h @ lp.W
    np.add(pre, lp.b_visible, out=pre)
    return sigmoid(pre, out=pre)


def operator_cond_y(params, h_means, scale=1.0):
    h = np.concatenate(h_means, axis=-1) * scale
    logits = h @ params.U
    np.add(logits, params.b_class, out=logits)
    return wrapper_softmax(logits)


def operator_recognize(rec, x):
    out = []
    below = x
    for l, (W, b) in enumerate(zip(rec.Ws, rec.bs)):
        pre = below @ W.T
        np.multiply(pre, 2.0 if l < len(rec.Ws) - 1 else 1.0, out=pre)
        np.add(pre, b, out=pre)
        below = sigmoid(pre, out=pre)
        out.append(below)
    return out


def operator_rec_gradients(rec, x, mu_list, w, v_list, out):
    L = len(rec.Ws)
    doubling = [2.0] * (L - 1) + [1.0]
    inputs = [x] + v_list[:-1]
    deltas = [None] * L
    deltas[L - 1] = v_list[L - 1] - mu_list[L - 1]
    for l in range(L - 2, -1, -1):
        back = deltas[l + 1] @ rec.Ws[l + 1]
        np.multiply(back, doubling[l + 1], out=back)
        deltas[l] = (v_list[l] - mu_list[l]) \
            + back * sigmoid_prime_from_output(v_list[l])
    dws = [d * (w * doubling[l])[:, None] for l, d in enumerate(deltas)]
    for W, b, dw, delta, below in zip(out.Ws, out.bs, dws, deltas, inputs):
        W += dw.T @ below
        b += w @ delta
    return out


def operator_mf_bp_gradients(x, y_probs, q_rec, state, params, w,
                             dropout_masks, out):
    wc = -w[:, None]
    xi_out = (state.class_probs - y_probs) * wc
    h_all = np.concatenate(state.hidden, axis=1)
    hid_prime = sigmoid_prime_from_output(h_all)
    xi_hid_out = (xi_out @ params.U.T) * hid_prime
    totals = []
    for l, lp in enumerate(params.layers):
        lo, hi = params.edges[l:l + 2]
        v_target = x if l == 0 else q_rec[l - 1]
        xi_recon = (state.recons[l] - v_target) * wc
        xi_hid = (xi_recon @ lp.W.T) * state.masks[l] * hid_prime[:, lo:hi]
        xi_hid_total = (xi_hid + xi_hid_out[:, lo:hi]) * dropout_masks[l]
        totals.append(xi_hid_total)
        g = out.layers[l]
        v_in = state.input_hat if l == 0 else state.hidden_hat[l - 1]
        g.W += xi_hid_total.T @ v_in + state.hidden_hat[l].T @ xi_recon
        g.b_visible += np.add.reduce(xi_recon, axis=0)
    out.U += h_all.T @ xi_out
    out.b_hidden += np.add.reduce(np.concatenate(totals, axis=1), axis=0)
    out.b_class += np.add.reduce(xi_out, axis=0)
    return out


def operator_mlp_forward(params, x, scales):
    hidden = []
    below = x
    for l, (W, b) in enumerate(zip(params.Ws[:-1], params.bs[:-1])):
        h = np.maximum(below @ W.T + b, 0.0)
        if scales is not None:
            np.multiply(h, scales[l], out=h)
        hidden.append(h)
        below = h
    return hidden, wrapper_softmax(below @ params.Ws[-1].T + params.bs[-1])


def operator_mlp_gradients(params, x, y_onehot, w, masks, out):
    hidden, probs = operator_mlp_forward(params, x, masks)
    inputs = [x] + hidden
    deltas = [(probs - y_onehot) * w[:, None]]
    for l in range(len(hidden) - 1, -1, -1):
        deltas.append((deltas[-1] @ params.Ws[l + 1]) * (hidden[l] > 0))
    for W, b, delta, below in zip(out.Ws[::-1], out.bs[::-1], deltas,
                                  inputs[::-1]):
        W += delta.T @ below
        b += np.sum(delta, axis=0)
    return out


def copied(params):
    """Parameters of `params`' layout holding a copy of its vector."""
    out = params.zeros_like()
    out.data[...] = params.data
    return out


@pytest.mark.parametrize("arch, n", [("24-24-24-24-24-10", 20),
                                     ("40-40-40-40-40-3", 20),
                                     ("784-256-256-10", 10),
                                     ("784-256-256-10", 512)])
def test_step_products_match_the_operator_forms(arch, n):
    # the stream models' layers on a batch of 20, and criterion 7's wide
    # layers on a training batch and on an evaluation chunk
    *dims, c = [int(s) for s in arch.split("-")]
    d, hidden = dims[0], dims[1:]
    rng = make_rng(n)
    params = dhbm.HybridParams.initialize(d, hidden, c, rng, weight_std=0.3)
    params.data[...] += rng.normal(0.0, 0.1, params.data.shape)
    rec = recognition.init_from_model(params)
    mlp = baseline.init_mlp(d, hidden, c, rng, weight_std=0.1)
    mlp.data[...] += rng.normal(0.0, 0.05, mlp.data.shape)
    x = (rng.random((n, d)) < 0.4).astype(np.float64)
    w = rng.random(n) / n
    labels = rng.integers(0, c, n)
    y_probs = softmax(rng.normal(size=(n, c)))
    hs = [rng.random((n, h)) for h in hidden]

    # the conditionals, with a distribution, one-hot labels (the Gibbs
    # sweep's) and no class term, and the scaled cond_y.  class_drive is the
    # operator form's drive negated (up to the sign of an exact zero, which
    # the sigmoid reads the same), and cond_h's negated sums give the bits
    # of the operator form's sums and five-pass sigmoid
    for y in (y_probs, one_hot(labels, c), None):
        drive = dhbm.class_drive(params, y)
        want_drive = operator_class_drive(params, y)
        assert_same_bits(drive + 0.0, np.negative(want_drive) + 0.0)
        for l in range(len(hidden)):
            below = x if l == 0 else hs[l - 1]
            above = hs[l + 1] if l + 1 < len(hidden) else None
            assert_same_bits(
                dhbm.cond_h(params, l, drive, below, above),
                operator_cond_h(params, l, want_drive, below, above))
    for l in range(len(hidden)):
        assert_same_bits(dhbm.cond_x(params, hs[l], l),
                         operator_cond_x(params, hs[l], l))
    for scale in (1.0, 0.5, 0.3):
        assert_same_bits(dhbm.cond_y(params, hs, scale),
                         operator_cond_y(params, hs, scale))

    # the recognition net forward and its descent step into itself
    v = recognition.recognize(rec, x)
    for got, want in zip(v, operator_recognize(rec, x)):
        assert_same_bits(got, want)
    want = copied(rec)
    operator_rec_gradients(rec, x, hs, -w, v, out=want)
    recognition.rec_gradients(rec, x, hs, -w, v, out=rec)
    assert_same_bits(rec.data, want.data)

    # the DHDA's back-propagation step into the model itself
    state = corrupted_forward(params, x, hs, make_rng(1), 0.15, 1)
    rng = make_rng(2)
    masks = [rng.random((n, h)) < 0.5 for h in hidden]
    want = copied(params)
    operator_mf_bp_gradients(x, one_hot(labels, c), hs, state, params, w,
                             masks, out=want)
    estimators.mf_bp_gradients(x, one_hot(labels, c), hs, state, params, w,
                               masks, out=params)
    assert_same_bits(params.data, want.data)

    # the MLP: prediction at keep_prob and a drop-out descent step
    assert_same_bits(baseline.mlp_predict(mlp, x, 0.5),
                     operator_mlp_forward(mlp, x, [0.5] * len(hidden))[1])
    assert_same_bits(baseline.mlp_predict(mlp, x),
                     operator_mlp_forward(mlp, x, None)[1])
    rng = make_rng(3)
    masks = [rng.random((n, h)) < 0.5 for h in hidden]
    want = copied(mlp)
    operator_mlp_gradients(mlp, x, one_hot(labels, c), -w, masks, out=want)
    baseline.mlp_gradients(mlp, x, one_hot(labels, c), -w, 0.5, make_rng(3),
                           out=mlp)
    assert_same_bits(mlp.data, want.data)
