"""Module system: registration, traversal, state dicts, train/eval."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.nn.module import Module, Parameter


class Toy(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = nn.Linear(3, 4, rng=rng)
        self.act = nn.SiLU()
        self.fc2 = nn.Linear(4, 2, rng=rng)
        self.scale = Parameter(np.ones(2))
        self.register_buffer("running", np.zeros(2))

    def forward(self, x):
        return self.fc2(self.act(self.fc1(x))) * self.scale


class TestRegistration:
    def test_named_parameters_paths(self, rng):
        names = dict(Toy(rng).named_parameters()).keys()
        assert "fc1.weight" in names
        assert "fc1.bias" in names
        assert "scale" in names

    def test_parameter_count(self, rng):
        toy = Toy(rng)
        assert toy.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2 + 2

    def test_buffers_registered(self, rng):
        assert "running" in dict(Toy(rng).named_buffers())

    def test_reassigning_module_replaces(self, rng):
        toy = Toy(rng)
        toy.fc1 = nn.Linear(3, 4, rng=rng)
        assert len(list(toy.named_parameters())) == 5

    def test_modules_traversal(self, rng):
        mods = list(Toy(rng).modules())
        assert len(mods) == 4  # toy + fc1 + act + fc2


class TestStateDict:
    def test_roundtrip(self, rng):
        a, b = Toy(rng), Toy(np.random.default_rng(999))
        x = Tensor(rng.normal(size=(5, 3)))
        assert not np.allclose(a(x).data, b(x).data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a(x).data, b(x).data)

    def test_state_dict_is_a_copy(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.allclose(toy.fc1.weight.data, 0.0)

    def test_shape_mismatch_raises(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        state["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            toy.load_state_dict(state)

    def test_strict_missing_raises(self, rng):
        toy = Toy(rng)
        state = toy.state_dict()
        del state["fc1.weight"]
        with pytest.raises(KeyError):
            toy.load_state_dict(state)
        toy.load_state_dict(state, strict=False)  # non-strict tolerates

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda state: state.pop("fc2.weight"), KeyError),
            (lambda state: state.update({"fc2.bias": np.zeros(3)}), ValueError),
            (lambda state: state.update({"running": np.zeros(5)}), ValueError),
        ],
        ids=["missing-late-key", "late-shape-mismatch", "buffer-shape-mismatch"],
    )
    def test_failed_load_leaves_module_untouched(self, rng, corrupt, error):
        """Keys that sort after good ones must not let those be assigned
        first: a load that raises restores nothing."""
        toy = Toy(rng)
        before = toy.state_dict()
        state = Toy(np.random.default_rng(999)).state_dict()
        state["running"] = np.array([3.0, 4.0])
        corrupt(state)
        with pytest.raises(error):
            toy.load_state_dict(state)
        after = toy.state_dict()
        assert after.keys() == before.keys()
        for name in before:
            assert np.array_equal(after[name], before[name]), name

    def test_buffer_roundtrip(self, rng):
        toy = Toy(rng)
        toy.set_buffer("running", np.array([1.0, 2.0]))
        other = Toy(np.random.default_rng(1))
        other.load_state_dict(toy.state_dict())
        assert np.allclose(other.running, [1.0, 2.0])


class TestTrainEval:
    def test_mode_propagates(self, rng):
        toy = Toy(rng)
        toy.eval()
        assert all(not m.training for m in toy.modules())
        toy.train()
        assert all(m.training for m in toy.modules())

    def test_zero_grad(self, rng):
        toy = Toy(rng)
        out = toy(Tensor(rng.normal(size=(2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in toy.parameters())
        toy.zero_grad()
        assert all(p.grad is None for p in toy.parameters())

    def test_requires_grad_freeze(self, rng):
        toy = Toy(rng)
        toy.requires_grad_(False)
        out = toy(Tensor(rng.normal(size=(2, 3))))
        out.sum().backward()
        assert all(p.grad is None for p in toy.parameters())


class TestContainers:
    def test_sequential_order_and_index(self, rng):
        seq = nn.Sequential(nn.Linear(2, 3, rng=rng), nn.SiLU(), nn.Linear(3, 1, rng=rng))
        assert len(seq) == 3
        assert isinstance(seq[1], nn.SiLU)
        out = seq(Tensor(rng.normal(size=(4, 2))))
        assert out.shape == (4, 1)

    def test_sequential_fusion_plan_is_resolved_once_and_invalidated(self, rng):
        """The (Linear, activation) steps are worked out on the first call;
        replacing a layer re-resolves them, and the fused switch still
        applies per call, with reference-identical results."""
        from repro.kernels import use_fused

        seq = nn.Sequential(
            nn.Linear(2, 3, rng=rng), nn.SiLU(), nn.Linear(3, 3, rng=rng),
            nn.Linear(3, 1, rng=rng), nn.Tanh(),
        )
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert seq._steps is None
        fused = seq(x)
        steps = seq._steps
        assert [(type(m).__name__, act) for m, act, _ in steps] == [
            ("Linear", "silu"), ("Linear", None), ("Linear", "tanh"),
        ]
        assert seq(x).data is not None and seq._steps is steps  # reused, not rebuilt
        with use_fused(False):
            reference = seq(x)
        assert np.array_equal(fused.data, reference.data)
        assert seq(Tensor(np.zeros(2))).shape == (1,)  # 1-D input takes the unfused branch

        seq.layer1 = nn.Tanh()
        assert seq._steps is None
        swapped = seq(x)
        assert seq._steps[0][1] == "tanh"
        with use_fused(False):
            assert np.array_equal(swapped.data, seq(x).data)
        assert not np.array_equal(swapped.data, fused.data)
        assert nn.Sequential()(x) is x

    def test_module_list(self, rng):
        ml = nn.ModuleList([nn.Linear(2, 2, rng=rng) for _ in range(3)])
        assert len(ml) == 3
        assert len(list(ml)) == 3
        with pytest.raises(RuntimeError):
            ml(Tensor(np.zeros((1, 2))))
        # parameters traverse into items
        assert len(list(ml.parameters())) == 6

    def test_module_dict(self, rng):
        md = nn.ModuleDict({"a": nn.Linear(2, 2, rng=rng)})
        md["b"] = nn.Linear(2, 3, rng=rng)
        assert "a" in md and "b" in md
        assert set(md.keys()) == {"a", "b"}
        assert md["b"].out_features == 3
        with pytest.raises(KeyError):
            md["missing"]


class TestLayers:
    def test_linear_shapes_and_bias(self, rng):
        layer = nn.Linear(3, 5, rng=rng)
        out = layer(Tensor(rng.normal(size=(7, 3))))
        assert out.shape == (7, 5)
        nobias = nn.Linear(3, 5, bias=False, rng=rng)
        assert nobias.bias is None
        assert len(list(nobias.parameters())) == 1

    def test_linear_matches_manual(self, rng):
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        assert np.allclose(layer(Tensor(x)).data, expected)

    def test_embedding_lookup(self, rng):
        emb = nn.Embedding(10, 4, rng=rng)
        out = emb(np.array([1, 1, 3]))
        assert out.shape == (3, 4)
        assert np.allclose(out.data[0], out.data[1])

    def test_embedding_out_of_range(self, rng):
        emb = nn.Embedding(4, 2, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([4]))

    def test_embedding_grad_scatters(self, rng):
        emb = nn.Embedding(5, 3, rng=rng)
        out = emb(np.array([2, 2]))
        out.sum().backward()
        grad = emb.weight.grad
        assert np.allclose(grad[2], 2.0)
        assert np.allclose(grad[[0, 1, 3, 4]], 0.0)

    def test_activation_factory(self):
        from repro.nn.activations import get_activation

        assert isinstance(get_activation("silu"), nn.SiLU)
        assert isinstance(get_activation("SELU"), nn.SELU)
        with pytest.raises(ValueError):
            get_activation("nope")

    def test_dropout_train_vs_eval(self, rng):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100,)))
        drop.train()
        assert (drop(x).data == 0).any()
        drop.eval()
        assert np.allclose(drop(x).data, 1.0)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestNorms:
    def test_rmsnorm_unit_rms(self, rng):
        norm = nn.RMSNorm(8)
        out = norm(Tensor(rng.normal(size=(4, 8)) * 10))
        rms = np.sqrt((out.data**2).mean(axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_rmsnorm_grad(self, rng):
        from repro.autograd import gradcheck

        norm = nn.RMSNorm(4)
        gradcheck(lambda x: norm(x), [rng.normal(size=(3, 4))])

    def test_layernorm_zero_mean_unit_var(self, rng):
        norm = nn.LayerNorm(16)
        out = norm(Tensor(rng.normal(size=(4, 16)) * 5 + 3))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_batchnorm_train_normalizes_batch(self, rng):
        norm = nn.BatchNorm1d(4)
        out = norm(Tensor(rng.normal(size=(64, 4)) * 3 + 1))
        assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-6)

    def test_batchnorm_eval_uses_running_stats(self, rng):
        norm = nn.BatchNorm1d(4)
        for _ in range(50):
            norm(Tensor(rng.normal(size=(32, 4)) * 2 + 5))
        norm.eval()
        out = norm(Tensor(np.full((1, 4), 5.0)))
        # input at the running mean -> output near zero
        assert np.all(np.abs(out.data) < 0.5)

    def test_norm_factory(self):
        from repro.nn.norm import get_norm

        assert isinstance(get_norm("rmsnorm", 4), nn.RMSNorm)
        with pytest.raises(ValueError):
            get_norm("nope", 4)


class TestMLPAndHeads:
    def test_mlp_shapes(self, rng):
        """A plain feed-forward stack is a Sequential of Linear and SiLU."""
        mlp = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.SiLU(), nn.Linear(8, 2, rng=rng))
        assert mlp(Tensor(rng.normal(size=(5, 4)))).shape == (5, 2)
        assert len(list(mlp.parameters())) == 4

    def test_residual_block_is_residual(self, rng):
        block = nn.ResidualMLPBlock(6, dropout=0.0, rng=rng)
        # Zero the linear weights: output must equal input + norm(act(0)).
        block.linear.weight.data[:] = 0.0
        block.linear.bias.data[:] = 0.0
        x = rng.normal(size=(3, 6))
        out = block(Tensor(x))
        # act(0) = 0, rmsnorm(0) = 0 -> identity
        assert np.allclose(out.data, x)

    def test_output_head_shapes(self, rng):
        head = nn.OutputHead(10, out_dim=3, hidden_dim=8, num_blocks=2, rng=rng)
        assert head(Tensor(rng.normal(size=(4, 10)))).shape == (4, 3)

    def test_output_head_appendix_a_structure(self, rng):
        head = nn.OutputHead(10, hidden_dim=8, num_blocks=6, rng=rng)
        assert len(head.blocks) == 6
        block = head.blocks[0]
        assert isinstance(block.activation, nn.SELU)
        assert isinstance(block.norm, nn.RMSNorm)
        assert block.dropout.p == 0.2


class TestInit:
    def test_kaiming_bound(self, rng):
        from repro.nn import init

        w = init.kaiming_uniform((100, 50), rng)
        assert np.abs(w).max() <= 1.0 / np.sqrt(100) + 1e-12

    def test_xavier_bound(self):
        """The draw depends only on the generator passed in: equal seeds
        give equal weights, whatever the global RNG state."""
        from repro.nn import init

        a = init.kaiming_uniform((40, 60), np.random.default_rng(3))
        np.random.seed(0)
        b = init.kaiming_uniform((40, 60), np.random.default_rng(3))
        assert a.shape == (40, 60) and np.array_equal(a, b)

    def test_lecun_std(self, rng):
        """Uniform on [-1/sqrt(fan_in), 1/sqrt(fan_in)]: std is bound/sqrt(3)."""
        from repro.nn import init

        w = init.kaiming_uniform((400, 400), rng)
        assert abs(w.std() - 1.0 / (20.0 * np.sqrt(3.0))) < 2e-3
