import numpy as np
import pytest

from cpscausal.errors import UnknownVariable
from cpscausal.estimation import fit_mle
from cpscausal.fixtures import FIXTURE_NAMES, get_fixture
from cpscausal.graph import CausalGraph
from cpscausal.inference import BayesNet, Cpt
from cpscausal.ingest import ACTUATOR, SENSOR, DiscreteDataset, VariableSpec, discretize, parse_log
from cpscausal.simgen import forward_sample, sample_with_clamp, uniforms, write_historian_csv
from oracles import reference_write_historian_csv


def test_uniform_stream_is_counter_based():
    # any window of the stream equals the same slice generated from scratch
    full = uniforms(seed=123, count=100)
    window = uniforms(seed=123, count=40, start=30)
    assert np.array_equal(full[30:70], window)
    assert np.all((full >= 0) & (full < 1))


def test_degenerate_prior_samples_constant():
    net = BayesNet(
        graph=CausalGraph(nodes=("A",)),
        cpts={"A": Cpt("A", (), (), ("s0", "s1"), np.array([[1.0, 0.0]]))})
    ds = forward_sample(net, 50, seed=9)
    assert ds.columns == (bytes(50),)


def test_same_seed_bit_identical(stage1):
    a = stage1.sample(500, seed=77)
    b = stage1.sample(500, seed=77)
    assert a == b
    c = stage1.sample(500, seed=78)
    assert a.columns != c.columns


def test_marginals_converge(stage1):
    ds = stage1.sample(50_000, seed=1)
    # marginal of LIT101 straight from its prior row
    lit = ds.column("LIT101")
    freq = np.bincount(np.frombuffer(lit, np.uint8), minlength=3) / len(lit)
    assert np.max(np.abs(freq - np.array([0.05, 0.75, 0.20]))) < 0.01


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fit_mle_recovers_cpts(name):
    fx = get_fixture(name)
    ds = fx.sample(100_000, seed=13)
    net = fit_mle(ds, fx.net.graph)
    for node in fx.net.graph.nodes:
        err = np.max(np.abs(np.subtract(net.cpts[node].table, fx.net.cpts[node].table)))
        assert err < 0.02, f"{name}.{node}: max abs error {err}"


class TestClamp:
    def test_clamped_root_constant(self, stage1):
        ds = stage1.sample(200, seed=3, clamp={"LIT101": 2})
        assert ds.column("LIT101") == bytes([2]) * 200

    def test_descendants_respond(self, stage1):
        # forcing the valve open drives the flow CPT row [0.02, 0.98]
        ds = stage1.sample(50_000, seed=4, clamp={"MV101": 1})
        high = ds.column("FIT101").count(1) / ds.n_records
        assert abs(high - 0.98) < 0.01

    def test_empty_clamp_equals_forward_sample(self, stage1):
        a = sample_with_clamp(stage1.net, 300, seed=5, clamp={}, specs=stage1.specs)
        b = forward_sample(stage1.net, 300, seed=5, specs=stage1.specs)
        assert a == b

    def test_unknown_clamp_variable(self, stage1):
        with pytest.raises(UnknownVariable):
            stage1.sample(10, seed=6, clamp={"GHOST": 0})


def test_historian_csv_round_trip(stage1):
    ds = stage1.sample(400, seed=8)
    text = write_historian_csv(ds)
    log = parse_log(text)
    assert log.timestamps is not None
    back = discretize(log, ds.specs)
    assert back == ds


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_historian_csv_matches_reference(name):
    # the fixtures cover sensor edges, actuator codes and actuators without codes
    ds = get_fixture(name).sample(500, seed=11)
    assert write_historian_csv(ds) == reference_write_historian_csv(ds)


def test_historian_csv_matches_reference_on_odd_specs():
    specs = (VariableSpec("S", SENSOR, ("a", "b", "c", "d"), bin_edges=(-1e300, -0.5, 1e-7)),
             VariableSpec("T", SENSOR, ("lo", "hi"), bin_edges=(0.1,)),
             VariableSpec("V", ACTUATOR, ("x", "y", "z"), codes=(-3, 10**20, 0)),
             VariableSpec("W", ACTUATOR, tuple(f"s{k}" for k in range(12))))
    rng = np.random.default_rng(3)
    columns = [rng.integers(0, s.cardinality, size=200).tolist() for s in specs]
    ds = DiscreteDataset(specs=specs, columns=columns)
    assert write_historian_csv(ds) == reference_write_historian_csv(ds)
    one = DiscreteDataset(specs=specs, columns=[column[:1] for column in columns])
    assert write_historian_csv(one) == reference_write_historian_csv(one)


@pytest.mark.parametrize("edges", [
    (1e20,),                      # e[0] - 1.0 == e[0]: state 0 needs the float below the edge
    (1e308, 1.7e308),             # the midpoint overflows to inf: the left edge instead
    (-1.7e308, -1e308, 5.0, 1e20),
])
def test_historian_csv_round_trip_at_extreme_edges(edges):
    spec = VariableSpec("S", SENSOR, tuple(f"s{k}" for k in range(len(edges) + 1)), bin_edges=edges)
    ds = DiscreteDataset(specs=(spec,), columns=[[state for state in range(len(edges) + 1) for _ in range(3)]])
    text = write_historian_csv(ds)
    assert text == reference_write_historian_csv(ds)
    assert discretize(parse_log(text), ds.specs) == ds
