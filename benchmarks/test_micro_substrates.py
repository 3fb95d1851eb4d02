"""Microbenchmarks: substrate performance (DES engine, ML)."""

import numpy as np

from repro.des import Environment, Resource
from repro.config import AIConfig
from repro.ml import SGD, build_mlp, train_step


def test_des_event_throughput(benchmark):
    """Events processed per benchmark round: 10k sleeps through the heap."""

    def run_sim():
        env = Environment()

        def ticker(env):
            for _ in range(1000):
                yield 1.0

        for _ in range(10):
            env.process(ticker(env))
        env.run()
        return env.now

    assert benchmark(run_sim) == 1000.0


def test_des_resource_contention(benchmark):
    def run_sim():
        env = Environment()
        res = Resource(env, capacity=4)

        def user(env, res):
            for _ in range(50):
                with res.request() as req:
                    yield req
                    yield 0.1

        for _ in range(40):
            env.process(user(env, res))
        env.run()
        return env.now

    assert benchmark(run_sim) > 0


def test_ml_train_step(benchmark):
    cfg = AIConfig(input_dim=64, hidden_dims=(128, 128), output_dim=64, batch_size=32)
    model = build_mlp(cfg)
    opt = SGD(model, lr=1e-3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 64))
    y = rng.normal(size=(32, 64))
    loss = benchmark(train_step, model, opt, x, y)
    assert np.isfinite(loss)
